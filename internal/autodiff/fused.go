package autodiff

import (
	"fmt"

	"sate/internal/par"
)

// Fused kernels for the hot GAT sequences (DESIGN.md §8). Each fusion is
// bitwise identical to the op sequence it replaces — same per-element
// floating-point operations in the same order, forward and backward — so
// swapping a composed graph for the fused one changes no model output.
// The wins are fewer kernel launches, fewer intermediate tensors (less
// arena traffic and cache footprint), and single-pass data movement.
//
//	Linear / LinearLeakyReLU   = MatMul -> AddRowBroadcast [-> LeakyReLU]
//	GatherConcat               = Gather -> (Gather) -> Concat
//	SegmentAttention           = SegmentSoftmax -> MulColBroadcast -> ScatterAddRows
//	EdgeAttention (edgeattn.go) = a GAT layer's whole edge-level tail, all
//	                             heads; inference tapes only, where it stands
//	                             in for GatherConcat and SegmentAttention

// Linear returns x @ w + bias (bias 1 x n, broadcast over rows) as one
// kernel: the gemm epilogue adds the bias while the output row is hot.
func (tp *TapeOf[T]) Linear(x, w, bias *ValueOf[T]) *ValueOf[T] {
	return tp.linear(x, w, bias, 0, false)
}

// LinearLeakyReLU returns LeakyReLU(x @ w + bias, slope) as one kernel. On
// gradient tapes the pre-activation is stashed on the node (the slope mask
// cannot be recovered from the output when slope is 0), so the backward pass
// is exact. On inference tapes no stash is allocated: the nonlinearity is
// applied in place on the output — same elementwise operations, one fewer
// m x n tensor of memory traffic per call.
func (tp *TapeOf[T]) LinearLeakyReLU(x, w, bias *ValueOf[T], slope T) *ValueOf[T] {
	return tp.linear(x, w, bias, slope, true)
}

func (tp *TapeOf[T]) linear(x, w, bias *ValueOf[T], slope T, epilogue bool) *ValueOf[T] {
	if x.Val.Cols != w.Val.Rows {
		panic(fmt.Sprintf("autodiff: linear %s @ %s", x.Val.shape(), w.Val.shape()))
	}
	if bias.Val.Rows != 1 || bias.Val.Cols != w.Val.Cols {
		panic(fmt.Sprintf("autodiff: linear bias %s for %s output", bias.Val.shape(), w.Val.shape()))
	}
	m, k, n := x.Val.Rows, x.Val.Cols, w.Val.Cols
	v := tp.newNodeStored(m, n, opsFor[T]().linearBack)
	v.src0, v.src1, v.src2, v.s0 = x, w, bias, slope
	if epilogue {
		v.n = 1
		if tp.grad {
			// Pre-activation stash: gemmChunk stores every element, so the
			// recycled slab needs no zeroing.
			v.aux = tp.arena.tensorRaw(m, n)
		}
	}
	par.ForCtx(m, rowGrain(m, k*n), v, opsFor[T]().linearFwdChunk)
	return v
}

func linearFwdChunk[T Float](v *ValueOf[T], lo, hi int) {
	n := v.Val.Cols
	// gemm into the pre-activation buffer (v.aux when a backward pass will
	// need the stash, else the output itself), then add the bias row by row.
	pre := v.Val
	if v.aux != nil {
		pre = v.aux
	}
	gemmChunk(gemmArgs[T]{out: pre, a: v.src0.Val, b: v.src1.Val}, lo, hi)
	bias := v.src2.Val.Data
	for i := lo; i < hi; i++ {
		row := pre.Data[i*n : (i+1)*n]
		for j, bv := range bias {
			row[j] += bv
		}
	}
	if v.n == 1 {
		// LeakyReLU epilogue; when pre aliases the output (inference) this
		// rewrites it in place — bitwise the same values.
		slope := v.s0
		out := v.Val.Data
		for i := lo * n; i < hi*n; i++ {
			if xv := pre.Data[i]; xv >= 0 {
				out[i] = xv
			} else {
				out[i] = slope * xv
			}
		}
	}
}

// lreluRouteArgs routes an output gradient through the LeakyReLU mask of a
// stashed pre-activation: dst[i] = g[i] or g[i]*slope (every entry stored).
type lreluRouteArgs[T Float] struct {
	g, x, dst []T
	slope     T
}

func lreluRouteChunk[T Float](a lreluRouteArgs[T], lo, hi int) {
	for i := lo; i < hi; i++ {
		if a.x[i] >= 0 {
			a.dst[i] = a.g[i]
		} else {
			a.dst[i] = a.g[i] * a.slope
		}
	}
}

func linearBack[T Float](v *ValueOf[T]) {
	x, w, bias := v.src0, v.src1, v.src2
	m, n := v.Val.Rows, v.Val.Cols
	gPre := v.Grad
	if v.aux != nil {
		t := v.tape.arena.tensorRaw(m, n)
		par.ForCtx(m*n, elemGrain(m*n), lreluRouteArgs[T]{g: v.Grad.Data, x: v.aux.Data, dst: t.Data, slope: v.s0}, opsFor[T]().lreluRouteChunk)
		gPre = t
	}
	// Bias gradient: serial row-major accumulation, the AddRowBroadcast
	// backward order.
	for r := 0; r < m; r++ {
		for c := 0; c < n; c++ {
			bias.Grad.Data[c] += gPre.Data[r*n+c]
		}
	}
	gemmBT(x.Grad, gPre, w.Val, true) // dX += dPre @ W^T
	gemmAT(w.Grad, x.Val, gPre, true) // dW += X^T @ dPre
}

// GatherConcat assembles per-edge rows [a[ai[r]] ‖ b[bi[r]] ‖ e[r]] in one
// pass, without materialising the gathered intermediates. Part a is always
// gathered through ai (which fixes the output row count); a nil bi takes
// part b's rows directly (row r aligns with output row r), and the third
// part is always direct. In the GAT layer this builds the attention input
// [Θd·v_dst ‖ Θn·v_src ‖ Θe·e] with only the dst part gathered — the src
// part arrives pre-gathered because it is shared with the message term,
// which keeps the gradient accumulation order of the composed graph.
func (tp *TapeOf[T]) GatherConcat(a *ValueOf[T], ai []int, b *ValueOf[T], bi []int, e *ValueOf[T]) *ValueOf[T] {
	rows := len(ai)
	if br := b.Val.Rows; (bi == nil && br != rows) || (bi != nil && len(bi) != rows) {
		panic("autodiff: GatherConcat part b row mismatch")
	}
	if e.Val.Rows != rows {
		panic("autodiff: GatherConcat part e row mismatch")
	}
	total := a.Val.Cols + b.Val.Cols + e.Val.Cols
	v := tp.newNodeStored(rows, total, opsFor[T]().gatherConcatBack)
	v.src0, v.src1, v.src2 = a, b, e
	v.idx, v.idx2 = ai, bi
	par.ForCtx(rows, rowGrain(rows, total), v, opsFor[T]().gatherConcatFwdChunk)
	return v
}

func gatherConcatFwdChunk[T Float](v *ValueOf[T], lo, hi int) {
	a, b, e := v.src0.Val, v.src1.Val, v.src2.Val
	c0, c1, c2 := a.Cols, b.Cols, e.Cols
	total := v.Val.Cols
	for r := lo; r < hi; r++ {
		ra, rb := v.idx[r], r
		if v.idx2 != nil {
			rb = v.idx2[r]
		}
		o := v.Val.Data[r*total : (r+1)*total]
		copy(o[:c0], a.Data[ra*c0:(ra+1)*c0])
		copy(o[c0:c0+c1], b.Data[rb*c1:(rb+1)*c1])
		copy(o[c0+c1:], e.Data[r*c2:(r+1)*c2])
	}
}

func gatherConcatBack[T Float](v *ValueOf[T]) {
	c0, c1 := v.src0.Val.Cols, v.src1.Val.Cols
	gatherConcatBackPart(v, v.src0, v.idx, 0)
	gatherConcatBackPart(v, v.src1, v.idx2, c0)
	gatherConcatBackPart(v, v.src2, nil, c0+c1)
}

// gatherConcatBackPart accumulates one column band of v.Grad into part p.
// Direct parts add row-aligned; gathered parts scatter grouped by source row
// in increasing edge order — the same order the composed Gather backward
// uses.
func gatherConcatBackPart[T Float](v *ValueOf[T], p *ValueOf[T], idx []int, off int) {
	cols := p.Val.Cols
	total := v.Val.Cols
	if idx == nil {
		par.ForCtx(v.Val.Rows, rowGrain(v.Val.Rows, cols),
			stridedAddArgs[T]{dst: p.Grad.Data, src: v.Grad.Data, cols: cols, stride: total, off: off}, opsFor[T]().stridedAddChunk)
		return
	}
	pRows := p.Val.Rows
	grain := par.Grain(pRows, segGrainMin)
	if par.NumChunks(pRows, grain) <= 1 {
		for i, r := range idx {
			src := v.Grad.Data[i*total+off : i*total+off+cols]
			dst := p.Grad.Data[r*cols : (r+1)*cols]
			for j, g := range src {
				dst[j] += g
			}
		}
		return
	}
	sidx := buildSegmentIndex(v.tape, idx, pRows)
	par.ForCtx(pRows, grain,
		stridedScatterArgs[T]{dst: p.Grad.Data, src: v.Grad.Data, cols: cols, stride: total, off: off, sidx: sidx}, opsFor[T]().stridedScatterChunk)
}

// stridedAddArgs adds a column band of a strided source into a dense
// destination, row-aligned.
type stridedAddArgs[T Float] struct {
	dst, src    []T
	cols        int
	stride, off int
}

func stridedAddChunk[T Float](a stridedAddArgs[T], lo, hi int) {
	for r := lo; r < hi; r++ {
		d := a.dst[r*a.cols : (r+1)*a.cols]
		s := a.src[r*a.stride+a.off : r*a.stride+a.off+a.cols]
		for j, g := range s {
			d[j] += g
		}
	}
}

// stridedScatterArgs is segScatterArgs with a strided, column-offset source:
// destination row r folds the source rows listed by sidx in increasing order.
type stridedScatterArgs[T Float] struct {
	dst, src    []T
	cols        int
	stride, off int
	sidx        segmentIndex
}

func stridedScatterChunk[T Float](a stridedScatterArgs[T], lo, hi int) {
	for r := lo; r < hi; r++ {
		d := a.dst[r*a.cols : (r+1)*a.cols]
		for _, i := range a.sidx.rows[a.sidx.off[r]:a.sidx.off[r+1]] {
			s := a.src[i*a.stride+a.off : i*a.stride+a.off+a.cols]
			for j, g := range s {
				d[j] += g
			}
		}
	}
}

// SegmentAttention fuses the attention-weighted aggregation tail of a GAT
// head: alpha = SegmentSoftmax(score, seg, nSeg), out[s] = Σ_{e: seg[e]=s}
// alpha[e] * msg[e], without materialising alpha or the weighted messages as
// graph nodes. score is E x 1, msg is E x cols, out is nSeg x cols. The
// attention weights are stashed on the node for the backward pass.
func (tp *TapeOf[T]) SegmentAttention(score, msg *ValueOf[T], seg []int, nSeg int) *ValueOf[T] {
	if score.Val.Cols != 1 || len(seg) != score.Val.Rows || msg.Val.Rows != score.Val.Rows {
		panic("autodiff: SegmentAttention requires E x 1 scores, E x cols messages and E segment ids")
	}
	cols := msg.Val.Cols
	v := tp.newNode(nSeg, cols, opsFor[T]().segmentAttentionBack)
	v.src0, v.src1, v.idx, v.n = score, msg, seg, nSeg
	v.aux = tp.arena.tensorRaw(score.Val.Rows, 1)
	v.sidx = segmentSoftmaxForward(tp, v.aux, score.Val, seg, nSeg)

	alpha := v.aux.Data
	if grain := par.Grain(nSeg, segGrainMin); par.NumChunks(nSeg, grain) <= 1 {
		// One chunk: linear sweep over edges, increasing e — the composed
		// ScatterAddRows order.
		for e, s := range seg {
			row := msg.Val.Data[e*cols : (e+1)*cols]
			ro := v.Val.Data[s*cols : (s+1)*cols]
			f := alpha[e]
			for j, mv := range row {
				ro[j] += f * mv
			}
		}
	} else {
		sidx := v.sidx
		if sidx.off == nil {
			sidx = buildSegmentIndex(tp, seg, nSeg)
			v.sidx = sidx
		}
		par.ForCtx(nSeg, grain,
			segAttnAggArgs[T]{out: v.Val.Data, msg: msg.Val.Data, alpha: alpha, cols: cols, sidx: sidx}, opsFor[T]().segAttnAggChunk)
	}
	return v
}

// segAttnAggArgs drives the weighted-scatter aggregation: output row s folds
// alpha[e] * msg[e] over its edges in increasing e.
type segAttnAggArgs[T Float] struct {
	out, msg, alpha []T
	cols            int
	sidx            segmentIndex
}

func segAttnAggChunk[T Float](a segAttnAggArgs[T], lo, hi int) {
	for s := lo; s < hi; s++ {
		ro := a.out[s*a.cols : (s+1)*a.cols]
		for _, e := range a.sidx.rows[a.sidx.off[s]:a.sidx.off[s+1]] {
			row := a.msg[e*a.cols : (e+1)*a.cols]
			f := a.alpha[e]
			for j, mv := range row {
				ro[j] += f * mv
			}
		}
	}
}

// segAttnEdgeArgs drives the per-edge backward pass: msg.Grad picks up the
// alpha-scaled output gradient, and dAlpha[e] collects <dOut[seg[e]],
// msg[e]> for the softmax backward.
type segAttnEdgeArgs[T Float] struct {
	gOut, msgV, msgG, alpha, dAlpha []T
	seg                             []int
	cols                            int
}

func segAttnEdgeChunk[T Float](a segAttnEdgeArgs[T], lo, hi int) {
	for e := lo; e < hi; e++ {
		s := a.seg[e]
		gv := a.gOut[s*a.cols : (s+1)*a.cols]
		f := a.alpha[e]
		var dot T
		for j, g := range gv {
			a.msgG[e*a.cols+j] += g * f
			dot += g * a.msgV[e*a.cols+j]
		}
		a.dAlpha[e] = dot
	}
}

func segmentAttentionBack[T Float](v *ValueOf[T]) {
	score, msg := v.src0, v.src1
	cols := msg.Val.Cols
	e := msg.Val.Rows
	dAlpha := v.tape.arena.scalars.take(e)
	par.ForCtx(e, rowGrain(e, cols),
		segAttnEdgeArgs[T]{gOut: v.Grad.Data, msgV: msg.Val.Data, msgG: msg.Grad.Data,
			alpha: v.aux.Data, dAlpha: dAlpha, seg: v.idx, cols: cols}, opsFor[T]().segAttnEdgeChunk)
	segmentSoftmaxBackward(v.tape, score.Grad.Data, v.aux.Data, dAlpha, v.idx, v.n, v.sidx)
}
