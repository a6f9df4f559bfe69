package autodiff

import (
	"fmt"

	"sate/internal/par"
)

// EdgeAttention is the whole edge-level tail of a multi-head GAT layer
// (Eq. 6/7) as one kernel, forward and backward. Per head k it takes the
// node-level projections hDst[k] (nDst x dh) and hSrc[k] (nSrc x dh), the edge
// projection hE[k] — one row per edge, or, with eIdx, one row per distinct
// edge feature and edge e reading row eIdx[e] — and the attention vector
// attn[k] (3·dh x 1). Edge e runs src[e] -> dst[e]. The result is
//
//	out[s] = LeakyReLU( self[s] + ‖_k Σ_{e: dst[e]=s} α^k_e (hSrc[k][src[e]] + hE[k][e]) )
//	α^k    = softmax over each s of LeakyReLU( attn[k]ᵀ [hDst[k][s] ‖ hSrc[k][src[e]] ‖ hE[k][e]] )
//
// written straight into the concatenated nDst x heads·dh layout. An empty attn
// scores every edge 0 (mean aggregation; hDst is not read). The per-head
// operands are distinct nodes.
//
// Every float, value and gradient, equals that of the graph composed from the
// primitive ops — per head Gather, Concat, MatMul, LeakyReLU, Add,
// SegmentSoftmax, MulColBroadcast, ScatterAddRows, then Concat, Add, LeakyReLU
// (edgeattn_test.go keeps it as the reference) — because each output element
// is produced by the same operations in the same order (DESIGN.md §11).
//
// Forward: the score's first dh terms depend on the destination only, so they
// are summed once per segment and every edge's accumulator continues from
// that prefix through the same += sequence in increasing p that gemm runs
// over the concatenated row; max, exp(x−max), sum and divide follow the
// segment softmax's order; and messages fold into the output row in
// increasing e. Nothing E x dh is materialised, and the segment index is
// built once for all heads. An inference tape keeps one column of attention
// weights for all heads; a gradient tape stashes what the backward cannot
// recompute exactly — per head the weights α and the raw score (its LeakyReLU
// mask; the slope may be 0), and the output's pre-activation.
//
// Edge lanes. On amd64 with AVX2 — gemm's decision, gemmVector — the
// forward's three per-edge loops run in assembly (edge_amd64.{go,s}) over a
// block of whole segments at a time: the scores with one lane per edge (a
// lane is the Go chain prefix += s[p]·w[p] in increasing p, a VMULPD then a
// VADDPD per term, never fused), exp(α − max) with one lane per edge (math's
// own exp_amd64.s sequence, in the variant — fused or not — that matches
// math.Exp on this machine, decided once at init; inputs outside its main
// path go to math.Exp), and the message fold with one lane per column. The
// prefix, max, sum, divide and the self/activation pass stay in Go. Each
// lane performs one Go-spelled chain's operations in order, so the bits are
// the Go spelling's (TestEdgeAttentionVectorMatchesGeneric, FuzzExpLanes),
// which stays as the fallback on every other machine.
//
// Backward: three passes, each owning the gradient elements it writes, so the
// bits are the same at every worker count. By destination segment: the output
// gradient routed through the activation mask (g) into self.Grad, then per
// head and edge the message gradient g·α into hE.Grad, dα = <g, hSrc+hE>,
// the segment softmax's Jacobian, the score mask, and the score gradient
// times the attention vector into hDst.Grad[s] (in increasing e) and
// hE.Grad[e]. By source node, over a second segment index: g·α plus the score
// gradient times the attention vector's middle third into hSrc.Grad[n], in
// increasing e. By attention-vector row: Σ_e [hDst ‖ hSrc ‖ hE][e][p] · score
// gradient, one serial sum in increasing e, as gemmAT folds it. The composed
// graph routes these terms through zeroed intermediate buffers, whose first +=
// turns a −0 term into +0; the passes do not re-enact that. Every term ends
// in a sum that started at +0 and only took +=, such a sum is never −0, and
// adding −0 or +0 to it leaves the same bits (FuzzEdgeAttention's grid is
// mostly zeros of both signs).
//
// eIdx is for inference tapes: the deduplicated edge projection's gradient
// would sum each distinct row's edges in one fold where the expanded graph
// sums them per edge and then through Θe's gemmAT — a different association.
func (tp *TapeOf[T]) EdgeAttention(self *ValueOf[T], hDst, hSrc, hE, attn []*ValueOf[T], eIdx, dst, src []int, slope T) *ValueOf[T] {
	if tp.grad && eIdx != nil {
		panic("autodiff: EdgeAttention with deduplicated edge features on a gradient tape")
	}
	heads, nDst, nEdge := len(hSrc), self.Val.Rows, len(dst)
	uniform := len(attn) == 0
	if heads == 0 || len(hE) != heads || (!uniform && (len(attn) != heads || len(hDst) != heads)) {
		panic("autodiff: EdgeAttention needs one hSrc, hE (and with attn, hDst and attn) per head")
	}
	if len(src) != nEdge || (eIdx != nil && len(eIdx) != nEdge) {
		panic(fmt.Sprintf("autodiff: EdgeAttention with %d dst, %d src and %d edge-feature indices", nEdge, len(src), len(eIdx)))
	}
	dh, nSrc, nFeat := hSrc[0].Val.Cols, hSrc[0].Val.Rows, hE[0].Val.Rows
	if eIdx == nil && nFeat != nEdge {
		panic(fmt.Sprintf("autodiff: EdgeAttention edge projection has %d rows for %d edges", nFeat, nEdge))
	}
	if self.Val.Cols != heads*dh {
		panic(fmt.Sprintf("autodiff: EdgeAttention self %s for %d heads of width %d", self.Val.shape(), heads, dh))
	}
	for k := 0; k < heads; k++ {
		if s, e := hSrc[k].Val, hE[k].Val; s.Rows != nSrc || s.Cols != dh || e.Rows != nFeat || e.Cols != dh {
			panic(fmt.Sprintf("autodiff: EdgeAttention head %d: hSrc %s, hE %s, want %dx%d and %dx%d", k, s.shape(), e.shape(), nSrc, dh, nFeat, dh))
		}
		if uniform {
			continue
		}
		if d, a := hDst[k].Val, attn[k].Val; d.Rows != nDst || d.Cols != dh || a.Rows != 3*dh || a.Cols != 1 {
			panic(fmt.Sprintf("autodiff: EdgeAttention head %d: hDst %s, attn %s, want %dx%d and %dx1", k, d.shape(), a.shape(), nDst, dh, 3*dh))
		}
	}
	for e, s := range dst {
		if s < 0 || s >= nDst || src[e] < 0 || src[e] >= nSrc || (eIdx != nil && (eIdx[e] < 0 || eIdx[e] >= nFeat)) {
			panic(fmt.Sprintf("autodiff: EdgeAttention edge %d out of range", e))
		}
	}

	v := tp.newNodeStored(nDst, heads*dh, opsFor[T]().edgeAttnBack)
	a := edgeAttnArgs[T]{
		out: v, self: self,
		hSrc: tp.arena.keep(hSrc), hE: tp.arena.keep(hE),
		dst: dst, src: src, eIdx: eIdx,
		sidx: buildSegmentIndex(tp, dst, nDst),
		seg:  tp.arena.scalars.take(nDst),
		dh:   dh, slope: slope,
	}
	if !uniform {
		a.hDst, a.attn = tp.arena.keep(hDst), tp.arena.keep(attn)
	}
	if tp.grad {
		a.perHead = nEdge
		a.pre = tp.arena.scalars.take(nDst * heads * dh)
		a.alpha = tp.arena.scalars.take(heads * nEdge)
		if !uniform {
			a.raw = tp.arena.scalars.take(heads * nEdge)
		}
		v.edge = &tp.arena.edges.take(1)[0]
		*v.edge = a
	} else {
		a.alpha = tp.arena.scalars.take(nEdge)
	}
	par.ForCtx(nDst, a.segGrain(nDst), a, opsFor[T]().edgeAttnChunk)
	return v
}

// edgeAttnArgs carries one EdgeAttention launch; a gradient tape keeps it on
// the node for the backward pass. hDst and attn are nil for uniform attention.
// alpha holds the attention weights, each entry owned by its edge's segment:
// one column for all heads on an inference tape (perHead 0), one per head on a
// gradient tape (perHead = E), where raw (the scores before LeakyReLU; nil when
// uniform) and pre (the output before LeakyReLU) are stashed beside it.
type edgeAttnArgs[T Float] struct {
	out, self            *ValueOf[T]
	hDst, hSrc, hE, attn []*ValueOf[T]
	dst, src, eIdx       []int
	sidx                 segmentIndex
	dh, perHead          int
	slope                T
	alpha, raw, pre      []T
	seg                  []T // per destination: the score prefix, then the maximum

	// Backward scratch: g is the output gradient routed through the
	// activation mask (nDst x heads·dh), ds the score gradients routed through
	// theirs (one column per head), acc one zeroed sum per attention-vector
	// row, srcIdx the edges grouped by source node.
	g, ds, acc []T
	srcIdx     segmentIndex
}

// segGrain is the par grain of a pass over the edges grouped into n segments.
// Segments are as uneven as node degrees; the grain goes by the mean.
func (a *edgeAttnArgs[T]) segGrain(n int) int {
	segCost := 4 * len(a.hSrc) * a.dh
	if n > 0 {
		segCost *= 1 + len(a.dst)/n
	}
	return rowGrain(n, segCost)
}

// edgeBlock is about how many edges edgeAttnChunk's passes take at a time:
// enough for the lanes to fill across segment ends, few enough that the
// block's rows are still in cache when the fold reads them again.
const edgeBlock = 256

// edgeAttnChunk runs destinations [lo, hi) in blocks of whole segments of
// about edgeBlock edges.
func edgeAttnChunk[T Float](a edgeAttnArgs[T], lo, hi int) {
	off := a.sidx.off
	for b := lo; b < hi; {
		end := b + 1
		for end < hi && off[end+1]-off[b] <= edgeBlock {
			end++
		}
		a.block(b, end)
		b = end
	}
}

// block runs destinations [lo, hi) head by head: the lanes' passes (scores,
// exp, fold) each take the whole run of segments in one call, and the
// per-segment passes between them (prefix, max, sum and divide) are Go.
// Every element sees the operations it saw one segment at a time.
func (a *edgeAttnArgs[T]) block(lo, hi int) {
	dh, slope := a.dh, a.slope
	width := len(a.hSrc) * dh
	out, self := a.out.Val.Data, a.self.Val.Data
	// The aggregate accumulates where the pre-activation is wanted: in the
	// stash, or (inference) in the output rows, rewritten in place below.
	agg := out
	if a.pre != nil {
		agg = a.pre
	}
	agg = agg[lo*width : hi*width]
	clear(agg)
	edges := a.sidx.rows[a.sidx.off[lo]:a.sidx.off[hi]] // segment after segment
	for k := 0; k < len(a.hSrc) && len(edges) > 0; k++ {
		hs, he := a.hSrc[k].Val.Data, a.hE[k].Val.Data
		alpha := a.alpha[k*a.perHead:]
		if a.attn == nil {
			for _, e := range edges {
				alpha[e] = 0
			}
			clear(a.seg[lo:hi]) // every maximum is 0
		} else {
			av := a.attn[k].Val.Data
			// The destination's dh terms of the score, once per segment.
			for s := lo; s < hi; s++ {
				var prefix T
				for p, x := range a.hDst[k].Val.Data[s*dh : (s+1)*dh] {
					prefix += x * av[p]
				}
				a.seg[s] = prefix
			}
			a.scores(lo, hi, edges, alpha, a.raw[k*a.perHead:], hs, he, av[dh:2*dh], av[2*dh:3*dh])
		}
		if !edgeExpLanes(a, edges, alpha) {
			for s := lo; s < hi; s++ {
				mx := a.seg[s]
				for _, e := range a.segment(s) {
					alpha[e] = expT(alpha[e] - mx)
				}
			}
		}
		// alpha keeps the weights: the fold reads them, the stash keeps them.
		for s := lo; s < hi; s++ {
			var sum T
			for _, e := range a.segment(s) {
				sum += alpha[e]
			}
			for _, e := range a.segment(s) {
				alpha[e] /= sum
			}
		}
		if edgeFoldLanes(a, lo, hi, alpha, hs, he, agg, k*dh) {
			continue
		}
		for s := lo; s < hi; s++ {
			ro := agg[(s-lo)*width+k*dh:][:dh]
			for _, e := range a.segment(s) {
				f := alpha[e]
				sr, er := a.edgeRows(hs, he, e, len(ro))
				for j := range ro {
					ro[j] += f * (sr[j] + er[j])
				}
			}
		}
	}
	for s := lo; s < hi; s++ {
		row, pre := out[s*width:(s+1)*width], agg[(s-lo)*width:][:width]
		for j, sv := range self[s*width : (s+1)*width] {
			x := sv + pre[j]
			pre[j] = x
			if x >= 0 {
				row[j] = x
			} else {
				row[j] = slope * x
			}
		}
	}
}

// segment returns destination s's in-edges.
func (a *edgeAttnArgs[T]) segment(s int) []int {
	return a.sidx.rows[a.sidx.off[s]:a.sidx.off[s+1]]
}

// edgeRows returns edge e's source-node and edge-feature projection rows,
// each of length n (= dh; taking it from the slice the caller's loop ranges
// over lets the compiler drop the loop's bounds checks).
func (a *edgeAttnArgs[T]) edgeRows(hs, he []T, e, n int) (sr, er []T) {
	ix := e
	if a.eIdx != nil {
		ix = a.eIdx[e]
	}
	return hs[a.src[e]*n:][:n], he[ix*n:][:n]
}

// scores writes LeakyReLU(seg[s] + hs[src[e]]·aSrc + he[e]·aEdge) into
// alpha[e] — and the sum before the LeakyReLU into raw[e], when raw is kept —
// for the edges of destinations [lo, hi) (edges, segment after segment),
// where seg[s] holds the destination's prefix, and leaves each segment's
// maximum in seg[s]. In the Go spelling four edges of a segment run in
// lockstep — each score is a serial chain of 2·dh dependent adds, and four
// independent chains keep the adder busy the way gemm's four-row tile does;
// each chain is still its edge's own terms in increasing p. A short last
// group repeats the segment's last edge, which stores the same score again.
func (a *edgeAttnArgs[T]) scores(lo, hi int, edges []int, alpha, raw, hs, he, aSrc, aEdge []T) {
	if edgeScoreLanes(a, edges, alpha, raw, hs, he, aSrc, aEdge) {
		for s := lo; s < hi; s++ {
			mx := negInfT[T]()
			for _, e := range a.segment(s) {
				if alpha[e] > mx {
					mx = alpha[e]
				}
			}
			a.seg[s] = mx
		}
		return
	}
	slope, dh := a.slope, len(aSrc)
	aEdge = aEdge[:dh]
	for s := lo; s < hi; s++ {
		edges, prefix, mx := a.segment(s), a.seg[s], negInfT[T]()
		store := func(e int, sc T) {
			if raw != nil {
				raw[e] = sc
			}
			if !(sc >= 0) { // NaN takes the slope branch, as in LeakyReLU
				sc = slope * sc
			}
			alpha[e] = sc
			if sc > mx {
				mx = sc
			}
		}
		last := len(edges) - 1
		for i := 0; i <= last; i += 4 {
			i0, i1, i2, i3 := edges[i], edges[min(i+1, last)], edges[min(i+2, last)], edges[min(i+3, last)]
			s0, e0 := a.edgeRows(hs, he, i0, dh)
			s1, e1 := a.edgeRows(hs, he, i1, dh)
			s2, e2 := a.edgeRows(hs, he, i2, dh)
			s3, e3 := a.edgeRows(hs, he, i3, dh)
			c0, c1, c2, c3 := prefix, prefix, prefix, prefix
			for p, w := range aSrc {
				c0 += s0[p] * w
				c1 += s1[p] * w
				c2 += s2[p] * w
				c3 += s3[p] * w
			}
			for p, w := range aEdge {
				c0 += e0[p] * w
				c1 += e1[p] * w
				c2 += e2[p] * w
				c3 += e3[p] * w
			}
			store(i0, c0)
			store(i1, c1)
			store(i2, c2)
			store(i3, c3)
		}
		a.seg[s] = mx
	}
}

func edgeAttnBack[T Float](v *ValueOf[T]) {
	a := *v.edge
	ar := &v.tape.arena
	heads, nDst, nSrc, nEdge := len(a.hSrc), a.self.Val.Rows, a.hSrc[0].Val.Rows, len(a.dst)
	a.g, a.ds = ar.scalars.take(nDst*heads*a.dh), ar.scalars.take(heads*nEdge)
	par.ForCtx(nDst, a.segGrain(nDst), a, opsFor[T]().edgeAttnBackDstChunk)
	a.srcIdx = buildSegmentIndex(v.tape, a.src, nSrc)
	par.ForCtx(nSrc, a.segGrain(nSrc), a, opsFor[T]().edgeAttnBackSrcChunk)
	if a.attn != nil {
		a.acc = ar.scalars.takeZeroed(heads * 3 * a.dh)
		par.ForCtx(len(a.acc), rowGrain(len(a.acc), nEdge), a, opsFor[T]().edgeAttnBackAttnChunk)
	}
}

// edgeAttnBackDstChunk owns, for its destination segments: the rows of g,
// self.Grad and hDst[k].Grad, and every in-edge's row of hE[k].Grad and entry
// of ds.
func edgeAttnBackDstChunk[T Float](a edgeAttnArgs[T], lo, hi int) {
	dh, slope, nEdge := a.dh, a.slope, a.perHead
	width := len(a.hSrc) * dh
	outG, selfG := a.out.Grad.Data, a.self.Grad.Data
	for s := lo; s < hi; s++ {
		g := a.g[s*width : (s+1)*width]
		for j, x := range a.pre[s*width : (s+1)*width] {
			r := outG[s*width+j]
			if !(x >= 0) {
				r *= slope
			}
			g[j] = r
			selfG[s*width+j] += r
		}
		edges := a.sidx.rows[a.sidx.off[s]:a.sidx.off[s+1]]
		for k := 0; k < len(a.hSrc) && len(edges) > 0; k++ {
			gk := g[k*dh : (k+1)*dh]
			hs, he, heG := a.hSrc[k].Val.Data, a.hE[k].Val.Data, a.hE[k].Grad.Data
			alpha, ds := a.alpha[k*nEdge:], a.ds[k*nEdge:]
			// The message gradient, and dα[e] = <g, msg[e]> parked in ds[e].
			for _, e := range edges {
				f, eg := alpha[e], heG[e*dh:][:dh]
				sr, er := a.edgeRows(hs, he, e, dh)
				var dot T
				for j, gv := range gk {
					eg[j] += gv * f
					dot += gv * (sr[j] + er[j])
				}
				ds[e] = dot
			}
			if a.attn == nil {
				continue // the scores are constants
			}
			// The segment softmax's Jacobian, the score's LeakyReLU mask, and
			// the score gradient times the attention vector: its first third
			// folds into the destination's row, its last into the edge's.
			var dot T
			for _, e := range edges {
				dot += ds[e] * alpha[e]
			}
			av, raw := a.attn[k].Val.Data, a.raw[k*nEdge:]
			aDst, aEdge := av[:dh], av[2*dh:3*dh]
			dg := a.hDst[k].Grad.Data[s*dh : (s+1)*dh]
			for _, e := range edges {
				d := alpha[e] * (ds[e] - dot)
				if !(raw[e] >= 0) {
					d *= slope
				}
				ds[e] = d
				eg := heG[e*dh:][:dh]
				for j := range dg {
					dg[j] += d * aDst[j]
					eg[j] += d * aEdge[j]
				}
			}
		}
	}
}

// edgeAttnBackSrcChunk owns the rows of hSrc[k].Grad for its source nodes:
// each folds its out-edges' message and score gradients in increasing e.
func edgeAttnBackSrcChunk[T Float](a edgeAttnArgs[T], lo, hi int) {
	dh, nEdge := a.dh, a.perHead
	width := len(a.hSrc) * dh
	for n := lo; n < hi; n++ {
		edges := a.srcIdx.rows[a.srcIdx.off[n]:a.srcIdx.off[n+1]]
		for k := 0; k < len(a.hSrc) && len(edges) > 0; k++ {
			sg := a.hSrc[k].Grad.Data[n*dh : (n+1)*dh]
			alpha := a.alpha[k*nEdge:]
			if a.attn == nil {
				for _, e := range edges {
					f, gk := alpha[e], a.g[a.dst[e]*width+k*dh:][:dh]
					for j := range sg {
						sg[j] += gk[j] * f
					}
				}
				continue
			}
			ds, aSrc := a.ds[k*nEdge:], a.attn[k].Val.Data[dh:2*dh]
			for _, e := range edges {
				f, d, gk := alpha[e], ds[e], a.g[a.dst[e]*width+k*dh:][:dh]
				for j := range sg {
					sg[j] += gk[j]*f + d*aSrc[j]
				}
			}
		}
	}
}

// edgeAttnBackAttnChunk owns rows [lo, hi) of the heads' stacked attention
// vectors. A band of rows inside one third of one head reads one contiguous
// slice per edge, so it walks the edges once for the whole band.
func edgeAttnBackAttnChunk[T Float](a edgeAttnArgs[T], lo, hi int) {
	dh, nEdge := a.dh, a.perHead
	for r := lo; r < hi; {
		k, p := r/(3*dh), r%(3*dh)
		j0 := p % dh
		j1 := min(dh, j0+hi-r)
		rows, ix := a.hE[k].Val.Data, []int(nil)
		switch p / dh {
		case 0:
			rows, ix = a.hDst[k].Val.Data, a.dst
		case 1:
			rows, ix = a.hSrc[k].Val.Data, a.src
		}
		acc := a.acc[r : r+j1-j0]
		for e, d := range a.ds[k*nEdge:][:nEdge] {
			i := e
			if ix != nil {
				i = ix[e]
			}
			for j, x := range rows[i*dh+j0 : i*dh+j1] {
				acc[j] += x * d
			}
		}
		ag := a.attn[k].Grad.Data[p:]
		for j, s := range acc {
			ag[j] += s
		}
		r += j1 - j0
	}
}
