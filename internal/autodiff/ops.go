package autodiff

import (
	"fmt"

	"sate/internal/par"
)

// All ops follow the same allocation discipline (DESIGN.md §8): result,
// gradient and scratch storage comes from the tape arena, and the backward
// pass is a static function over the node's stashed state (src0/src1/...,
// idx, scalars) rather than a closure — so issuing an op performs no heap
// allocation once the arena is warm. Parallel chunks run through par.ForCtx
// with static chunk functions for the same reason.

// elemGrain is the chunk grain for elementwise kernels over n scalars.
func elemGrain(n int) int { return par.Grain(n, kernelFlopTarget) }

// MatMul returns a @ b. Forward and backward are row-parallel (see
// kernels.go); the backward pass writes disjoint gradient rows, so no merge
// step is needed.
func (tp *TapeOf[T]) MatMul(a, b *ValueOf[T]) *ValueOf[T] {
	if a.Val.Cols != b.Val.Rows {
		panic(fmt.Sprintf("autodiff: matmul %s @ %s", a.Val.shape(), b.Val.shape()))
	}
	v := tp.newNodeStored(a.Val.Rows, b.Val.Cols, opsFor[T]().matMulBack)
	v.src0, v.src1 = a, b
	gemm(v.Val, a.Val, b.Val, false)
	return v
}

func matMulBack[T Float](v *ValueOf[T]) {
	a, b := v.src0, v.src1
	gemmBT(a.Grad, v.Grad, b.Val, true) // dA += dOut @ B^T
	gemmAT(b.Grad, a.Val, v.Grad, true) // dB += A^T @ dOut
}

// MatMulT returns a @ b^T (a: m x k, b: n x k -> m x n). It routes through
// the same parallel kernels as MatMul: gemmBT forward (no transpose is
// materialised), gemm/gemmAT backward.
func (tp *TapeOf[T]) MatMulT(a, b *ValueOf[T]) *ValueOf[T] {
	if a.Val.Cols != b.Val.Cols {
		panic(fmt.Sprintf("autodiff: matmulT %s @ %sT", a.Val.shape(), b.Val.shape()))
	}
	v := tp.newNodeStored(a.Val.Rows, b.Val.Rows, opsFor[T]().matMulTBack)
	v.src0, v.src1 = a, b
	gemmBT(v.Val, a.Val, b.Val, false)
	return v
}

func matMulTBack[T Float](v *ValueOf[T]) {
	a, b := v.src0, v.src1
	gemm(a.Grad, v.Grad, b.Val, true)   // dA += dOut @ B
	gemmAT(b.Grad, v.Grad, a.Val, true) // dB += dOut^T @ A
}

// elemOp is the kernel an elementwise node runs, kept in the node's n: the
// eight elementwise ops share one constructor, one forward chunk and one
// backward chunk, and the chunks switch on the code once per chunk.
type elemOp int

const (
	opAdd       elemOp = iota // a + b
	opSub                     // a - b
	opMul                     // a * b
	opScale                   // a * s0
	opLeakyReLU               // max(a, s0*a)
	opSigmoid                 // 1/(1+exp(-a))
	opExp                     // exp(a)
	opSoftClamp               // clamp(a, s0, s1) + s2*(a - clamp(a, s0, s1))
)

// binaryOpNames names the ops that take b, for the shape-mismatch panic.
var binaryOpNames = [...]string{opAdd: "add", opSub: "sub", opMul: "mul"}

// elementwise issues op on a and, for the binary ops, b (nil otherwise), with
// the op's scalars in s0..s2.
func (tp *TapeOf[T]) elementwise(op elemOp, a, b *ValueOf[T], s0, s1, s2 T) *ValueOf[T] {
	if b != nil && !a.Val.SameShape(b.Val) {
		panic(fmt.Sprintf("autodiff: %s shape mismatch %s vs %s", binaryOpNames[op], a.Val.shape(), b.Val.shape()))
	}
	v := tp.newNodeStored(a.Val.Rows, a.Val.Cols, opsFor[T]().elemBack)
	v.n, v.src0, v.src1, v.s0, v.s1, v.s2 = int(op), a, b, s0, s1, s2
	par.ForCtx(len(v.Val.Data), elemGrain(len(v.Val.Data)), v, opsFor[T]().elemFwdChunk)
	return v
}

// Add returns a + b (same shape).
func (tp *TapeOf[T]) Add(a, b *ValueOf[T]) *ValueOf[T] { return tp.elementwise(opAdd, a, b, 0, 0, 0) }

// Sub returns a - b.
func (tp *TapeOf[T]) Sub(a, b *ValueOf[T]) *ValueOf[T] { return tp.elementwise(opSub, a, b, 0, 0, 0) }

// Mul returns the elementwise product.
func (tp *TapeOf[T]) Mul(a, b *ValueOf[T]) *ValueOf[T] { return tp.elementwise(opMul, a, b, 0, 0, 0) }

// Scale returns a * s for scalar s.
func (tp *TapeOf[T]) Scale(a *ValueOf[T], s T) *ValueOf[T] {
	return tp.elementwise(opScale, a, nil, s, 0, 0)
}

// LeakyReLU applies max(x, slope*x) elementwise.
func (tp *TapeOf[T]) LeakyReLU(a *ValueOf[T], slope T) *ValueOf[T] {
	return tp.elementwise(opLeakyReLU, a, nil, slope, 0, 0)
}

// ReLU applies max(x, 0).
func (tp *TapeOf[T]) ReLU(a *ValueOf[T]) *ValueOf[T] { return tp.LeakyReLU(a, 0) }

// Sigmoid applies 1/(1+exp(-x)) elementwise.
func (tp *TapeOf[T]) Sigmoid(a *ValueOf[T]) *ValueOf[T] {
	return tp.elementwise(opSigmoid, a, nil, 0, 0, 0)
}

// Exp applies exp elementwise.
func (tp *TapeOf[T]) Exp(a *ValueOf[T]) *ValueOf[T] { return tp.elementwise(opExp, a, nil, 0, 0, 0) }

// SoftClamp limits values to [lo, hi] with a residual slope outside the
// band: y = clamp(x) + slope*(x - clamp(x)). Unlike a hard clamp the
// gradient never vanishes (slope outside, 1 inside), so downstream
// saturating nonlinearities (e.g. sigmoid gates) can always recover.
func (tp *TapeOf[T]) SoftClamp(a *ValueOf[T], lo, hi, slope T) *ValueOf[T] {
	return tp.elementwise(opSoftClamp, a, nil, lo, hi, slope)
}

func elemFwdChunk[T Float](v *ValueOf[T], lo, hi int) {
	o, x := v.Val.Data, v.src0.Val.Data
	var y []T
	if v.src1 != nil {
		y = v.src1.Val.Data
	}
	s0, s1, s2 := v.s0, v.s1, v.s2
	switch elemOp(v.n) {
	case opAdd:
		for i := lo; i < hi; i++ {
			o[i] = x[i] + y[i]
		}
	case opSub:
		for i := lo; i < hi; i++ {
			o[i] = x[i] - y[i]
		}
	case opMul:
		for i := lo; i < hi; i++ {
			o[i] = x[i] * y[i]
		}
	case opScale:
		for i := lo; i < hi; i++ {
			o[i] = x[i] * s0
		}
	case opLeakyReLU:
		for i := lo; i < hi; i++ {
			if xv := x[i]; xv >= 0 {
				o[i] = xv
			} else {
				o[i] = s0 * xv
			}
		}
	case opSigmoid:
		for i := lo; i < hi; i++ {
			o[i] = 1 / (1 + expT(-x[i]))
		}
	case opExp:
		for i := lo; i < hi; i++ {
			o[i] = expT(x[i])
		}
	case opSoftClamp:
		for i := lo; i < hi; i++ {
			c := maxT(s0, minT(s1, x[i]))
			o[i] = c + s2*(x[i]-c)
		}
	}
}

func elemBack[T Float](v *ValueOf[T]) {
	par.ForCtx(len(v.Grad.Data), elemGrain(len(v.Grad.Data)), v, opsFor[T]().elemBackChunk)
}

// elemBackChunk accumulates the node's gradient into its operands' over
// [lo, hi). A binary op on one value twice (Mul(d, d)) adds a's share and
// then b's into the same element, in that order.
func elemBackChunk[T Float](v *ValueOf[T], lo, hi int) {
	g, o, x, ga := v.Grad.Data, v.Val.Data, v.src0.Val.Data, v.src0.Grad.Data
	var y, gb []T
	if v.src1 != nil {
		y, gb = v.src1.Val.Data, v.src1.Grad.Data
	}
	s0, s1, s2 := v.s0, v.s1, v.s2
	switch elemOp(v.n) {
	case opAdd:
		for i := lo; i < hi; i++ {
			ga[i] += g[i]
			gb[i] += g[i]
		}
	case opSub:
		for i := lo; i < hi; i++ {
			ga[i] += g[i]
			gb[i] -= g[i]
		}
	case opMul:
		for i := lo; i < hi; i++ {
			ga[i] += g[i] * y[i]
			gb[i] += g[i] * x[i]
		}
	case opScale:
		for i := lo; i < hi; i++ {
			ga[i] += g[i] * s0
		}
	case opLeakyReLU:
		for i := lo; i < hi; i++ {
			if x[i] >= 0 {
				ga[i] += g[i]
			} else {
				ga[i] += g[i] * s0
			}
		}
	case opSigmoid:
		for i := lo; i < hi; i++ {
			y := o[i]
			ga[i] += g[i] * y * (1 - y)
		}
	case opExp:
		for i := lo; i < hi; i++ {
			ga[i] += g[i] * o[i]
		}
	case opSoftClamp:
		for i := lo; i < hi; i++ {
			if x[i] < s0 || x[i] > s1 {
				ga[i] += g[i] * s2
			} else {
				ga[i] += g[i]
			}
		}
	}
}

// AddRowBroadcast returns a + b where b is 1 x cols, added to every row of a.
func (tp *TapeOf[T]) AddRowBroadcast(a, b *ValueOf[T]) *ValueOf[T] {
	if b.Val.Rows != 1 || b.Val.Cols != a.Val.Cols {
		panic(fmt.Sprintf("autodiff: row broadcast %s + %s", a.Val.shape(), b.Val.shape()))
	}
	v := tp.newNodeStored(a.Val.Rows, a.Val.Cols, opsFor[T]().addRowBroadcastBack)
	v.src0, v.src1 = a, b
	par.ForCtx(a.Val.Rows, rowGrain(a.Val.Rows, a.Val.Cols), v, opsFor[T]().addRowBroadcastFwdChunk)
	return v
}

func addRowBroadcastFwdChunk[T Float](v *ValueOf[T], lo, hi int) {
	cols := v.Val.Cols
	x, bias, o := v.src0.Val.Data, v.src1.Val.Data, v.Val.Data
	for r := lo; r < hi; r++ {
		for c := 0; c < cols; c++ {
			o[r*cols+c] = x[r*cols+c] + bias[c]
		}
	}
}

// addRowBroadcastBack is serial: the bias gradient accumulates across every
// row, and the fixed row-major order is part of the determinism contract.
func addRowBroadcastBack[T Float](v *ValueOf[T]) {
	a, b := v.src0, v.src1
	cols := a.Val.Cols
	for r := 0; r < a.Val.Rows; r++ {
		for c := 0; c < cols; c++ {
			g := v.Grad.Data[r*cols+c]
			a.Grad.Data[r*cols+c] += g
			b.Grad.Data[c] += g
		}
	}
}

// MulColBroadcast returns rows of a scaled by the column vector s (rows x 1).
func (tp *TapeOf[T]) MulColBroadcast(a, s *ValueOf[T]) *ValueOf[T] {
	if s.Val.Cols != 1 || s.Val.Rows != a.Val.Rows {
		panic(fmt.Sprintf("autodiff: col broadcast %s * %s", a.Val.shape(), s.Val.shape()))
	}
	v := tp.newNodeStored(a.Val.Rows, a.Val.Cols, opsFor[T]().mulColBroadcastBack)
	v.src0, v.src1 = a, s
	par.ForCtx(a.Val.Rows, rowGrain(a.Val.Rows, a.Val.Cols), v, opsFor[T]().mulColBroadcastFwdChunk)
	return v
}

func mulColBroadcastFwdChunk[T Float](v *ValueOf[T], lo, hi int) {
	cols := v.Val.Cols
	x, s, o := v.src0.Val.Data, v.src1.Val.Data, v.Val.Data
	for r := lo; r < hi; r++ {
		f := s[r]
		for c := 0; c < cols; c++ {
			o[r*cols+c] = x[r*cols+c] * f
		}
	}
}

func mulColBroadcastBack[T Float](v *ValueOf[T]) {
	// Row-parallel: chunk r owns row r of a.Grad and entry r of s.Grad.
	par.ForCtx(v.Val.Rows, rowGrain(v.Val.Rows, v.Val.Cols), v, opsFor[T]().mulColBroadcastBkChunk)
}

func mulColBroadcastBackChunk[T Float](v *ValueOf[T], lo, hi int) {
	a, s := v.src0, v.src1
	cols := v.Val.Cols
	for r := lo; r < hi; r++ {
		f := s.Val.Data[r]
		var dot T
		for c := 0; c < cols; c++ {
			g := v.Grad.Data[r*cols+c]
			a.Grad.Data[r*cols+c] += g * f
			dot += g * a.Val.Data[r*cols+c]
		}
		s.Grad.Data[r] += dot
	}
}

// Concat joins tensors along columns (same row count).
func (tp *TapeOf[T]) Concat(parts ...*ValueOf[T]) *ValueOf[T] {
	rows := parts[0].Val.Rows
	total := 0
	for _, p := range parts {
		if p.Val.Rows != rows {
			panic("autodiff: concat row mismatch")
		}
		total += p.Val.Cols
	}
	v := tp.newNodeStored(rows, total, opsFor[T]().concatBack)
	v.srcs = tp.arena.keep(parts)
	// Row-parallel: each chunk copies whole output rows, all parts at once.
	par.ForCtx(rows, rowGrain(rows, total), v, opsFor[T]().concatFwdChunk)
	return v
}

func concatFwdChunk[T Float](v *ValueOf[T], lo, hi int) {
	total := v.Val.Cols
	for r := lo; r < hi; r++ {
		off := 0
		for _, p := range v.srcs {
			c := p.Val.Cols
			copy(v.Val.Data[r*total+off:r*total+off+c], p.Val.Data[r*c:(r+1)*c])
			off += c
		}
	}
}

func concatBack[T Float](v *ValueOf[T]) {
	par.ForCtx(v.Val.Rows, rowGrain(v.Val.Rows, v.Val.Cols), v, opsFor[T]().concatBackChunk)
}

func concatBackChunk[T Float](v *ValueOf[T], lo, hi int) {
	total := v.Val.Cols
	for r := lo; r < hi; r++ {
		off := 0
		for _, p := range v.srcs {
			c := p.Val.Cols
			for j := 0; j < c; j++ {
				p.Grad.Data[r*c+j] += v.Grad.Data[r*total+off+j]
			}
			off += c
		}
	}
}

// Col returns column c of a as a rows x 1 value — a strided copy, so each
// output is its own element's bits whatever the row's other columns hold.
// Backward adds the gradient into that column.
func (tp *TapeOf[T]) Col(a *ValueOf[T], c int) *ValueOf[T] {
	if c < 0 || c >= a.Val.Cols {
		panic(fmt.Sprintf("autodiff: column %d of %s", c, a.Val.shape()))
	}
	v := tp.newNodeStored(a.Val.Rows, 1, opsFor[T]().colBack)
	v.src0, v.n = a, c
	par.ForCtx(a.Val.Rows, elemGrain(a.Val.Rows), v, opsFor[T]().colFwdChunk)
	return v
}

func colFwdChunk[T Float](v *ValueOf[T], lo, hi int) {
	o, x, cols, c := v.Val.Data, v.src0.Val.Data, v.src0.Val.Cols, v.n
	for i := lo; i < hi; i++ {
		o[i] = x[i*cols+c]
	}
}

func colBack[T Float](v *ValueOf[T]) {
	par.ForCtx(v.Val.Rows, elemGrain(v.Val.Rows), v, opsFor[T]().colBackChunk)
}

func colBackChunk[T Float](v *ValueOf[T], lo, hi int) {
	g, ga, cols, c := v.Grad.Data, v.src0.Grad.Data, v.src0.Val.Cols, v.n
	for i := lo; i < hi; i++ {
		ga[i*cols+c] += g[i]
	}
}

// Gather selects rows of a by index: out[i] = a[idx[i]].
func (tp *TapeOf[T]) Gather(a *ValueOf[T], idx []int) *ValueOf[T] {
	cols := a.Val.Cols
	v := tp.newNodeStored(len(idx), cols, opsFor[T]().gatherBack)
	v.src0, v.idx = a, idx
	par.ForCtx(len(idx), rowGrain(len(idx), cols), v, opsFor[T]().gatherFwdChunk)
	return v
}

func gatherFwdChunk[T Float](v *ValueOf[T], lo, hi int) {
	cols := v.Val.Cols
	src := v.src0.Val.Data
	for i := lo; i < hi; i++ {
		r := v.idx[i]
		copy(v.Val.Data[i*cols:(i+1)*cols], src[r*cols:(r+1)*cols])
	}
}

func gatherBack[T Float](v *ValueOf[T]) {
	// idx may repeat rows, so the parallel backward scatter groups gather
	// positions by source row: chunk r owns row r of a.Grad and folds its
	// positions in increasing i — the serial sweep's order.
	a, idx, cols := v.src0, v.idx, v.Val.Cols
	aRows := a.Val.Rows
	grain := par.Grain(aRows, segGrainMin)
	if par.NumChunks(aRows, grain) <= 1 {
		for i, r := range idx {
			for j := 0; j < cols; j++ {
				a.Grad.Data[r*cols+j] += v.Grad.Data[i*cols+j]
			}
		}
		return
	}
	sidx := buildSegmentIndex(v.tape, idx, aRows)
	par.ForCtx(aRows, grain, segScatterArgs[T]{dst: a.Grad.Data, src: v.Grad.Data, cols: cols, sidx: sidx}, opsFor[T]().segScatterChunk)
}

// segScatterArgs drives the grouped row-scatter kernel: destination row r
// accumulates the source rows listed by sidx for segment r, in increasing
// source order — the serial sweep's accumulation order.
type segScatterArgs[T Float] struct {
	dst, src []T
	cols     int
	sidx     segmentIndex
}

func segScatterChunk[T Float](a segScatterArgs[T], lo, hi int) {
	for r := lo; r < hi; r++ {
		ro := a.dst[r*a.cols : (r+1)*a.cols]
		for _, i := range a.sidx.rows[a.sidx.off[r]:a.sidx.off[r+1]] {
			ra := a.src[i*a.cols : (i+1)*a.cols]
			for j := range ro {
				ro[j] += ra[j]
			}
		}
	}
}

// ScatterAddRows sums rows of a into outRows buckets: out[idx[i]] += a[i].
// The forward pass is parallel over output rows — each destination row is
// owned by one chunk and gathers its source rows in increasing order, the
// same accumulation order as the serial sweep. The backward pass is parallel
// over the (disjoint) rows of a.Grad.
func (tp *TapeOf[T]) ScatterAddRows(a *ValueOf[T], idx []int, outRows int) *ValueOf[T] {
	cols := a.Val.Cols
	v := tp.newNode(outRows, cols, opsFor[T]().scatterAddRowsBack)
	v.src0, v.idx = a, idx
	if grain := par.Grain(outRows, segGrainMin); par.NumChunks(outRows, grain) <= 1 {
		// One chunk: the linear source sweep beats the index indirection.
		for i, r := range idx {
			for j := 0; j < cols; j++ {
				v.Val.Data[r*cols+j] += a.Val.Data[i*cols+j]
			}
		}
	} else {
		sidx := buildSegmentIndex(tp, idx, outRows)
		par.ForCtx(outRows, grain, segScatterArgs[T]{dst: v.Val.Data, src: a.Val.Data, cols: cols, sidx: sidx}, opsFor[T]().segScatterChunk)
	}
	return v
}

func scatterAddRowsBack[T Float](v *ValueOf[T]) {
	par.ForCtx(len(v.idx), par.Grain(len(v.idx), segGrainMin), v, opsFor[T]().scatterAddRowsBkChunk)
}

func scatterAddRowsBackChunk[T Float](v *ValueOf[T], lo, hi int) {
	cols := v.Val.Cols
	for i := lo; i < hi; i++ {
		r := v.idx[i]
		ga := v.src0.Grad.Data[i*cols : (i+1)*cols]
		gv := v.Grad.Data[r*cols : (r+1)*cols]
		for j := range ga {
			ga[j] += gv[j]
		}
	}
}

// SegmentSoftmax computes a softmax over groups of rows of a column vector:
// rows i with equal seg[i] form one softmax group. a must be n x 1.
func (tp *TapeOf[T]) SegmentSoftmax(a *ValueOf[T], seg []int, nSeg int) *ValueOf[T] {
	if a.Val.Cols != 1 || len(seg) != a.Val.Rows {
		panic("autodiff: SegmentSoftmax requires an n x 1 input with n segment ids")
	}
	v := tp.newNodeStored(a.Val.Rows, 1, opsFor[T]().segmentSoftmaxBack)
	v.src0, v.idx, v.n = a, seg, nSeg
	v.sidx = segmentSoftmaxForward(tp, v.Val, a.Val, seg, nSeg)
	return v
}

func segmentSoftmaxBack[T Float](v *ValueOf[T]) {
	segmentSoftmaxBackward(v.tape, v.src0.Grad.Data, v.Val.Data, v.Grad.Data, v.idx, v.n, v.sidx)
}

// SumAll reduces to a 1x1 scalar. The reduction is serial: one fixed
// left-to-right fold, independent of worker count.
func (tp *TapeOf[T]) SumAll(a *ValueOf[T]) *ValueOf[T] {
	v := tp.newNodeStored(1, 1, opsFor[T]().sumAllBack)
	v.src0 = a
	var s T
	for _, x := range a.Val.Data {
		s += x
	}
	v.Val.Data[0] = s
	return v
}

func sumAllBack[T Float](v *ValueOf[T]) {
	g := v.Grad.Data[0]
	ga := v.src0.Grad.Data
	for i := range ga {
		ga[i] += g
	}
}

// MeanAll reduces to the scalar mean.
func (tp *TapeOf[T]) MeanAll(a *ValueOf[T]) *ValueOf[T] {
	n := float64(len(a.Val.Data))
	return tp.Scale(tp.SumAll(a), T(1/n))
}

// MSE returns mean squared error between a and b as a scalar.
func (tp *TapeOf[T]) MSE(a, b *ValueOf[T]) *ValueOf[T] {
	d := tp.Sub(a, b)
	return tp.MeanAll(tp.Mul(d, d))
}

// RowSoftmax applies a numerically stable softmax along each row. Both
// passes are row-parallel: rows are independent, so chunked execution is
// bitwise identical to the serial loop.
func (tp *TapeOf[T]) RowSoftmax(a *ValueOf[T]) *ValueOf[T] {
	v := tp.newNodeStored(a.Val.Rows, a.Val.Cols, opsFor[T]().rowSoftmaxBack)
	v.src0 = a
	par.ForCtx(a.Val.Rows, par.Grain(a.Val.Rows, segGrainMin), v, opsFor[T]().rowSoftmaxFwdChunk)
	return v
}

func rowSoftmaxFwdChunk[T Float](v *ValueOf[T], lo, hi int) {
	cols := v.Val.Cols
	for r := lo; r < hi; r++ {
		ra := v.src0.Val.Data[r*cols : (r+1)*cols]
		ro := v.Val.Data[r*cols : (r+1)*cols]
		mx := negInfT[T]()
		for _, x := range ra {
			if x > mx {
				mx = x
			}
		}
		var sum T
		for i, x := range ra {
			ro[i] = expT(x - mx)
			sum += ro[i]
		}
		for i := range ro {
			ro[i] /= sum
		}
	}
}

func rowSoftmaxBack[T Float](v *ValueOf[T]) {
	par.ForCtx(v.Val.Rows, par.Grain(v.Val.Rows, segGrainMin), v, opsFor[T]().rowSoftmaxBackChunk)
}

func rowSoftmaxBackChunk[T Float](v *ValueOf[T], lo, hi int) {
	cols := v.Val.Cols
	for r := lo; r < hi; r++ {
		ro := v.Val.Data[r*cols : (r+1)*cols]
		var dot T
		for i := 0; i < cols; i++ {
			dot += v.Grad.Data[r*cols+i] * ro[i]
		}
		for i := 0; i < cols; i++ {
			v.src0.Grad.Data[r*cols+i] += ro[i] * (v.Grad.Data[r*cols+i] - dot)
		}
	}
}
