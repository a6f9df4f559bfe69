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
//	Linear / LinearLeakyReLU    = MatMul -> AddRowBroadcast [-> LeakyReLU]
//	EdgeAttention (edgeattn.go) = a GAT layer's whole edge-level tail: per head
//	                              Gather, Concat, MatMul, LeakyReLU, Add,
//	                              SegmentSoftmax, MulColBroadcast, ScatterAddRows;
//	                              then Concat -> Add -> LeakyReLU

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
