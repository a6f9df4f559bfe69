// Package autodiff is a small reverse-mode automatic-differentiation engine
// over dense matrices, built for graph neural networks on CPU. It provides
// the operations GAT-style message passing needs — matrix products, row
// gather/scatter, per-segment softmax, broadcasts and pointwise
// nonlinearities — plus the Adam optimizer and numerical gradient checking.
//
// The whole stack is generic over the element type (Float: float32 or
// float64). TensorOf[float64] is the reference path — bitwise-identical to
// the pre-generic float64 engine — and the un-suffixed names (Tensor, Value,
// Tape, Adam) are aliases for it, so float64 call sites read exactly as
// before. TensorOf[float32] halves memory traffic for inference; training
// stays float64.
//
// It stands in for the paper's GPU deep-learning framework (see DESIGN.md):
// define-by-run eager execution, a tape in creation order, and reverse
// accumulation over the tape. Tapes recycle all of their storage through an
// arena (arena.go): call Reset between passes and the steady state performs
// zero heap allocations.
package autodiff

import (
	"fmt"
	"math/rand"
)

// TensorOf is a dense row-major matrix over T.
type TensorOf[T Float] struct {
	Rows, Cols int
	Data       []T
}

// Tensor is the float64 tensor — the reference dtype and the training dtype.
type Tensor = TensorOf[float64]

// NewTensor allocates a zero float64 matrix.
func NewTensor(rows, cols int) *Tensor { return NewTensorOf[float64](rows, cols) }

// NewTensorOf allocates a zero matrix of the given dtype.
func NewTensorOf[T Float](rows, cols int) *TensorOf[T] {
	return &TensorOf[T]{Rows: rows, Cols: cols, Data: make([]T, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows x cols tensor.
func FromSlice[T Float](rows, cols int, data []T) *TensorOf[T] {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("autodiff: %d values for %dx%d tensor", len(data), rows, cols))
	}
	return &TensorOf[T]{Rows: rows, Cols: cols, Data: data}
}

// At returns element (r, c).
func (t *TensorOf[T]) At(r, c int) T { return t.Data[r*t.Cols+c] }

// Set writes element (r, c).
func (t *TensorOf[T]) Set(r, c int, v T) { t.Data[r*t.Cols+c] = v }

// Clone deep-copies the tensor into fresh heap storage. Hot paths that own a
// destination copy into it instead.
func (t *TensorOf[T]) Clone() *TensorOf[T] {
	out := NewTensorOf[T](t.Rows, t.Cols)
	copy(out.Data, t.Data)
	return out
}

// Randn fills the tensor with N(0, scale^2) samples (drawn in float64,
// rounded once to T).
func (t *TensorOf[T]) Randn(rng *rand.Rand, scale float64) *TensorOf[T] {
	for i := range t.Data {
		t.Data[i] = T(rng.NormFloat64() * scale)
	}
	return t
}

// SameShape reports whether two tensors have identical dimensions.
func (t *TensorOf[T]) SameShape(o *TensorOf[T]) bool { return t.Rows == o.Rows && t.Cols == o.Cols }

func (t *TensorOf[T]) shape() string { return fmt.Sprintf("%dx%d", t.Rows, t.Cols) }

// ValueOf is a node in the autodiff graph: a tensor plus (optionally) its
// gradient and the state its backward function needs. Backward functions are
// static (top-level) functions receiving the node, not closures — a closure
// per op is a heap allocation per op, which would defeat the arena.
type ValueOf[T Float] struct {
	Val  *TensorOf[T]
	Grad *TensorOf[T]

	tape    *TapeOf[T]
	isParam bool

	// Backward state. Which fields an op uses is up to its back function;
	// unused ones stay zero. Everything here is either arena-owned or
	// caller-owned and borrowed for the duration of one pass.
	back       func(v *ValueOf[T])
	src0       *ValueOf[T]
	src1       *ValueOf[T]
	src2       *ValueOf[T]
	srcs       []*ValueOf[T]    // variadic inputs (Concat)
	aux        *TensorOf[T]     // fused-op stash (LinearLeakyReLU's pre-activation)
	idx        []int            // row indices / segment ids
	sidx       segmentIndex     // cached segment index for segment-parallel backward
	edge       *edgeAttnArgs[T] // EdgeAttention's launch (operands, index, stashes)
	n          int              // op-specific int (nSeg, column, elemOp code, ...)
	s0, s1, s2 T                // op-specific scalars (slopes, clamp bounds, ...)
}

// Value is the float64 graph node.
type Value = ValueOf[float64]

// TapeOf records operations in creation order for reverse accumulation. All
// node storage is drawn from the tape's arena; Reset recycles it. The zero
// value is a forward-only (inference) tape, so a tape can be embedded by
// value in longer-lived state; gradient tapes come from NewTape/NewTapeOf.
type TapeOf[T Float] struct {
	nodes []*ValueOf[T]
	grad  bool
	arena arena[T]
}

// Tape is the float64 tape.
type Tape = TapeOf[float64]

// NewTape creates an empty float64 tape.
func NewTape() *Tape { return &Tape{grad: true} }

// NewTapeOf creates an empty tape of the given dtype.
func NewTapeOf[T Float]() *TapeOf[T] { return &TapeOf[T]{grad: true} }

// NewInferenceTape creates a forward-only float64 tape: no gradient buffers
// are allocated and Backward panics. Use for pure inference — it roughly
// halves allocation traffic, which dominates GNN forward cost on CPU.
func NewInferenceTape() *Tape { return &Tape{} }

// NewInferenceTapeOf creates a forward-only tape of the given dtype.
func NewInferenceTapeOf[T Float]() *TapeOf[T] { return &TapeOf[T]{} }

// Reset discards recorded operations and recycles every tensor, node and
// scratch slice of the previous pass back into the tape's arena (parameters
// keep their gradients only until ZeroGrad). All Values and tensors obtained
// from this tape since the previous Reset — including via Zeros/TensorFrom —
// are invalidated: the next pass reuses their storage. Prefer Reset over a
// fresh NewTape in loops; after one warm-up pass the steady state allocates
// nothing.
func (tp *TapeOf[T]) Reset() {
	tp.nodes = tp.nodes[:0]
	tp.arena.reset()
}

// NoGrad reports whether this is a forward-only (inference) tape.
func (tp *TapeOf[T]) NoGrad() bool { return !tp.grad }

// ArenaStats is a snapshot of the tape arena's recycling counters — the
// live view of the memory model of DESIGN.md §8. In steady state TensorAlloc
// stops growing while TensorReuse advances by the per-pass tensor count;
// training loops export the deltas as obs counters (DESIGN.md §9).
type ArenaStats struct {
	// TensorReuse counts tensor requests carved from already-retained chunks.
	TensorReuse uint64
	// TensorAlloc counts tensor requests that grew the arena by a heap chunk.
	TensorAlloc uint64
	// Resets counts arena reset cycles (one per forward/backward pass).
	Resets uint64
}

// ArenaStats returns the tape's cumulative arena counters. Like the arena
// itself it is meant to be read from the goroutine that issues ops —
// typically between passes.
func (tp *TapeOf[T]) ArenaStats() ArenaStats {
	return ArenaStats{
		TensorReuse: tp.arena.reused,
		TensorAlloc: tp.arena.allocated,
		Resets:      tp.arena.resets,
	}
}

// Zeros returns a zeroed rows x cols tensor owned by the tape's arena. It is
// valid until the next Reset; use it for per-pass constants and feature
// staging instead of NewTensor.
func (tp *TapeOf[T]) Zeros(rows, cols int) *TensorOf[T] {
	return tp.arena.tensor(rows, cols)
}

// TensorFrom copies data into an arena-owned rows x cols tensor (valid until
// the next Reset). It is the recycling counterpart of FromSlice for callers
// that reuse their staging slice.
func (tp *TapeOf[T]) TensorFrom(rows, cols int, data []T) *TensorOf[T] {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("autodiff: %d values for %dx%d tensor", len(data), rows, cols))
	}
	t := tp.arena.tensor(rows, cols)
	copy(t.Data, data)
	return t
}

// TensorFromFloat64 stages float64 data (the repo's feature-vector dtype)
// into an arena-owned tensor of the tape's dtype, rounding each element
// once. For a float64 tape it is exactly TensorFrom.
func (tp *TapeOf[T]) TensorFromFloat64(rows, cols int, data []float64) *TensorOf[T] {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("autodiff: %d values for %dx%d tensor", len(data), rows, cols))
	}
	t := tp.arena.tensor(rows, cols)
	if dst, ok := any(t.Data).([]float64); ok {
		copy(dst, data)
		return t
	}
	for i, v := range data {
		t.Data[i] = T(v)
	}
	return t
}

// newNode allocates a node with a zeroed rows x cols result tensor from the
// arena, for ops that accumulate into their output. See newNodeStored for
// the rest.
func (tp *TapeOf[T]) newNode(rows, cols int, back func(*ValueOf[T])) *ValueOf[T] {
	v := tp.newNodeStored(rows, cols, back)
	clear(v.Val.Data)
	return v
}

// newNodeStored allocates a node for an op whose forward kernel stores every
// output element before any read: the result tensor comes from the arena
// uncleared (clearing is a large share of inference memory traffic). On
// gradient tapes the node also gets a zeroed gradient buffer — backward
// accumulates into it — and is recorded for reverse accumulation; on
// inference tapes back is dropped. Ops fill in their backward state fields
// after the call.
func (tp *TapeOf[T]) newNodeStored(rows, cols int, back func(*ValueOf[T])) *ValueOf[T] {
	v := tp.arena.value()
	v.Val = tp.arena.tensorRaw(rows, cols)
	v.tape = tp
	if tp.grad {
		v.Grad = tp.arena.tensor(rows, cols)
		v.back = back
		tp.nodes = append(tp.nodes, v)
	}
	return v
}

// Const wraps a tensor as a leaf with no gradient flow out of it.
func (tp *TapeOf[T]) Const(t *TensorOf[T]) *ValueOf[T] {
	v := tp.arena.value()
	v.Val = t
	v.tape = tp
	if tp.grad {
		v.Grad = tp.arena.tensor(t.Rows, t.Cols)
	}
	return v
}

// Param wraps a tensor as a trainable parameter. Parameters live across tape
// resets (their storage is never arena-owned); re-register them per forward
// pass via Watch.
func Param[T Float](t *TensorOf[T]) *ValueOf[T] {
	return &ValueOf[T]{Val: t, Grad: NewTensorOf[T](t.Rows, t.Cols), isParam: true}
}

// Watch marks a parameter's use in this forward pass. It checks the value is
// a parameter and writes nothing: parameters are shared by every tape that
// runs the model, concurrently for inference, and no op reads a
// parameter's tape.
func (tp *TapeOf[T]) Watch(p *ValueOf[T]) *ValueOf[T] {
	if !p.isParam {
		panic("autodiff: Watch on non-parameter")
	}
	return p
}

// Backward runs reverse accumulation from a scalar output (1x1 tensor).
func (tp *TapeOf[T]) Backward(out *ValueOf[T]) {
	if !tp.grad {
		panic("autodiff: Backward on an inference tape")
	}
	if out.Val.Rows != 1 || out.Val.Cols != 1 {
		panic("autodiff: Backward requires a scalar output")
	}
	out.Grad.Data[0] = 1
	for i := len(tp.nodes) - 1; i >= 0; i-- {
		n := tp.nodes[i]
		if n.back != nil {
			n.back(n)
		}
	}
}
