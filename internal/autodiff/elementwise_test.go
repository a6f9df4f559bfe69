package autodiff

import (
	"math"
	"testing"

	"sate/internal/obs"
	"sate/internal/par"
)

// elemRef is one elementwise op and its per-element scalar reference. issue
// runs the op on a tape; fwd is the output for operands x, y; backA and backB
// return an operand's gradient accumulator after the op's backward added its
// share for output gradient g (o is the forward output, which Sigmoid and
// Exp read back). Unary ops have no backB.
type elemRef[T Float] struct {
	name         string
	issue        func(tp *TapeOf[T], a, b *ValueOf[T], s [3]T) *ValueOf[T]
	fwd          func(x, y T, s [3]T) T
	backA, backB func(acc, g, x, y, o T, s [3]T) T
}

func elemRefs[T Float]() []elemRef[T] {
	exp := func(x T) T { return T(math.Exp(float64(x))) }
	accG := func(acc, g, _, _, _ T, _ [3]T) T { return acc + g }
	return []elemRef[T]{
		{name: "Add",
			issue: func(tp *TapeOf[T], a, b *ValueOf[T], _ [3]T) *ValueOf[T] { return tp.Add(a, b) },
			fwd:   func(x, y T, _ [3]T) T { return x + y },
			backA: accG, backB: accG},
		{name: "Sub",
			issue: func(tp *TapeOf[T], a, b *ValueOf[T], _ [3]T) *ValueOf[T] { return tp.Sub(a, b) },
			fwd:   func(x, y T, _ [3]T) T { return x - y },
			backA: accG,
			backB: func(acc, g, _, _, _ T, _ [3]T) T { return acc - g }},
		{name: "Mul",
			issue: func(tp *TapeOf[T], a, b *ValueOf[T], _ [3]T) *ValueOf[T] { return tp.Mul(a, b) },
			fwd:   func(x, y T, _ [3]T) T { return x * y },
			backA: func(acc, g, _, y, _ T, _ [3]T) T { return acc + g*y },
			backB: func(acc, g, x, _, _ T, _ [3]T) T { return acc + g*x }},
		{name: "Scale",
			issue: func(tp *TapeOf[T], a, _ *ValueOf[T], s [3]T) *ValueOf[T] { return tp.Scale(a, s[0]) },
			fwd:   func(x, _ T, s [3]T) T { return x * s[0] },
			backA: func(acc, g, _, _, _ T, s [3]T) T { return acc + g*s[0] }},
		{name: "LeakyReLU",
			issue: func(tp *TapeOf[T], a, _ *ValueOf[T], s [3]T) *ValueOf[T] { return tp.LeakyReLU(a, s[0]) },
			fwd: func(x, _ T, s [3]T) T {
				if x >= 0 {
					return x
				}
				return s[0] * x
			},
			backA: func(acc, g, x, _, _ T, s [3]T) T {
				if x >= 0 {
					return acc + g
				}
				return acc + g*s[0]
			}},
		{name: "Sigmoid",
			issue: func(tp *TapeOf[T], a, _ *ValueOf[T], _ [3]T) *ValueOf[T] { return tp.Sigmoid(a) },
			fwd:   func(x, _ T, _ [3]T) T { return 1 / (1 + exp(-x)) },
			backA: func(acc, g, _, _, o T, _ [3]T) T { return acc + g*o*(1-o) }},
		{name: "Exp",
			issue: func(tp *TapeOf[T], a, _ *ValueOf[T], _ [3]T) *ValueOf[T] { return tp.Exp(a) },
			fwd:   func(x, _ T, _ [3]T) T { return exp(x) },
			backA: func(acc, g, _, _, o T, _ [3]T) T { return acc + g*o }},
		{name: "SoftClamp",
			issue: func(tp *TapeOf[T], a, _ *ValueOf[T], s [3]T) *ValueOf[T] { return tp.SoftClamp(a, s[0], s[1], s[2]) },
			fwd: func(x, _ T, s [3]T) T {
				c := T(math.Max(float64(s[0]), float64(T(math.Min(float64(s[1]), float64(x))))))
				return c + s[2]*(x-c)
			},
			backA: func(acc, g, x, _, _ T, s [3]T) T {
				if x < s[0] || x > s[1] {
					return acc + g*s[2]
				}
				return acc + g
			}},
	}
}

// elemCase is one decoded FuzzElementwise input: the operands, the output
// gradient, the operands' gradients before the backward, and the op scalars
// (Scale's factor, LeakyReLU's slope, SoftClamp's lo, hi and slope). alias
// issues a binary op on one value twice, as MSE's Mul(d, d) does, so both
// accumulations land in one gradient buffer in order.
type elemCase[T Float] struct {
	rows, cols      int
	a, b, g, ga, gb []T
	s               [3]T
	alias           bool
}

// FuzzElementwise decodes bytes into a shape and every operand, output
// gradient, prior operand gradient and op scalar as a float drawn from ±0,
// ±Inf, NaN, a coarse grid or raw bits, and requires each of the eight
// elementwise ops to match its scalar reference in both dtypes at workers
// {1, 2, 3, 8}: the output on inference and gradient tapes and every operand
// gradient, bit for bit (any NaN matches any NaN, as in sameBits). A quarter
// of the flag values grow the shape past the elementwise grain, so workers
// > 1 run two chunks. The seed corpus is testdata/fuzz/FuzzElementwise.
func FuzzElementwise(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzElementwise[float64](t, data)
		fuzzElementwise[float32](t, data)
	})
}

func fuzzElementwise[T Float](t *testing.T, data []byte) {
	pos := 0
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[pos%len(data)]
		pos++
		return int(b)
	}
	val := func() T {
		switch next() % 8 {
		case 0:
			return 0
		case 1:
			return T(math.Copysign(0, -1))
		case 2:
			return T(math.Inf(1))
		case 3:
			return T(math.Inf(-1))
		case 4:
			return T(math.NaN())
		case 5, 6:
			return T(int8(next())) / 16
		}
		var u uint64
		for range 8 {
			u = u<<8 | uint64(next())
		}
		if _, ok := any(T(0)).(float32); ok {
			return T(math.Float32frombits(uint32(u)))
		}
		return T(math.Float64frombits(u))
	}
	c := elemCase[T]{rows: 1 + next()%9, cols: 1 + next()%9}
	flags := next()
	if flags&5 == 5 {
		c.rows += (1<<15)/c.cols + 1 + next()%64
	}
	c.alias = flags&2 != 0
	n := c.rows * c.cols
	for _, p := range []*[]T{&c.a, &c.b, &c.g, &c.ga, &c.gb} {
		*p = make([]T, n)
		for i := range *p {
			(*p)[i] = val()
		}
	}
	for i := range c.s {
		c.s[i] = val()
	}
	inf, tp := NewInferenceTapeOf[T](), NewTapeOf[T]()
	for _, op := range elemRefs[T]() {
		want, wantA, wantB := c.reference(op)
		for _, w := range []int{1, 2, 3, 8} {
			restore := par.SetWorkers(w)
			inf.Reset()
			tp.Reset()
			c.check(t, op, w, inf, tp, want, wantA, wantB)
			restore()
		}
	}
}

// aliased reports whether op runs on one value twice: only binary ops can.
func (c *elemCase[T]) aliased(op elemRef[T]) bool { return c.alias && op.backB != nil }

// reference returns op's output and both operand gradients after its
// backward, element by element from the scalar reference. An aliased op
// accumulates a's share and then b's into one gradient (wantA).
func (c *elemCase[T]) reference(op elemRef[T]) (want, wantA, wantB []T) {
	alias := c.aliased(op)
	want = make([]T, len(c.a))
	wantA, wantB = append([]T(nil), c.ga...), append([]T(nil), c.gb...)
	for i, x := range c.a {
		y := c.b[i]
		if alias {
			y = x
		}
		want[i] = op.fwd(x, y, c.s)
		wantA[i] = op.backA(wantA[i], c.g[i], x, y, want[i], c.s)
		if alias {
			wantA[i] = op.backB(wantA[i], c.g[i], x, y, want[i], c.s)
		} else if op.backB != nil {
			wantB[i] = op.backB(wantB[i], c.g[i], x, y, want[i], c.s)
		}
	}
	return want, wantA, wantB
}

// check runs op on an inference tape and on a gradient tape (both reset)
// and compares the output and both operand gradients with the reference.
func (c *elemCase[T]) check(t *testing.T, op elemRef[T], w int, inf, tp *TapeOf[T], want, wantA, wantB []T) {
	t.Helper()
	alias := c.aliased(op)
	compare := func(what string, got, want []T) {
		t.Helper()
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s %dx%d workers=%d alias=%v s=%v: %s[%d] = %v, reference %v",
					op.name, c.rows, c.cols, w, alias, c.s, what, i, got[i], want[i])
			}
		}
	}

	ia, ib := inf.Const(FromSlice(c.rows, c.cols, c.a)), inf.Const(FromSlice(c.rows, c.cols, c.b))
	if alias {
		ib = ia
	}
	out := op.issue(inf, ia, ib, c.s)
	compare("inference output", out.Val.Data, want)

	a := tp.Const(FromSlice(c.rows, c.cols, c.a))
	copy(a.Grad.Data, c.ga)
	b := a
	if !alias {
		b = tp.Const(FromSlice(c.rows, c.cols, c.b))
		copy(b.Grad.Data, c.gb)
	}
	out = op.issue(tp, a, b, c.s)
	compare("output", out.Val.Data, want)
	copy(out.Grad.Data, c.g)
	for i := len(tp.nodes) - 1; i >= 0; i-- {
		tp.nodes[i].back(tp.nodes[i])
	}
	compare("dA", a.Grad.Data, wantA)
	if !alias {
		compare("dB", b.Grad.Data, wantB)
	}
}

// TestElementwiseZeroAllocs: a warm step that issues all eight elementwise
// ops allocates nothing, on an inference tape (forward) and on a gradient
// tape (forward and backward), at one and two workers. Every chunk and
// backward function the family hands to par.ForCtx or the tape must come
// from opTable: a generic function referenced by value costs one closure per
// op call.
func TestElementwiseZeroAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race runtime perturbs alloc accounting (see obs.RaceEnabled)")
	}
	x, y := NewTensor(64, 32), NewTensor(64, 32)
	for i := range x.Data {
		x.Data[i], y.Data[i] = float64(i%13)/4-1.5, float64(i%7)/8-0.4
	}
	for _, grad := range []bool{false, true} {
		for _, w := range []int{1, 2} {
			restore := par.SetWorkers(w)
			tp := NewInferenceTape()
			if grad {
				tp = NewTape()
			}
			step := func() {
				tp.Reset()
				a, b := tp.Const(x), tp.Const(y)
				h := tp.Mul(tp.Sub(tp.Add(a, b), b), tp.Scale(a, 0.5))
				h = tp.Add(tp.LeakyReLU(h, 0.2), tp.Sigmoid(tp.SoftClamp(b, -1, 1, 0.05)))
				out := tp.SumAll(tp.Exp(h))
				if grad {
					tp.Backward(out)
				}
			}
			step()
			step()
			n := testing.AllocsPerRun(20, step)
			restore()
			if n != 0 {
				t.Fatalf("grad=%v workers=%d: warm elementwise step allocates %v objects/op, want 0", grad, w, n)
			}
		}
	}
}
