package autodiff

import (
	"math"
	"math/rand"
	"testing"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTensorBasics(t *testing.T) {
	x := NewTensor(2, 3)
	x.Set(1, 2, 7)
	if x.At(1, 2) != 7 {
		t.Fatal("At/Set broken")
	}
	y := x.Clone()
	y.Set(0, 0, 1)
	if x.At(0, 0) != 0 {
		t.Fatal("clone aliases")
	}
	if !x.SameShape(y) {
		t.Fatal("same shape expected")
	}
	defer func() {
		if recover() == nil {
			t.Error("FromSlice with wrong length should panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestMatMulForward(t *testing.T) {
	tp := NewTape()
	a := tp.Const(FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6}))
	b := tp.Const(FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12}))
	c := tp.MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if !almost(c.Val.Data[i], w, 1e-12) {
			t.Errorf("c[%d] = %v want %v", i, c.Val.Data[i], w)
		}
	}
}

// checkGrad builds f on a fresh tape, backprops, and compares with numeric
// gradients for every parameter in ps.
func checkGrad(t *testing.T, ps []*Value, f func(tp *Tape) *Value) {
	t.Helper()
	run := func() float64 {
		tp := NewTape()
		for _, p := range ps {
			tp.Watch(p)
		}
		return f(tp).Val.Data[0]
	}
	// Analytic gradients.
	tp := NewTape()
	for _, p := range ps {
		clear(p.Grad.Data)
		tp.Watch(p)
	}
	out := f(tp)
	tp.Backward(out)
	for pi, p := range ps {
		analytic := p.Grad.Clone()
		if err := GradCheck(p, run, analytic, 1e-5, 20); err > 1e-4 {
			t.Errorf("param %d: max relative gradient error %v", pi, err)
		}
	}
}

func randParam(rng *rand.Rand, r, c int) *Value {
	return Param(NewTensor(r, c).Randn(rng, 0.5))
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randParam(rng, 3, 4)
	b := randParam(rng, 4, 2)
	checkGrad(t, []*Value{a, b}, func(tp *Tape) *Value {
		return tp.SumAll(tp.MatMul(a, b))
	})
}

func TestGradAddSubMulScale(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randParam(rng, 2, 3)
	b := randParam(rng, 2, 3)
	checkGrad(t, []*Value{a, b}, func(tp *Tape) *Value {
		x := tp.Add(a, b)
		y := tp.Sub(x, b)
		z := tp.Mul(y, x)
		return tp.SumAll(tp.Scale(z, 0.7))
	})
}

func TestGradNonlinearities(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randParam(rng, 3, 3)
	checkGrad(t, []*Value{a}, func(tp *Tape) *Value {
		x := tp.LeakyReLU(a, 0.2)
		y := tp.Sigmoid(x)
		w := tp.Exp(tp.Scale(y, 0.3))
		return tp.SumAll(w)
	})
}

func TestGradBroadcasts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randParam(rng, 4, 3)
	bias := randParam(rng, 1, 3)
	scale := randParam(rng, 4, 1)
	checkGrad(t, []*Value{a, bias, scale}, func(tp *Tape) *Value {
		x := tp.AddRowBroadcast(a, bias)
		y := tp.MulColBroadcast(x, scale)
		return tp.SumAll(tp.Mul(y, y))
	})
}

func TestGradConcatGatherScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randParam(rng, 4, 2)
	b := randParam(rng, 4, 3)
	idx := []int{0, 2, 2, 3, 1}
	checkGrad(t, []*Value{a, b}, func(tp *Tape) *Value {
		cat := tp.Concat(a, b) // 4x5
		g := tp.Gather(cat, idx)
		s := tp.ScatterAddRows(g, []int{0, 1, 1, 0, 2}, 3)
		return tp.SumAll(tp.Mul(s, s))
	})
}

// TestColMatchesSelectorMatMul: Col is the strided spelling of multiplying by
// a one-hot selector column — same output and same input gradient, bit for
// bit and at every worker count, for finite values (which is what keeps
// training bits where the selector spelling left them).
func TestColMatchesSelectorMatMul(t *testing.T) {
	for c := 0; c < 3; c++ {
		checkFusedMatchesComposed(t, "Col",
			func(tp *Tape, in []*Value) *Value { return tp.Col(in[0], c) },
			func(tp *Tape, in []*Value) *Value {
				sel := tp.Zeros(3, 1)
				sel.Set(c, 0, 1)
				return tp.MatMul(in[0], tp.Const(sel))
			},
			[2]int{70001, 3})
	}
}

// TestColIsolatesNonFiniteColumns: a non-finite entry stays in its own
// column, forward and backward.
func TestColIsolatesNonFiniteColumns(t *testing.T) {
	tp := NewTape()
	a := tp.Const(FromSlice(2, 2, []float64{1, math.Inf(1), 2, math.NaN()}))
	c0, c1 := tp.Col(a, 0), tp.Col(a, 1)
	if c0.Val.Data[0] != 1 || c0.Val.Data[1] != 2 {
		t.Fatalf("column 0 = %v beside a non-finite column 1", c0.Val.Data)
	}
	if !math.IsInf(c1.Val.Data[0], 1) || !math.IsNaN(c1.Val.Data[1]) {
		t.Fatalf("column 1 = %v, want [+Inf NaN]", c1.Val.Data)
	}
	tp.Backward(tp.SumAll(c0))
	if g := a.Grad.Data; g[0] != 1 || g[1] != 0 || g[2] != 1 || g[3] != 0 {
		t.Fatalf("gradient of sum(column 0) = %v, want [1 0 1 0]", g)
	}
}

func TestGradSegmentSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randParam(rng, 6, 1)
	seg := []int{0, 0, 1, 1, 1, 2}
	w := Param(NewTensor(6, 1).Randn(rng, 1))
	checkGrad(t, []*Value{a, w}, func(tp *Tape) *Value {
		sm := tp.SegmentSoftmax(a, seg, 3)
		return tp.SumAll(tp.Mul(sm, w))
	})
}

func TestSegmentSoftmaxSumsToOne(t *testing.T) {
	tp := NewTape()
	a := tp.Const(FromSlice(5, 1, []float64{3, -1, 100, 101, 99}))
	seg := []int{0, 0, 1, 1, 1}
	sm := tp.SegmentSoftmax(a, seg, 2)
	if s := sm.Val.Data[0] + sm.Val.Data[1]; !almost(s, 1, 1e-12) {
		t.Errorf("segment 0 sums to %v", s)
	}
	if s := sm.Val.Data[2] + sm.Val.Data[3] + sm.Val.Data[4]; !almost(s, 1, 1e-12) {
		t.Errorf("segment 1 sums to %v", s)
	}
	// Numerical stability at large magnitudes: no NaN.
	for _, v := range sm.Val.Data {
		if math.IsNaN(v) {
			t.Fatal("NaN in softmax")
		}
	}
}

func TestGradMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randParam(rng, 3, 4)
	tgt := NewTensor(3, 4).Randn(rng, 1)
	checkGrad(t, []*Value{a}, func(tp *Tape) *Value {
		return tp.MSE(a, tp.Const(tgt))
	})
}

func TestAdamConvergesQuadratic(t *testing.T) {
	// Minimize ||x - target||^2.
	rng := rand.New(rand.NewSource(8))
	x := Param(NewTensor(1, 5).Randn(rng, 1))
	target := FromSlice(1, 5, []float64{1, -2, 3, 0.5, -0.25})
	opt := NewAdam(0.05, x)
	var loss float64
	for i := 0; i < 500; i++ {
		tp := NewTape()
		tp.Watch(x)
		l := tp.MSE(x, tp.Const(target))
		opt.ZeroGrad()
		tp.Backward(l)
		opt.Step()
		loss = l.Val.Data[0]
	}
	if loss > 1e-4 {
		t.Errorf("Adam failed to converge: loss %v", loss)
	}
	for i := range target.Data {
		if !almost(x.Val.Data[i], target.Data[i], 0.01) {
			t.Errorf("x[%d] = %v want %v", i, x.Val.Data[i], target.Data[i])
		}
	}
}

func TestAdamGradClip(t *testing.T) {
	x := Param(FromSlice(1, 2, []float64{0, 0}))
	opt := NewAdam(0.1, x)
	opt.ClipNorm = 1
	x.Grad.Data[0] = 100
	x.Grad.Data[1] = 100
	if n := opt.GradNorm(); !almost(n, math.Sqrt(20000), 1e-9) {
		t.Errorf("grad norm %v", n)
	}
	opt.Step()
	// With clipping the first Adam step is bounded by ~lr.
	for _, v := range x.Val.Data {
		if math.Abs(v) > 0.11 {
			t.Errorf("step too large: %v", v)
		}
	}
}

func TestAdamLinearRegression(t *testing.T) {
	// Fit y = X w with Adam; checks MatMul gradients end to end.
	rng := rand.New(rand.NewSource(9))
	n, d := 40, 3
	X := NewTensor(n, d).Randn(rng, 1)
	trueW := FromSlice(d, 1, []float64{2, -1, 0.5})
	Y := NewTensor(n, 1)
	gemm(Y, X, trueW, false)
	w := Param(NewTensor(d, 1).Randn(rng, 0.1))
	opt := NewAdam(0.05, w)
	for i := 0; i < 800; i++ {
		tp := NewTape()
		tp.Watch(w)
		pred := tp.MatMul(tp.Const(X), w)
		loss := tp.MSE(pred, tp.Const(Y))
		opt.ZeroGrad()
		tp.Backward(loss)
		opt.Step()
	}
	for i := range trueW.Data {
		if !almost(w.Val.Data[i], trueW.Data[i], 0.02) {
			t.Errorf("w[%d] = %v want %v", i, w.Val.Data[i], trueW.Data[i])
		}
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	tp := NewTape()
	a := tp.Const(NewTensor(2, 2))
	defer func() {
		if recover() == nil {
			t.Error("Backward on non-scalar should panic")
		}
	}()
	tp.Backward(a)
}

func TestWatchNonParamPanics(t *testing.T) {
	tp := NewTape()
	v := tp.Const(NewTensor(1, 1))
	defer func() {
		if recover() == nil {
			t.Error("Watch on non-param should panic")
		}
	}()
	tp.Watch(v)
}

func TestGradMatMulT(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randParam(rng, 3, 4)
	b := randParam(rng, 5, 4)
	checkGrad(t, []*Value{a, b}, func(tp *Tape) *Value {
		return tp.SumAll(tp.Mul(tp.MatMulT(a, b), tp.MatMulT(a, b)))
	})
}

func TestMatMulTMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tp := NewTape()
	a := tp.Const(NewTensor(3, 4).Randn(rng, 1))
	bT := NewTensor(5, 4).Randn(rng, 1)
	// Build b = bT^T explicitly for the reference MatMul.
	b := NewTensor(4, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 4; j++ {
			b.Set(j, i, bT.At(i, j))
		}
	}
	ref := tp.MatMul(a, tp.Const(b))
	got := tp.MatMulT(a, tp.Const(bT))
	for i := range ref.Val.Data {
		if !almost(ref.Val.Data[i], got.Val.Data[i], 1e-12) {
			t.Fatalf("MatMulT mismatch at %d", i)
		}
	}
}

func TestGradRowSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randParam(rng, 3, 5)
	w := Param(NewTensor(3, 5).Randn(rng, 1))
	checkGrad(t, []*Value{a, w}, func(tp *Tape) *Value {
		return tp.SumAll(tp.Mul(tp.RowSoftmax(a), w))
	})
}

func TestRowSoftmaxRowsSumToOne(t *testing.T) {
	tp := NewTape()
	a := tp.Const(FromSlice(2, 3, []float64{1000, 1001, 999, -5, 0, 5}))
	sm := tp.RowSoftmax(a)
	for r := 0; r < 2; r++ {
		var s float64
		for c := 0; c < 3; c++ {
			v := sm.Val.At(r, c)
			if math.IsNaN(v) {
				t.Fatal("NaN in row softmax")
			}
			s += v
		}
		if !almost(s, 1, 1e-12) {
			t.Errorf("row %d sums to %v", r, s)
		}
	}
}

func TestGradSoftClamp(t *testing.T) {
	a := Param(FromSlice(1, 5, []float64{-10, -2, 0, 2, 10}))
	checkGrad(t, []*Value{a}, func(tp *Tape) *Value {
		sc := tp.SoftClamp(a, -4, 4, 0.05)
		return tp.SumAll(tp.Mul(sc, sc))
	})
}

func TestSoftClampValues(t *testing.T) {
	tp := NewTape()
	a := tp.Const(FromSlice(1, 3, []float64{-100, 0, 100}))
	sc := tp.SoftClamp(a, -4, 4, 0.05)
	want := []float64{-4 + 0.05*(-96), 0, 4 + 0.05*96}
	for i, w := range want {
		if !almost(sc.Val.Data[i], w, 1e-12) {
			t.Errorf("softclamp[%d] = %v want %v", i, sc.Val.Data[i], w)
		}
	}
}
