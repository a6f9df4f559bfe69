package autodiff

import (
	"math/rand"
	"testing"

	"sate/internal/obs"
	"sate/internal/par"
)

// checkFusedMatchesComposed runs the fused kernel and its composition of
// primitive ops on identical inputs and requires bitwise-identical outputs
// and input gradients, at 1 worker and at several — fusion must not change a
// single bit of the model.
func checkFusedMatchesComposed(t *testing.T, name string, fused, composed func(tp *Tape, in []*Value) *Value, shapes ...[2]int) {
	t.Helper()
	for _, w := range []int{1, 3, 8} {
		restore := par.SetWorkers(w)
		fOut, fGrads := runOp(t, 7, fused, shapes...)
		cOut, cGrads := runOp(t, 7, composed, shapes...)
		restore()
		for i := range fOut {
			if fOut[i] != cOut[i] {
				t.Fatalf("%s workers=%d: fused output[%d] = %v, composed %v", name, w, i, fOut[i], cOut[i])
			}
		}
		for gi := range fGrads {
			for i := range fGrads[gi] {
				if fGrads[gi][i] != cGrads[gi][i] {
					t.Fatalf("%s workers=%d: fused grad[%d][%d] = %v, composed %v", name, w, gi, i, fGrads[gi][i], cGrads[gi][i])
				}
			}
		}
	}
}

func TestLinearMatchesComposed(t *testing.T) {
	checkFusedMatchesComposed(t, "Linear",
		func(tp *Tape, in []*Value) *Value {
			return tp.Linear(in[0], in[1], in[2])
		},
		func(tp *Tape, in []*Value) *Value {
			return tp.AddRowBroadcast(tp.MatMul(in[0], in[1]), in[2])
		},
		[2]int{57, 13}, [2]int{13, 19}, [2]int{1, 19})
}

func TestLinearLeakyReLUMatchesComposed(t *testing.T) {
	checkFusedMatchesComposed(t, "LinearLeakyReLU",
		func(tp *Tape, in []*Value) *Value {
			return tp.LinearLeakyReLU(in[0], in[1], in[2], 0.2)
		},
		func(tp *Tape, in []*Value) *Value {
			return tp.LeakyReLU(tp.AddRowBroadcast(tp.MatMul(in[0], in[1]), in[2]), 0.2)
		},
		[2]int{64, 24}, [2]int{24, 32}, [2]int{1, 32})
}

func TestGatherConcatMatchesComposed(t *testing.T) {
	const e, aRows, bRows = 150, 40, 35
	rng := rand.New(rand.NewSource(17))
	ai := make([]int, e)
	bi := make([]int, e)
	for i := range ai {
		ai[i] = rng.Intn(aRows)
		bi[i] = rng.Intn(bRows)
	}
	// b passed through directly (bi nil) — the GAT shape, where the source
	// part is gathered once outside and shared with the message path.
	checkFusedMatchesComposed(t, "GatherConcat/direct",
		func(tp *Tape, in []*Value) *Value {
			return tp.GatherConcat(in[0], ai, in[1], nil, in[2])
		},
		func(tp *Tape, in []*Value) *Value {
			return tp.Concat(tp.Gather(in[0], ai), in[1], in[2])
		},
		[2]int{aRows, 7}, [2]int{e, 7}, [2]int{e, 5})
	// b gathered too.
	checkFusedMatchesComposed(t, "GatherConcat/gathered",
		func(tp *Tape, in []*Value) *Value {
			return tp.GatherConcat(in[0], ai, in[1], bi, in[2])
		},
		func(tp *Tape, in []*Value) *Value {
			return tp.Concat(tp.Gather(in[0], ai), tp.Gather(in[1], bi), in[2])
		},
		[2]int{aRows, 7}, [2]int{bRows, 7}, [2]int{e, 5})
}

func TestSegmentAttentionMatchesComposed(t *testing.T) {
	const e, nSeg = 300, 23
	seg := make([]int, e)
	rng := rand.New(rand.NewSource(19))
	for i := range seg {
		seg[i] = rng.Intn(nSeg)
	}
	checkFusedMatchesComposed(t, "SegmentAttention",
		func(tp *Tape, in []*Value) *Value {
			return tp.SegmentAttention(in[0], in[1], seg, nSeg)
		},
		func(tp *Tape, in []*Value) *Value {
			alpha := tp.SegmentSoftmax(in[0], seg, nSeg)
			return tp.ScatterAddRows(tp.MulColBroadcast(in[1], alpha), seg, nSeg)
		},
		[2]int{e, 1}, [2]int{e, 9})
}

func TestParallelLinearMatchesSerial(t *testing.T) {
	checkParallelMatchesSerial(t, "LinearLeakyReLU", func(tp *Tape, in []*Value) *Value {
		return tp.LinearLeakyReLU(in[0], in[1], in[2], 0.2)
	}, [2]int{130, 24}, [2]int{24, 40}, [2]int{1, 40})
}

func TestParallelGatherConcatMatchesSerial(t *testing.T) {
	const e, aRows = 400, 60
	rng := rand.New(rand.NewSource(23))
	ai := make([]int, e)
	for i := range ai {
		ai[i] = rng.Intn(aRows)
	}
	checkParallelMatchesSerial(t, "GatherConcat", func(tp *Tape, in []*Value) *Value {
		return tp.GatherConcat(in[0], ai, in[1], nil, in[2])
	}, [2]int{aRows, 11}, [2]int{e, 11}, [2]int{e, 6})
}

func TestParallelSegmentAttentionMatchesSerial(t *testing.T) {
	const e, nSeg = 500, 37
	seg := make([]int, e)
	rng := rand.New(rand.NewSource(29))
	for i := range seg {
		seg[i] = rng.Intn(nSeg)
	}
	checkParallelMatchesSerial(t, "SegmentAttention", func(tp *Tape, in []*Value) *Value {
		return tp.SegmentAttention(in[0], in[1], seg, nSeg)
	}, [2]int{e, 1}, [2]int{e, 13})
}

// adamRun performs several Adam steps over two parameters (one large enough
// to split across blocks) with deterministic synthetic gradients and returns
// the final parameter data.
func adamRun(workers, steps int) [][]float64 {
	restore := par.SetWorkers(workers)
	defer restore()
	rng := rand.New(rand.NewSource(21))
	p1 := Param(NewTensor(300, 17).Randn(rng, 1)) // 5100 elems: 2 blocks
	p2 := Param(NewTensor(5, 3).Randn(rng, 1))
	opt := NewAdam(1e-2, p1, p2)
	opt.ClipNorm = 1
	grng := rand.New(rand.NewSource(33))
	for s := 0; s < steps; s++ {
		opt.ZeroGrad()
		for _, p := range []*Value{p1, p2} {
			for i := range p.Grad.Data {
				p.Grad.Data[i] = grng.NormFloat64()
			}
		}
		opt.Step()
	}
	return [][]float64{
		append([]float64(nil), p1.Val.Data...),
		append([]float64(nil), p2.Val.Data...),
	}
}

// TestAdamParallelMatchesSerial checks the block-parallel optimizer update
// is bitwise identical to the serial one (referenced from the Adam doc).
func TestAdamParallelMatchesSerial(t *testing.T) {
	serial := adamRun(1, 4)
	for _, w := range []int{2, 4, 8} {
		got := adamRun(w, 4)
		for pi := range serial {
			for i := range serial[pi] {
				if got[pi][i] != serial[pi][i] {
					t.Fatalf("workers=%d: param[%d][%d] = %v, serial %v", w, pi, i, got[pi][i], serial[pi][i])
				}
			}
		}
	}
}

// TestTapeReuseZeroAllocs verifies the tentpole claim: after warm-up, a full
// forward/backward/optimizer step on a reused tape performs zero heap
// allocations (serial path — parallel dispatch spawns goroutines). The pool
// metrics are enabled for the run: instrumentation must not cost an alloc.
func TestTapeReuseZeroAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race runtime perturbs alloc accounting (see obs.RaceEnabled)")
	}
	restore := par.SetWorkers(1)
	defer restore()
	par.Observe(obs.NewRegistry())
	defer par.Observe(nil)
	rng := rand.New(rand.NewSource(5))
	w1 := Param(NewTensor(13, 16).Randn(rng, 1))
	b1 := Param(NewTensor(1, 16))
	w2 := Param(NewTensor(48, 1).Randn(rng, 1))
	b2 := Param(NewTensor(1, 1))
	x := NewTensor(40, 13).Randn(rng, 1)
	seg := make([]int, 40)
	nbr := make([]int, 40)
	for i := range seg {
		seg[i] = i % 8
		nbr[i] = (7 * i) % 40
	}
	opt := NewAdam(1e-3, w1, b1, w2, b2)
	tp := NewTape()
	step := func() {
		tp.Reset()
		xin := tp.Const(tp.TensorFrom(40, 13, x.Data))
		h := tp.LinearLeakyReLU(xin, tp.Watch(w1), tp.Watch(b1), 0.2)
		score := tp.Linear(tp.GatherConcat(h, nbr, h, nil, h), tp.Watch(w2), tp.Watch(b2))
		agg := tp.SegmentAttention(score, h, seg, 8)
		loss := tp.MeanAll(tp.Mul(agg, agg))
		opt.ZeroGrad()
		tp.Backward(loss)
		opt.Step()
	}
	step()
	step() // warm the arena and free-lists
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Fatalf("steady-state step allocates %v objects/op, want 0", n)
	}
}

// TestTapeReuseMatchesFreshTape runs the same three-step toy optimisation
// once with a fresh tape per step and once with a single reused tape, and
// requires bitwise-identical losses and final parameters.
func TestTapeReuseMatchesFreshTape(t *testing.T) {
	run := func(reuse bool) ([]float64, []float64) {
		rng := rand.New(rand.NewSource(9))
		w1 := Param(NewTensor(11, 8).Randn(rng, 1))
		b1 := Param(NewTensor(1, 8))
		w2 := Param(NewTensor(8, 1).Randn(rng, 1))
		x := NewTensor(30, 11).Randn(rng, 1)
		opt := NewAdam(1e-2, w1, b1, w2)
		var losses []float64
		tp := NewTape()
		for s := 0; s < 4; s++ {
			if reuse {
				tp.Reset()
			} else {
				tp = NewTape()
			}
			h := tp.LinearLeakyReLU(tp.Const(tp.TensorFrom(30, 11, x.Data)), tp.Watch(w1), tp.Watch(b1), 0.2)
			y := tp.MatMul(h, tp.Watch(w2))
			loss := tp.MeanAll(tp.Mul(y, y))
			opt.ZeroGrad()
			tp.Backward(loss)
			opt.Step()
			losses = append(losses, loss.Val.Data[0])
		}
		return losses, append([]float64(nil), w1.Val.Data...)
	}
	fLoss, fW := run(false)
	rLoss, rW := run(true)
	for i := range fLoss {
		if fLoss[i] != rLoss[i] {
			t.Fatalf("step %d: reused-tape loss %v, fresh-tape %v", i, rLoss[i], fLoss[i])
		}
	}
	for i := range fW {
		if fW[i] != rW[i] {
			t.Fatalf("param[%d]: reused %v, fresh %v", i, rW[i], fW[i])
		}
	}
}
