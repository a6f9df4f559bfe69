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

func TestParallelLinearMatchesSerial(t *testing.T) {
	checkParallelMatchesSerial(t, "LinearLeakyReLU", func(tp *Tape, in []*Value) *Value {
		return tp.LinearLeakyReLU(in[0], in[1], in[2], 0.2)
	}, [2]int{130, 24}, [2]int{24, 40}, [2]int{1, 40})
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
	step := gatTapeStep(40, 40, 16, true)
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
