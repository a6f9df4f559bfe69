package core

import (
	"testing"

	"sate/internal/autodiff"
	"sate/internal/baselines"
	"sate/internal/constellation"
	"sate/internal/groundnet"
	"sate/internal/orbit"
	"sate/internal/par"
	"sate/internal/paths"
	"sate/internal/te"
	"sate/internal/topology"
	"sate/internal/traffic"
)

// buildScenario60 assembles a TE problem on the 60-satellite toy
// constellation for the tape-reuse equivalence tests.
func buildScenario60(tb testing.TB) *te.Problem {
	tb.Helper()
	cons := constellation.Toy(6, 10)
	gen := topology.NewGenerator(cons, topology.DefaultConfig(topology.CrossShellLasers))
	snap := gen.Snapshot(0)
	grid := groundnet.SyntheticPopulation(1)
	seg := groundnet.Build(grid, groundnet.Config{
		Users: 2000, UserClusters: 60, Gateways: 8, Relays: 4, Gamma: 0.15, Seed: 3,
	})
	loc := groundnet.NewSatLocator(cons)
	loc.Update(snap.Pos[:snap.NumSats])
	tg := traffic.NewGenerator(seg, traffic.DefaultConfig(60, 3))
	tg.AdvanceTo(15)
	m := tg.Matrix(loc, orbit.Deg(5), cons.Size())
	if len(m.Entries) == 0 {
		tb.Skip("no demand generated")
	}
	db := paths.NewDB(cons, snap, 4)
	p, err := te.Build(snap, m, db, te.DefaultBuildConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// runTrainSteps performs three supervised training steps (the Train loop
// body) with either a fresh tape per step or one reused tape, returning the
// per-step losses and the flattened final parameters.
func runTrainSteps(t *testing.T, reuse bool, workers int) ([]float64, []float64) {
	t.Helper()
	restore := par.SetWorkers(workers)
	defer restore()
	p := buildScenario60(t)
	ref, err := (baselines.ECMPWF{}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.EmbedDim = 16
	cfg.Seed = 7
	m := NewModel(cfg)
	s := NewSample(p, ref)
	opt := autodiff.NewAdam(3e-3, m.Params()...)
	opt.ClipNorm = 5
	var losses []float64
	tp := autodiff.NewTape()
	for step := 0; step < 3; step++ {
		if reuse {
			tp.Reset()
		} else {
			tp = autodiff.NewTape()
		}
		x := m.Allocate(tp, s.Graph, s.Problem)
		l := SupervisedLoss(tp, s, x)
		opt.ZeroGrad()
		tp.Backward(l)
		opt.Step()
		losses = append(losses, l.Val.Data[0])
	}
	var flat []float64
	for _, pv := range m.Params() {
		flat = append(flat, pv.Val.Data...)
	}
	return losses, flat
}

// TestTapeReuseMatchesFreshTapeTraining is the end-to-end arena contract:
// recycling one tape across training steps must be bitwise identical to a
// fresh tape per step — losses and all parameters — at one worker and at
// several.
func TestTapeReuseMatchesFreshTapeTraining(t *testing.T) {
	for _, w := range []int{1, 4} {
		fLoss, fParams := runTrainSteps(t, false, w)
		rLoss, rParams := runTrainSteps(t, true, w)
		for i := range fLoss {
			if rLoss[i] != fLoss[i] {
				t.Fatalf("workers=%d step %d: reused-tape loss %v, fresh-tape %v", w, i, rLoss[i], fLoss[i])
			}
		}
		if len(rParams) != len(fParams) {
			t.Fatalf("workers=%d: param count mismatch", w)
		}
		for i := range fParams {
			if rParams[i] != fParams[i] {
				t.Fatalf("workers=%d: param[%d] = %v reused, %v fresh", w, i, rParams[i], fParams[i])
			}
		}
	}
}

// TestSolvePooledTapeMatchesFresh checks that the pooled inference tape in
// Model.Solve returns the same allocation when a warm tape is recycled.
func TestSolvePooledTapeMatchesFresh(t *testing.T) {
	p := buildScenario60(t)
	cfg := DefaultConfig()
	cfg.EmbedDim = 16
	cfg.Seed = 7
	m := NewModel(cfg)
	first, err := m.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// Second solve reuses the pooled tape; must be bitwise identical.
	second, err := m.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	for fi := range first.X {
		for pi := range first.X[fi] {
			if first.X[fi][pi] != second.X[fi][pi] {
				t.Fatalf("flow %d path %d: warm solve %v, cold solve %v", fi, pi, second.X[fi][pi], first.X[fi][pi])
			}
		}
	}
}
