package core

import (
	"math"
	"testing"

	"sate/internal/baselines"
	"sate/internal/obs"
	"sate/internal/par"
	"sate/internal/solve"
)

// TestSolveObsAddsZeroAllocs verifies the redesign's zero-overhead claim
// (DESIGN.md §9): attaching an enabled registry to Model.Solve adds no heap
// allocation per call. The option slice is pre-built once, as the controller
// and online-eval hot loops do; recording itself is atomic ops plus
// lock-free-read map lookups on constant keys.
func TestSolveObsAddsZeroAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race runtime perturbs alloc accounting (see obs.RaceEnabled)")
	}
	p := buildScenario(t, 0, 60, 7)
	m := NewModel(DefaultConfig())
	defer par.SetWorkers(1)()

	baseline := testing.AllocsPerRun(5, func() {
		if _, err := m.Solve(p); err != nil {
			t.Fatal(err)
		}
	})

	reg := obs.NewRegistry()
	opts := []solve.Option{solve.WithRegistry(reg)}
	// Warm up: first instrumented call creates the metric entries.
	if _, err := m.Solve(p, opts...); err != nil {
		t.Fatal(err)
	}
	instrumented := testing.AllocsPerRun(5, func() {
		if _, err := m.Solve(p, opts...); err != nil {
			t.Fatal(err)
		}
	})

	if delta := instrumented - baseline; delta > 0 {
		t.Fatalf("enabled registry adds %v allocs/op to Solve (baseline %v, instrumented %v), want 0",
			delta, baseline, instrumented)
	}
	if got := solve.SolveHistogram(reg, "sate").Count(); got == 0 {
		t.Fatal("solve histogram recorded nothing")
	}
}

// TestTrainRecordsMetrics checks the training loop's registry wiring:
// per-epoch loss gauge, epoch counter, step latency and span histograms, and
// the tape-arena reuse counters that make §8's recycling observable.
func TestTrainRecordsMetrics(t *testing.T) {
	p := buildScenario(t, 0, 60, 7)
	ref, err := (baselines.LPExact{}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	samples := []*Sample{NewSample(p, ref)}
	m := NewModel(DefaultConfig())
	reg := obs.NewRegistry()
	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	cfg.Registry = reg
	if _, err := Train(m, samples, cfg); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sate_train_epochs_total").Value(); got != 3 {
		t.Fatalf("epochs_total = %d, want 3", got)
	}
	if got := reg.Histogram("sate_train_step_seconds", nil).Count(); got != 3 {
		t.Fatalf("step count = %d, want 3", got)
	}
	for _, phase := range []string{obs.PhaseForward, obs.PhaseBackward, obs.PhaseAdamStep} {
		if got := reg.SpanHistogram(phase).Count(); got != 3 {
			t.Fatalf("span %q count = %d, want 3", phase, got)
		}
	}
	// Epochs past the first reuse the tape arena.
	if got := reg.Counter("sate_tape_tensor_reuse_total").Value(); got == 0 {
		t.Fatal("tape reuse counter never moved")
	}
}

// TestTrainZeroFieldsTakeDefaults: each zero TrainConfig field takes its own
// default and the fields that are set stay — a config naming only a registry
// trains the default 30 epochs into that registry, and one naming only the
// epochs trains at the default learning rate and warm-up.
func TestTrainZeroFieldsTakeDefaults(t *testing.T) {
	p := buildScenario(t, 0, 60, 7)
	ref, err := (baselines.LPExact{}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	samples := []*Sample{NewSample(p, ref)}
	reg := obs.NewRegistry()
	if _, err := Train(NewModel(DefaultConfig()), samples, TrainConfig{Registry: reg}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sate_train_epochs_total").Value(); got != 30 {
		t.Fatalf("epochs recorded in the registry = %d, want 30", got)
	}
	want, err := Train(NewModel(DefaultConfig()), samples, TrainConfig{Epochs: 3, LR: 3e-3, WarmupFrac: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Train(NewModel(DefaultConfig()), samples, TrainConfig{Epochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	for ep := range want.Losses {
		if math.Float64bits(got.Losses[ep]) != math.Float64bits(want.Losses[ep]) {
			t.Fatalf("epoch %d: loss %v with LR and warm-up left zero, %v with them spelled out", ep, got.Losses[ep], want.Losses[ep])
		}
	}
}

// TestSolveMLUObjectiveRouting checks that the unified entry dispatches on
// the objective option: the MLU head routes full demand (no gating), so its
// allocation differs from the throughput head's, and it records under its
// own solver label.
func TestSolveMLUObjectiveRouting(t *testing.T) {
	p := buildScenario(t, 0, 60, 7)
	m := NewModel(DefaultConfig())
	reg := obs.NewRegistry()
	mlu, err := m.Solve(p, solve.WithObjective(solve.MLU), solve.WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	thr, err := m.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for fi := range mlu.X {
		for pi := range mlu.X[fi] {
			if math.Float64bits(mlu.X[fi][pi]) != math.Float64bits(thr.X[fi][pi]) {
				same = false
			}
		}
	}
	if same {
		t.Fatal("MLU objective returned the throughput head's allocation")
	}
	if got := solve.SolveHistogram(reg, "sate-mlu").Count(); got != 1 {
		t.Fatalf("sate-mlu histogram count = %d, want 1", got)
	}
}
