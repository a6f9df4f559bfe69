package core

import (
	"math"
	"testing"

	"sate/internal/solve"
	"sate/internal/te"
)

func TestTrainMLUReducesLoss(t *testing.T) {
	p := buildScenario(t, 0, 80, 51)
	m := NewModel(DefaultConfig())
	losses, err := TrainMLU(m, []*te.Problem{p}, 15, 3e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != 15 {
		t.Fatalf("losses = %d", len(losses))
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Errorf("MLU loss did not decrease: %v -> %v", losses[0], losses[len(losses)-1])
	}
}

func TestSolveMLUFeasibleAndRoutesDemand(t *testing.T) {
	p := buildScenario(t, 0, 40, 53)
	m := NewModel(DefaultConfig())
	a, err := m.Solve(p, solve.WithObjective(solve.MLU))
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Check(a); v.Any(1e-6) {
		t.Fatalf("violations: %+v", v)
	}
	// At light load the MLU variant routes (nearly) all demand with paths
	// available: per-flow totals equal demand before trimming for flows with
	// candidate paths, so satisfied demand should be substantial.
	if p.SatisfiedDemand(a) < 0.3 {
		t.Errorf("MLU variant satisfied only %.2f at light load", p.SatisfiedDemand(a))
	}
}

func TestTrainMLUEmpty(t *testing.T) {
	m := NewModel(DefaultConfig())
	if _, err := TrainMLU(m, nil, 5, 1e-3); err == nil {
		t.Error("expected error on empty dataset")
	}
}

// TestTrainMLUSkipsEmptyProblems: a problem with no path variables trains
// nothing, so it neither dilutes the per-epoch mean nor counts as data.
func TestTrainMLUSkipsEmptyProblems(t *testing.T) {
	empty := &te.Problem{NumNodes: 5}
	if err := empty.Finalize(); err != nil {
		t.Fatal(err)
	}
	p := buildScenario(t, 0, 80, 51)
	want, err := TrainMLU(NewModel(DefaultConfig()), []*te.Problem{p}, 3, 3e-3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := TrainMLU(NewModel(DefaultConfig()), []*te.Problem{empty, p}, 3, 3e-3)
	if err != nil {
		t.Fatal(err)
	}
	for ep := range want {
		if math.Float64bits(got[ep]) != math.Float64bits(want[ep]) {
			t.Fatalf("epoch %d: loss %v with an empty problem beside, %v without", ep, got[ep], want[ep])
		}
	}
	if _, err := TrainMLU(NewModel(DefaultConfig()), []*te.Problem{empty}, 3, 3e-3); err == nil {
		t.Error("a set of empty problems trained without error")
	}
}

func TestAccessRelationAblationModel(t *testing.T) {
	p := buildScenario(t, 0, 60, 55)
	cfg := DefaultConfig()
	cfg.AccessRelation = true
	full := NewModel(cfg)
	reduced := NewModel(DefaultConfig())
	if full.NumParams() <= reduced.NumParams() {
		t.Error("access-relation model should have more parameters")
	}
	a, err := full.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Check(a); v.Any(1e-6) {
		t.Fatalf("violations: %+v", v)
	}
	g := BuildTEGraph(p)
	if g.Access.Len() != 2*len(p.Flows) {
		t.Errorf("access edges = %d want %d", g.Access.Len(), 2*len(p.Flows))
	}
}
