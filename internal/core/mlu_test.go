package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"testing"

	"sate/internal/solve"
	"sate/internal/te"
)

// trainMLU trains m under the MLU objective on unlabelled samples of the
// problems and returns the per-epoch mean losses.
func trainMLU(m *Model, problems []*te.Problem, epochs int) ([]float64, error) {
	var samples []*Sample
	for _, p := range problems {
		samples = append(samples, NewSample(p, nil))
	}
	res, err := Train(m, samples, TrainConfig{Epochs: epochs, Objective: solve.MLU})
	if err != nil {
		return nil, err
	}
	return res.Losses, nil
}

func TestTrainMLUReducesLoss(t *testing.T) {
	p := buildScenario(t, 0, 80, 51)
	m := NewModel(DefaultConfig())
	losses, err := trainMLU(m, []*te.Problem{p}, 15)
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
	if _, err := trainMLU(m, nil, 5); err == nil {
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
	want, err := trainMLU(NewModel(DefaultConfig()), []*te.Problem{p}, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trainMLU(NewModel(DefaultConfig()), []*te.Problem{empty, p}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for ep := range want {
		if math.Float64bits(got[ep]) != math.Float64bits(want[ep]) {
			t.Fatalf("epoch %d: loss %v with an empty problem beside, %v without", ep, got[ep], want[ep])
		}
	}
	if _, err := trainMLU(NewModel(DefaultConfig()), []*te.Problem{empty}, 3); err == nil {
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

// TestTrainMLUBits pins MLU training bit for bit, as the MLU-only loop
// that Train absorbed trained it: the mean loss of each of 7
// epochs over two problems, and the SHA-256 of the weights it saves. The
// bits were recorded on amd64 (elsewhere the compiler may fuse a
// multiply-add), like the training-bits step of scripts/check.sh.
func TestTrainMLUBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("MLU training bits were recorded on amd64")
	}
	problems := []*te.Problem{buildScenario(t, 0, 80, 51), buildScenario(t, 200, 60, 57)}
	m := NewModel(DefaultConfig())
	losses, err := trainMLU(m, problems, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{
		0x425d8a4610781623, 0x4238a233b5c5050e, 0x42165b611b238075, 0x41f4b5c2e8dd14ff,
		0x41dc183bb6b7301f, 0x41c2a2d45e0f46c2, 0x41ad5284368d87ca,
	}
	if len(losses) != len(want) {
		t.Fatalf("%d epoch losses, want %d", len(losses), len(want))
	}
	for ep, l := range losses {
		if math.Float64bits(l) != want[ep] {
			t.Errorf("epoch %d: loss %v (%#x), want %v", ep, l, math.Float64bits(l), math.Float64frombits(want[ep]))
		}
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != "a7cb66e9820a5fcb665be802467fabf4f64f80d11af2008a97484af42fe8b312" {
		t.Errorf("saved weights hash to %s", got)
	}
}
