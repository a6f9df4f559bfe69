package sate

import (
	"bytes"
	"os"
	"runtime"
	"testing"
)

func testScenario(seed int64) *Scenario {
	return NewScenario(Iridium(), ScenarioConfig{
		Mode:              CrossShellLasers,
		Intensity:         8,
		Seed:              seed,
		MinElevDeg:        10,
		FlowDurationScale: 0.05, // steady-state load within the test horizon
		// keep the ground segment small for unit tests
		Users: 3000, UserClusters: 80, Gateways: 10, Relays: 5,
	})
}

func TestFacadeTrainAndSolve(t *testing.T) {
	scen := testScenario(1)
	model, err := Train(scen, TrainOptions{Samples: 2, Epochs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, _, m, err := scen.ProblemAt(300)
	if err != nil {
		t.Fatal(err)
	}
	if m.NonZeroPairs() == 0 {
		t.Skip("no traffic at evaluation instant")
	}
	a, err := model.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Check(a); v.Any(1e-6) {
		t.Fatalf("facade-trained model infeasible: %+v", v)
	}
}

func TestFacadeSolvers(t *testing.T) {
	scen := testScenario(2)
	p, _, _, err := scen.ProblemAt(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Flows) == 0 {
		t.Skip("no flows")
	}
	for name, solver := range Solvers() {
		a, err := solver.Solve(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v := p.Check(a); v.Any(1e-6) {
			t.Errorf("%s produced infeasible allocation: %+v", name, v)
		}
	}
}

func TestFacadeConstellations(t *testing.T) {
	if Starlink().Size() != 4236 {
		t.Error("Starlink size")
	}
	if Iridium().Size() != 66 {
		t.Error("Iridium size")
	}
	if MidSize1().Size() != 396 || MidSize2().Size() != 1584 {
		t.Error("mid-size constellations")
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("nope", false, 1); err == nil {
		t.Error("expected error for unknown experiment")
	}
	var ue *UnknownExperimentError
	if _, err := RunExperiment("nope", false, 1); err != nil {
		if e, ok := err.(*UnknownExperimentError); !ok || e.ID != "nope" {
			t.Errorf("wrong error type: %v", err)
		}
		_ = ue
	}
}

func TestRunExperimentSmoke(t *testing.T) {
	rep, err := RunExperiment("fig13", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "fig13" || len(rep.Rows) == 0 {
		t.Errorf("bad report: %+v", rep)
	}
}

func TestExperimentIDsNonEmpty(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 20 {
		t.Errorf("only %d experiments registered", len(ids))
	}
}

// TestRecipeReproducesBenchmarkModel: the facade's training recipe, run on
// the quickstart scenario with the quickstart's 4 samples × 30 epochs at
// seed 1, writes exactly the committed benchmark/model.gob — the model
// every benchmark workload solves with (go run ./benchmark -fit-model).
// The bytes were recorded on amd64; elsewhere the compiler may fuse a
// multiply-add and move a float, so the test runs on amd64 only.
func TestRecipeReproducesBenchmarkModel(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("benchmark/model.gob was recorded on amd64")
	}
	want, err := os.ReadFile("benchmark/model.gob")
	if err != nil {
		t.Fatal(err)
	}
	scen := NewScenario(Iridium(), ScenarioConfig{
		Mode: CrossShellLasers, Intensity: 8, Seed: 1, MinElevDeg: 10, FlowDurationScale: 0.05,
	})
	model, err := Train(scen, TrainOptions{Samples: 4, Epochs: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := model.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("recipe wrote %d bytes that differ from benchmark/model.gob (%d bytes)", got.Len(), len(want))
	}
}
