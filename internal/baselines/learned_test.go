package baselines

import (
	"testing"

	"sate/internal/autodiff"
	"sate/internal/constellation"
	"sate/internal/te"
	"sate/internal/topology"
)

// tealScenario builds a Teal model bound to the scenario's snapshot/paths.
func tealScenario(t *testing.T, p *te.Problem, snap *topology.Snapshot, memLimit int64) (*Teal, error) {
	t.Helper()
	pp := make(map[[2]topology.NodeID][][]topology.NodeID)
	for _, f := range p.Flows {
		var ps [][]topology.NodeID
		for _, path := range f.Paths {
			ps = append(ps, path.Nodes)
		}
		pp[[2]topology.NodeID{f.Src, f.Dst}] = ps
	}
	return NewTeal(snap, pp, 4, 16, memLimit, 1)
}

func scenarioWithSnap(t *testing.T, intensity float64, seed int64) (*te.Problem, *topology.Snapshot) {
	t.Helper()
	cons := constellation.Toy(5, 6)
	gen := topology.NewGenerator(cons, topology.DefaultConfig(topology.CrossShellLasers))
	snap := gen.Snapshot(0)
	p := scenario(t, intensity, seed)
	_ = cons
	return p, snap
}

func TestTealMemoryGate(t *testing.T) {
	p, snap := scenarioWithSnap(t, 50, 3)
	// Starlink-scale dense layout must be refused at a realistic limit.
	if _, err := tealScenario(t, p, snap, 1<<20); err == nil {
		t.Error("expected memory-gate error at 1 MiB limit")
	}
	// Generous limit builds fine.
	if _, err := tealScenario(t, p, snap, 1<<33); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
	// Volume formula mirrors N^2 growth.
	if TealDataPointBytes(4236, 10, 32) <= 1000*TealDataPointBytes(66, 10, 32)/2 {
		t.Error("dense volume should grow ~N^2")
	}
}

func TestTealSolveFeasibleAndTrains(t *testing.T) {
	p, snap := scenarioWithSnap(t, 60, 5)
	teal, err := tealScenario(t, p, snap, 1<<33)
	if err != nil {
		t.Fatal(err)
	}
	a, err := teal.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Check(a); v.Any(1e-6) {
		t.Fatalf("Teal infeasible: %+v", v)
	}
	ref, err := (LPExact{}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	opt := autodiff.NewAdam(5e-3, teal.Params()...)
	var first, last float64
	for i := 0; i < 30; i++ {
		l, err := teal.TrainStep(p, ref, opt)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = l
		}
		last = l
	}
	if last >= first {
		t.Errorf("Teal loss did not decrease: %v -> %v", first, last)
	}
}

func TestHarpSolveFeasible(t *testing.T) {
	p, _ := scenarioWithSnap(t, 60, 7)
	h := NewHarp(16, 1)
	a, err := h.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Check(a); v.Any(1e-6) {
		t.Fatalf("HARP infeasible: %+v", v)
	}
	if a.Throughput() <= 0 {
		t.Error("HARP allocated nothing")
	}
}

func TestHarpTrainingReducesMLU(t *testing.T) {
	p, _ := scenarioWithSnap(t, 80, 9)
	h := NewHarp(16, 2)
	opt := autodiff.NewAdam(3e-3, h.Params()...)
	opt.ClipNorm = 5
	var first, last float64
	for i := 0; i < 25; i++ {
		mlu, err := h.TrainStep(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = mlu
		}
		last = mlu
	}
	if last > first*1.05 {
		t.Errorf("HARP MLU did not improve: %v -> %v", first, last)
	}
}

func TestTealStalePathsDegrade(t *testing.T) {
	// Bind Teal to t=0 paths, then evaluate on a problem built much later:
	// some frozen paths no longer match and get no allocation.
	cons := constellation.Toy(5, 6)
	gen := topology.NewGenerator(cons, topology.DefaultConfig(topology.CrossShellLasers))
	snap0 := gen.Snapshot(0)
	p := scenario(t, 60, 13)
	teal, err := tealScenario(t, p, snap0, 1<<33)
	if err != nil {
		t.Fatal(err)
	}
	a, err := teal.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// Feasibility still guaranteed by trim.
	if v := p.Check(a); v.Any(1e-6) {
		t.Fatalf("infeasible: %+v", v)
	}
}
