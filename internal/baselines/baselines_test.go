package baselines

import (
	"math"
	"testing"

	"sate/internal/constellation"
	"sate/internal/groundnet"
	"sate/internal/orbit"
	"sate/internal/paths"
	"sate/internal/solve"
	"sate/internal/te"
	"sate/internal/topology"
	"sate/internal/traffic"
)

// diamond: flow 0->3 over two 2-hop paths with caps 10 each -> optimum 20 at
// demand 30, or demand at low load.
func diamond(demand float64) *te.Problem {
	links := []topology.Link{
		topology.MakeLink(0, 1, topology.IntraOrbit),
		topology.MakeLink(1, 3, topology.IntraOrbit),
		topology.MakeLink(0, 2, topology.IntraOrbit),
		topology.MakeLink(2, 3, topology.IntraOrbit),
	}
	p := &te.Problem{
		NumNodes: 4,
		Links:    links,
		LinkCap:  []float64{10, 10, 10, 10},
		Flows: []te.FlowDemand{{
			Src: 0, Dst: 3, DemandMbps: demand,
			Paths: []paths.Path{paths.NewPath(0, 1, 3), paths.NewPath(0, 2, 3)},
		}},
	}
	if err := p.Finalize(); err != nil {
		panic(err)
	}
	return p
}

// scenario builds a realistic small problem from the full pipeline.
func scenario(tb testing.TB, intensity float64, seed int64) *te.Problem {
	tb.Helper()
	cons := constellation.Toy(5, 6)
	gen := topology.NewGenerator(cons, topology.DefaultConfig(topology.CrossShellLasers))
	snap := gen.Snapshot(0)
	grid := groundnet.SyntheticPopulation(1)
	seg := groundnet.Build(grid, groundnet.Config{
		Users: 2000, UserClusters: 60, Gateways: 8, Relays: 4, Gamma: 0.15, Seed: seed,
	})
	loc := groundnet.NewSatLocator(cons)
	loc.Update(snap.Pos[:snap.NumSats])
	tg := traffic.NewGenerator(seg, traffic.DefaultConfig(intensity, seed))
	tg.AdvanceTo(20)
	m := tg.Matrix(loc, orbit.Deg(5), cons.Size())
	if len(m.Entries) == 0 {
		tb.Fatal("no demand generated")
	}
	db := paths.NewDB(cons, snap, 4)
	p, err := te.Build(snap, m, db, te.DefaultBuildConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func TestLPExactDiamond(t *testing.T) {
	p := diamond(30)
	a, err := LPExact{}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Throughput(); math.Abs(got-20) > 1e-6 {
		t.Errorf("throughput = %v want 20 (both paths saturated)", got)
	}
	if v := p.Check(a); v.Any(1e-6) {
		t.Errorf("violations: %+v", v)
	}
	// Low demand: fully satisfied.
	p2 := diamond(5)
	a2, _ := LPExact{}.Solve(p2)
	if got := a2.Throughput(); math.Abs(got-5) > 1e-6 {
		t.Errorf("low-load throughput = %v want 5", got)
	}
}

func TestGKNearOptimal(t *testing.T) {
	for _, seed := range []int64{3, 11, 29} {
		p := scenario(t, 60, seed)
		exact, err := LPExact{}.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := GK{Epsilon: 0.05}.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if v := p.Check(approx); v.Any(1e-6) {
			t.Fatalf("GK infeasible: %+v", v)
		}
		opt := exact.Throughput()
		got := approx.Throughput()
		if opt <= 0 {
			t.Fatal("zero optimum")
		}
		if got < 0.85*opt {
			t.Errorf("seed %d: GK = %.1f vs exact %.1f (%.1f%%)", seed, got, opt, 100*got/opt)
		}
		if got > opt*(1+1e-6) {
			t.Errorf("seed %d: GK above optimum?! %v > %v", seed, got, opt)
		}
	}
}

func TestGKDiamondSplit(t *testing.T) {
	p := diamond(30)
	a, err := GK{Epsilon: 0.03}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Throughput(); got < 18 {
		t.Errorf("GK throughput = %v want ~20", got)
	}
}

func TestLPAutoDispatch(t *testing.T) {
	p := scenario(t, 40, 7)
	// Force GK path with a tiny dense budget.
	small := LPAuto{MaxDenseCells: 1}
	a1, err := small.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// Force simplex path.
	big := LPAuto{MaxDenseCells: 1 << 30}
	a2, err := big.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Throughput() > a2.Throughput()*(1+1e-6) {
		t.Errorf("approx beat exact: %v > %v", a1.Throughput(), a2.Throughput())
	}
	if a1.Throughput() < 0.7*a2.Throughput() {
		t.Errorf("GK too weak: %v vs %v", a1.Throughput(), a2.Throughput())
	}
	// Each branch hands its rows to the solver it picked: the allocation is
	// the direct solver's, bit for bit.
	for _, c := range []struct {
		name   string
		auto   *te.Allocation
		direct solve.Solver
	}{{"gk", a1, GK{Epsilon: 0.05}}, {"lp-exact", a2, LPExact{}}} {
		want, err := c.direct.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		for fi := range want.X {
			for pi, w := range want.X[fi] {
				if math.Float64bits(c.auto.X[fi][pi]) != math.Float64bits(w) {
					t.Fatalf("%s branch: x[%d][%d] = %v, direct solver %v", c.name, fi, pi, c.auto.X[fi][pi], w)
				}
			}
		}
	}
}

func TestPOP(t *testing.T) {
	p := scenario(t, 60, 13)
	pop := &POP{K: 4, Seed: 1}
	a, err := pop.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Check(a); v.Any(1e-6) {
		t.Fatalf("POP infeasible: %+v", v)
	}
	exact, _ := LPExact{}.Solve(p)
	if a.Throughput() > exact.Throughput()*(1+1e-6) {
		t.Error("POP above optimum")
	}
	// POP should be a reasonable fraction of optimal (paper: competitive).
	if a.Throughput() < 0.5*exact.Throughput() {
		t.Errorf("POP = %v vs exact %v", a.Throughput(), exact.Throughput())
	}
	if pop.MaxSubLatency <= 0 {
		t.Error("MaxSubLatency not recorded")
	}
}

func TestPOPSingleGroupMatchesInner(t *testing.T) {
	p := scenario(t, 60, 13)
	a, err := (&POP{K: 1, Seed: 1}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (LPAuto{}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// K=1 is one unscaled subproblem over every flow: the partition and the
	// 1/K capacity scaling both vanish, so the result must match the inner
	// solver up to the final feasibility trim's rounding.
	if len(a.X) != len(want.X) {
		t.Fatalf("row count %d vs %d", len(a.X), len(want.X))
	}
	for fi := range a.X {
		for pi := range a.X[fi] {
			if d := math.Abs(a.X[fi][pi] - want.X[fi][pi]); d > 1e-9 {
				t.Fatalf("flow %d path %d: %v vs inner %v", fi, pi, a.X[fi][pi], want.X[fi][pi])
			}
		}
	}
}

func TestPOPMoreGroupsThanFlows(t *testing.T) {
	p := scenario(t, 60, 13)
	k := len(p.Flows) * 3
	pop := &POP{K: k, Seed: 1}
	a, err := pop.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// Most groups are empty and every flow competes against capacities
	// scaled by 1/K; the result must stay feasible and, with K far above the
	// flow count, each flow is alone in its group — positive throughput.
	if v := p.Check(a); v.Any(1e-6) {
		t.Fatalf("POP K=%d infeasible: %+v", k, v)
	}
	if len(p.Flows) > 0 && a.Throughput() <= 0 {
		t.Fatalf("POP K=%d: zero throughput on a solvable instance", k)
	}
}

func TestECMPWF(t *testing.T) {
	p := scenario(t, 60, 17)
	a, err := ECMPWF{}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Check(a); v.Any(1e-6) {
		t.Fatalf("ECMP-WF infeasible: %+v", v)
	}
	exact, _ := LPExact{}.Solve(p)
	if a.Throughput() > exact.Throughput()*(1+1e-6) {
		t.Error("ECMP-WF above optimum")
	}
	if a.Throughput() <= 0 {
		t.Error("ECMP-WF allocated nothing")
	}
}

func TestECMPWFDiamondEqualSplit(t *testing.T) {
	p := diamond(12)
	a, err := ECMPWF{}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// Both paths have equal hops: traffic splits equally, 6 and 6.
	if math.Abs(a.X[0][0]-a.X[0][1]) > 1e-6 {
		t.Errorf("unequal split: %v", a.X[0])
	}
	if got := a.Throughput(); math.Abs(got-12) > 1e-6 {
		t.Errorf("throughput = %v want 12", got)
	}
}

func TestBackpressureDelivers(t *testing.T) {
	frac := Backpressure{}.Evaluate(diamond(10))
	if frac <= 0.3 || frac > 1 {
		t.Errorf("backpressure satisfied = %v", frac)
	}
}

func TestBackpressureWorseUnderLoad(t *testing.T) {
	light := Backpressure{}.Evaluate(diamond(5))
	heavy := Backpressure{}.Evaluate(diamond(200))
	if heavy > light+1e-9 {
		t.Errorf("backpressure better under overload: %v vs %v", heavy, light)
	}
	if heavy > 0.25 {
		t.Errorf("heavy overload should saturate: %v", heavy)
	}
}

func TestBackpressureEmptyProblem(t *testing.T) {
	p := &te.Problem{NumNodes: 2}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	if frac := (Backpressure{}).Evaluate(p); frac != 1 {
		t.Errorf("empty problem satisfied = %v want 1", frac)
	}
}

func TestSolversOrderingUnderLoad(t *testing.T) {
	// The quality ordering the paper reports offline: exact >= GK ~ POP >=
	// ECMP-WF (heuristics below optimal under load).
	p := scenario(t, 120, 23)
	exact, err := LPExact{}.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	gk, _ := GK{Epsilon: 0.05}.Solve(p)
	pop, _ := (&POP{K: 4, Seed: 2}).Solve(p)
	ecmp, _ := ECMPWF{}.Solve(p)
	o := exact.Throughput()
	for name, a := range map[string]*te.Allocation{"gk": gk, "pop": pop, "ecmp": ecmp} {
		if a.Throughput() > o*(1+1e-6) {
			t.Errorf("%s exceeded optimum: %v > %v", name, a.Throughput(), o)
		}
	}
}

func TestMaxMinFairFeasibleAndFairer(t *testing.T) {
	p := scenario(t, 120, 31)
	mm, err := (MaxMinFair{}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Check(mm); v.Any(1e-6) {
		t.Fatalf("max-min infeasible: %+v", v)
	}
	exact, err := (LPExact{}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if mm.Throughput() > exact.Throughput()*(1+1e-6) {
		t.Error("max-min above throughput optimum")
	}
	// The fairness-first allocation should not be less fair than the
	// throughput-maximizing one (Jain's index).
	jMM := p.JainIndex(mm)
	jLP := p.JainIndex(exact)
	if jMM < jLP-0.05 {
		t.Errorf("max-min less fair than LP: %.3f vs %.3f", jMM, jLP)
	}
	if mm.Throughput() <= 0 {
		t.Error("max-min allocated nothing")
	}
}

func TestMaxMinFairDiamond(t *testing.T) {
	p := diamond(8)
	a, err := (MaxMinFair{}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// Single flow under capacity: fully satisfied.
	if got := a.Throughput(); math.Abs(got-8) > 1e-6 {
		t.Errorf("throughput = %v want 8", got)
	}
}

func TestJainIndex(t *testing.T) {
	p := diamond(10)
	a, _ := (LPExact{}).Solve(p)
	if j := p.JainIndex(a); math.Abs(j-1) > 1e-9 {
		t.Errorf("single satisfied flow Jain = %v want 1", j)
	}
}
