package core

import (
	"math"
	"testing"

	"sate/internal/autodiff"
	"sate/internal/baselines"
	"sate/internal/constellation"
	"sate/internal/groundnet"
	"sate/internal/orbit"
	"sate/internal/paths"
	"sate/internal/te"
	"sate/internal/topology"
	"sate/internal/traffic"
)

// buildScenario assembles a small TE problem from the full pipeline.
func buildScenario(tb testing.TB, tSec float64, intensity float64, seed int64) *te.Problem {
	tb.Helper()
	cons := constellation.Toy(5, 6)
	gen := topology.NewGenerator(cons, topology.DefaultConfig(topology.CrossShellLasers))
	snap := gen.Snapshot(tSec)
	grid := groundnet.SyntheticPopulation(1)
	seg := groundnet.Build(grid, groundnet.Config{
		Users: 2000, UserClusters: 60, Gateways: 8, Relays: 4, Gamma: 0.15, Seed: seed,
	})
	loc := groundnet.NewSatLocator(cons)
	loc.Update(snap.Pos[:snap.NumSats])
	tg := traffic.NewGenerator(seg, traffic.DefaultConfig(intensity, seed))
	tg.AdvanceTo(15 + tSec/100)
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

func TestBuildTEGraphInvariants(t *testing.T) {
	p := buildScenario(t, 0, 60, 3)
	g := BuildTEGraph(p)
	if g.NumSats != p.NumNodes {
		t.Errorf("sats = %d want %d", g.NumSats, p.NumNodes)
	}
	if g.NumTraffic != len(p.Flows) {
		t.Errorf("traffic nodes = %d want %d", g.NumTraffic, len(p.Flows))
	}
	if g.NumPaths != p.NumPaths() {
		t.Errorf("path nodes = %d want %d", g.NumPaths, p.NumPaths())
	}
	// R1 carries both directions of every link.
	if g.R1.Len() != 2*len(p.Links) {
		t.Errorf("R1 edges = %d want %d", g.R1.Len(), 2*len(p.Links))
	}
	// Feature arrays are aligned with relations.
	if len(g.R1Feat) != g.R1.Len() || len(g.R2Feat) != g.R2.Len() || len(g.R3Feat) != g.R3.Len() {
		t.Error("edge feature arrays misaligned")
	}
	// R3 has exactly one edge per path variable.
	if g.R3.Len() != g.NumPaths {
		t.Errorf("R3 edges = %d want %d", g.R3.Len(), g.NumPaths)
	}
	// Path node j is te's path variable j: VarFlow follows the flow-major
	// numbering, and the incidence pairs of variable j are that path's links.
	vars, links := p.Incidence()
	j, k := 0, 0
	for fi := range p.Flows {
		for pi := range p.Flows[fi].Paths {
			if g.VarFlow[j] != fi {
				t.Fatalf("VarFlow[%d] = %d, te numbers it in flow %d", j, g.VarFlow[j], fi)
			}
			for _, li := range p.PathLinks(fi, pi) {
				if vars[k] != j || links[k] != li {
					t.Fatalf("incidence pair %d = (%d, %d), want (%d, %d)", k, vars[k], links[k], j, li)
				}
				k++
			}
			j++
		}
	}
	if j != len(g.VarFlow) || k != len(vars) {
		t.Fatalf("walked %d variables and %d pairs, graph has %d, incidence %d", j, k, len(g.VarFlow), len(vars))
	}
	// R2 position features are in [0,1].
	for _, f := range g.R2Feat {
		if f < 0 || f > 1 {
			t.Fatalf("position feature %v out of range", f)
		}
	}
}

func TestGraphReductionCountsFewerRelations(t *testing.T) {
	p := buildScenario(t, 0, 60, 5)
	reduced, full := FullGraphRelations(p)
	if reduced >= full {
		t.Errorf("reduction did not reduce: %d vs %d", reduced, full)
	}
}

func TestModelSolveFeasible(t *testing.T) {
	p := buildScenario(t, 0, 60, 7)
	m := NewModel(DefaultConfig())
	a, err := m.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Check(a); v.Any(1e-6) {
		t.Fatalf("untrained model produced infeasible allocation after trim: %+v", v)
	}
	// Demand constraint holds by construction even before trimming.
	if a.Throughput() < 0 {
		t.Fatal("negative throughput")
	}
}

func TestModelDeterministicForSeed(t *testing.T) {
	p := buildScenario(t, 0, 40, 9)
	m1 := NewModel(DefaultConfig())
	m2 := NewModel(DefaultConfig())
	a1, _ := m1.Solve(p)
	a2, _ := m2.Solve(p)
	if math.Abs(a1.Throughput()-a2.Throughput()) > 1e-9 {
		t.Error("same seed, different outputs")
	}
	cfg := DefaultConfig()
	cfg.Seed = 99
	m3 := NewModel(cfg)
	a3, _ := m3.Solve(p)
	if math.Abs(a1.Throughput()-a3.Throughput()) < 1e-12 {
		t.Log("different seeds produced identical outputs (unlikely but possible)")
	}
}

func TestAllocationRespectsdemandByConstruction(t *testing.T) {
	p := buildScenario(t, 0, 80, 11)
	m := NewModel(DefaultConfig())
	g := BuildTEGraph(p)
	tp := autodiff.NewTape()
	x := m.Allocate(tp, g, p)
	// Per flow: sum over candidate paths <= demand (softmax*sigmoid mix).
	sums := make([]float64, len(p.Flows))
	for j, fi := range g.VarFlow {
		if x.Val.Data[j] < 0 {
			t.Fatal("negative raw allocation")
		}
		sums[fi] += x.Val.Data[j]
	}
	for fi, s := range sums {
		if s > p.Flows[fi].DemandMbps+1e-9 {
			t.Fatalf("flow %d raw allocation %v exceeds demand %v", fi, s, p.Flows[fi].DemandMbps)
		}
	}
}

func TestNewSampleAlignsLabels(t *testing.T) {
	p := buildScenario(t, 0, 50, 13)
	ref, err := (baselines.LPExact{}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSample(p, ref)
	if len(s.Labels) != s.Graph.NumPaths {
		t.Fatalf("labels = %d vars = %d", len(s.Labels), s.Graph.NumPaths)
	}
	var sum float64
	for _, l := range s.Labels {
		sum += l
	}
	if math.Abs(sum-ref.Throughput()) > 1e-6 {
		t.Errorf("label mass %v vs reference throughput %v", sum, ref.Throughput())
	}
}

func TestTrainingImprovesAllocation(t *testing.T) {
	// Build a few scenarios, label with the exact solver, train briefly, and
	// require the trained model to beat the untrained one on held-out data.
	var samples []*Sample
	for i, seed := range []int64{21, 22, 23} {
		p := buildScenario(t, float64(i)*50, 60, seed)
		ref, err := (baselines.LPExact{}).Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, NewSample(p, ref))
	}
	test := buildScenario(t, 400, 60, 77)
	refTest, err := (baselines.LPExact{}).Solve(test)
	if err != nil {
		t.Fatal(err)
	}
	opt := refTest.Throughput()

	m := NewModel(DefaultConfig())
	before, _ := m.Solve(test)

	cfg := DefaultTrainConfig()
	cfg.Epochs = 40
	res, err := Train(m, samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss >= res.Losses[0] {
		t.Errorf("loss did not decrease: %v -> %v", res.Losses[0], res.FinalLoss)
	}
	after, _ := m.Solve(test)
	if v := test.Check(after); v.Any(1e-6) {
		t.Fatalf("trained model infeasible: %+v", v)
	}
	t.Logf("throughput: before %.1f, after %.1f, optimal %.1f",
		before.Throughput(), after.Throughput(), opt)
	if after.Throughput() < before.Throughput() {
		t.Errorf("training made the model worse: %.1f -> %.1f",
			before.Throughput(), after.Throughput())
	}
	if after.Throughput() < 0.5*opt {
		t.Errorf("trained model too far from optimal: %.1f vs %.1f", after.Throughput(), opt)
	}
}

func TestTrainEmptyDataset(t *testing.T) {
	m := NewModel(DefaultConfig())
	if _, err := Train(m, nil, DefaultTrainConfig()); err == nil {
		t.Error("expected error on empty dataset")
	}
}

func TestLossPenalizesOverload(t *testing.T) {
	p := buildScenario(t, 0, 60, 31)
	ref, _ := (baselines.LPExact{}).Solve(p)
	s := NewSample(p, ref)

	// Compare loss of a feasible allocation vs a copy with overloads.
	mk := func(scale float64) float64 {
		tp := autodiff.NewTape()
		vals := make([]float64, s.Graph.NumPaths)
		for j := range vals {
			vals[j] = s.Labels[j] * scale
		}
		x := tp.Const(autodiff.FromSlice(s.Graph.NumPaths, 1, vals))
		return Loss(tp, s, x).Val.Data[0]
	}
	feasible := mk(1)
	overloaded := mk(20) // 20x the optimum blows past link capacities
	if overloaded <= feasible {
		t.Errorf("overload not penalised: %v <= %v", overloaded, feasible)
	}
}

// TestLossBits pins the mixed loss of Eq. (4)/(5) bit for bit on a fixed
// sample and a fixed (untrained) model: its value at the model's own
// allocation, at 20× the labels (past the α_max clamp), and the squared norm
// of the parameter gradient it back-propagates. Training's default recipe is
// supervised-only, so the training-bits digest never reaches this path.
func TestLossBits(t *testing.T) {
	p := buildScenario(t, 0, 60, 31)
	ref, err := (baselines.LPExact{}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSample(p, ref)
	m := NewModel(DefaultConfig())

	tp := autodiff.NewTape()
	l := Loss(tp, s, m.Allocate(tp, s.Graph, s.Problem))
	tp.Backward(l)
	var gradSq float64
	for _, q := range m.Params() {
		for _, g := range q.Grad.Data {
			gradSq += g * g
		}
	}

	vals := make([]float64, s.Graph.NumPaths)
	for j := range vals {
		vals[j] = s.Labels[j] * 20
	}
	tp2 := autodiff.NewTape()
	over := Loss(tp2, s, tp2.Const(autodiff.FromSlice(s.Graph.NumPaths, 1, vals)))

	for _, c := range []struct {
		name string
		got  float64
		want uint64
	}{
		{"loss at the model's allocation", l.Val.Data[0], 0x3fc5cd0e51cd35a0},
		{"loss at 20x the labels", over.Val.Data[0], 0x40580d3c39634ba3},
		{"squared gradient norm", gradSq, 0x3f9fb064688db2b9},
	} {
		if math.Float64bits(c.got) != c.want {
			t.Errorf("%s = %v (%#x), want %v (%#x)", c.name, c.got, math.Float64bits(c.got), math.Float64frombits(c.want), c.want)
		}
	}
}

func TestMeasureVolume(t *testing.T) {
	p := buildScenario(t, 0, 60, 41)
	v := MeasureVolume(p, 60, 10, 20)
	if v.TrafficOriginal != int64(60*60*8) {
		t.Errorf("traffic original = %d", v.TrafficOriginal)
	}
	if v.PathOriginal != int64(60*60*10*20*4) {
		t.Errorf("path original = %d", v.PathOriginal)
	}
	if v.TotalPruned() >= v.TotalOriginal() {
		t.Error("pruning did not reduce volume")
	}
	if v.Reduction() <= 1 {
		t.Errorf("reduction = %v", v.Reduction())
	}
}

func TestVolumeReductionGrowsWithScale(t *testing.T) {
	// The Table-1 trend: reduction factor grows with constellation size for
	// similar live demand.
	p := buildScenario(t, 0, 60, 43)
	small := MeasureVolume(p, 66, 10, 20)
	big := MeasureVolume(p, 4236, 10, 40)
	if big.Reduction() <= small.Reduction() {
		t.Errorf("reduction did not grow with scale: %v vs %v", big.Reduction(), small.Reduction())
	}
}

func TestModelEmptyProblem(t *testing.T) {
	p := &te.Problem{NumNodes: 5}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	m := NewModel(DefaultConfig())
	a, err := m.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput() != 0 {
		t.Error("empty problem should yield zero allocation")
	}
}

// TestNonFiniteGateLeavesScoresFinite: the score and gate columns of the
// decoder output are read independently. With every gate pre-activation at
// +Inf (a diverged output bias) the scores stay finite and the allocation is
// demand times the path softmax; extracting columns by multiplying with a
// selector computed score·1 + Inf·0 = NaN for every path.
func TestNonFiniteGateLeavesScoresFinite(t *testing.T) {
	p := buildScenario(t, 0, 60, 3)
	m := NewModel(DefaultConfig())
	m.decoder.SetOutputBias(1, math.Inf(1))
	for _, tp := range []*autodiff.Tape{autodiff.NewTape(), autodiff.NewInferenceTape()} {
		g := BuildTEGraph(p)
		scores, gates := m.Forward(tp, g)
		for j, s := range scores.Val.Data {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				t.Fatalf("score %d = %v beside an infinite gate", j, s)
			}
			if !math.IsInf(gates.Val.Data[j], 1) {
				t.Fatalf("gate %d = %v, want +Inf", j, gates.Val.Data[j])
			}
		}
		tp.Reset()
		for j, x := range m.Allocate(tp, g, p).Val.Data {
			if math.IsNaN(x) || x < 0 || x > p.Flows[g.VarFlow[j]].DemandMbps {
				t.Fatalf("path variable %d = %v of demand %v", j, x, p.Flows[g.VarFlow[j]].DemandMbps)
			}
		}
	}
}
