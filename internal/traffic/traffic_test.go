package traffic

import (
	"math"
	"testing"

	"sate/internal/constellation"
	"sate/internal/groundnet"
	"sate/internal/orbit"
)

func testSegment() *groundnet.Segment {
	grid := groundnet.SyntheticPopulation(1)
	return groundnet.Build(grid, groundnet.Config{
		Users: 5000, UserClusters: 120, Gateways: 15, Relays: 8, Gamma: 0.05, Seed: 9,
	})
}

func TestDefaultClassesMatchTable2(t *testing.T) {
	cls := DefaultClasses()
	if len(cls) != 3 {
		t.Fatalf("classes = %d", len(cls))
	}
	byName := map[string]Class{}
	for _, c := range cls {
		byName[c.Name] = c
	}
	v := byName["voice"]
	if v.DemandMbps != 0.064 || v.MinDurationSec != 60 || v.MaxDurationSec != 600 {
		t.Errorf("voice = %+v", v)
	}
	vid := byName["video"]
	if vid.DemandMbps != 8 || vid.MinDurationSec != 300 || vid.MaxDurationSec != 1800 {
		t.Errorf("video = %+v", vid)
	}
	f := byName["file"]
	if f.DemandMbps != 50 || f.MinDurationSec != 1560 || f.MaxDurationSec != 7800 {
		t.Errorf("file = %+v", f)
	}
	if !f.GatewayToUser || v.GatewayToUser || vid.GatewayToUser {
		t.Error("file transfer is gateway-to-user; voice/video are user-to-user")
	}
}

func TestPoissonSampleMean(t *testing.T) {
	g := NewGenerator(testSegment(), DefaultConfig(10, 42))
	for _, mean := range []float64{0.5, 5, 100} {
		var sum float64
		n := 3000
		for i := 0; i < n; i++ {
			sum += float64(poissonSample(g.rng, mean))
		}
		got := sum / float64(n)
		if math.Abs(got-mean) > 4*math.Sqrt(mean/float64(n))+0.05*mean {
			t.Errorf("mean %v: sample mean %v", mean, got)
		}
	}
	if poissonSample(g.rng, 0) != 0 {
		t.Error("Poisson(0) must be 0")
	}
	if poissonSample(g.rng, -1) != 0 {
		t.Error("negative mean must yield 0")
	}
}

func TestGeneratorArrivalRate(t *testing.T) {
	g := NewGenerator(testSegment(), DefaultConfig(50, 7))
	g.AdvanceTo(20) // expect ~1000 arrivals, few expirations (min duration 60 s)
	got := float64(g.ActiveCount())
	if got < 800 || got > 1200 {
		t.Errorf("active flows after 20 s at lambda=50: %v", got)
	}
}

func TestGeneratorFlowsExpire(t *testing.T) {
	cfg := DefaultConfig(5, 3)
	// One class with a tiny lifetime.
	cfg.Classes = []Class{{Name: "blip", DemandMbps: 1, MinDurationSec: 1, MaxDurationSec: 2, Weight: 1}}
	g := NewGenerator(testSegment(), cfg)
	g.AdvanceTo(10)
	active10 := g.ActiveCount()
	g.AdvanceTo(100)
	// All flows born before t=98 expired; only the last ~2 s of arrivals live.
	if g.ActiveCount() > 30 {
		t.Errorf("flows did not expire: %d active (was %d)", g.ActiveCount(), active10)
	}
	for _, f := range g.ActiveFlows() {
		if f.EndSec <= 100 {
			t.Fatal("expired flow still active")
		}
	}
}

// TestFarJumpDrawsOnlyLiveArrivals: a step of many flow lifetimes draws only
// the arrivals of its last lifetime, the ones that can still be alive, so a
// jump of 5e12 expected arrivals costs a handful of flows. A step shorter than
// farJump lifetimes draws every arrival (TestGeneratorFlowsExpire's 90 s).
func TestFarJumpDrawsOnlyLiveArrivals(t *testing.T) {
	cfg := DefaultConfig(5, 3)
	cfg.Classes = []Class{{Name: "blip", DemandMbps: 1, MinDurationSec: 1, MaxDurationSec: 2, Weight: 1}}
	g := NewGenerator(testSegment(), cfg)
	g.AdvanceTo(10)
	const far = 1e12
	g.AdvanceTo(far)
	if n := g.ActiveCount(); n == 0 || n > 30 {
		t.Errorf("%d flows alive after a far jump at lambda=5 with lifetimes <= 2 s", n)
	}
	for _, f := range g.ActiveFlows() {
		if f.StartSec < far-2 || f.EndSec <= far {
			t.Fatalf("flow [%v, %v] alive at %v", f.StartSec, f.EndSec, far)
		}
	}
	if g.nextID > 1000 {
		t.Errorf("far jump drew %d flows in all", g.nextID)
	}
}

func TestAdvanceToBackwardsNoop(t *testing.T) {
	g := NewGenerator(testSegment(), DefaultConfig(10, 1))
	g.AdvanceTo(5)
	n := g.ActiveCount()
	g.AdvanceTo(1) // ignored
	if g.nowSec != 5 || g.ActiveCount() != n {
		t.Error("backwards advance must be a no-op")
	}
}

func TestGatewayClassUsesGateways(t *testing.T) {
	cfg := DefaultConfig(20, 11)
	cfg.Classes = []Class{{Name: "file", DemandMbps: 50, MinDurationSec: 1000, MaxDurationSec: 2000, Weight: 1, GatewayToUser: true}}
	seg := testSegment()
	gwCells := map[int]bool{}
	for _, gw := range seg.Gateways {
		gwCells[gw.Cell] = true
	}
	g := NewGenerator(seg, cfg)
	g.AdvanceTo(10)
	if g.ActiveCount() == 0 {
		t.Fatal("no flows")
	}
	for _, f := range g.ActiveFlows() {
		if !gwCells[f.Src.Cell] {
			t.Fatal("gateway-to-user flow source is not a gateway site")
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := NewGenerator(testSegment(), DefaultConfig(30, 99))
	b := NewGenerator(testSegment(), DefaultConfig(30, 99))
	a.AdvanceTo(15)
	b.AdvanceTo(15)
	if a.ActiveCount() != b.ActiveCount() {
		t.Fatalf("determinism violated: %d vs %d", a.ActiveCount(), b.ActiveCount())
	}
	for id, f := range a.ActiveFlows() {
		g := b.ActiveFlows()[id]
		if g == nil || *g != cloneNoSlice(*f) && *f != cloneNoSlice(*g) {
			// compare field-wise (Flow has no slices, direct compare is fine)
			if g == nil || *g != *f {
				t.Fatalf("flow %d differs", id)
			}
		}
	}
}

func cloneNoSlice(f Flow) Flow { return f }

func TestBuildMatrixAggregates(t *testing.T) {
	cons := constellation.StarlinkPhase1()
	pos := cons.PositionsECEF(0, nil)
	loc := groundnet.NewSatLocator(cons)
	loc.Update(pos)

	seg := testSegment()
	g := NewGenerator(seg, DefaultConfig(100, 21))
	g.AdvanceTo(30)
	m := BuildMatrix(g.ActiveFlows(), loc, orbit.Deg(25), cons.Size())
	if m.NumSats != cons.Size() {
		t.Fatalf("numSats = %d", m.NumSats)
	}
	if len(m.Entries) == 0 {
		t.Fatal("empty matrix")
	}
	// Aggregation invariants.
	var flowSum float64
	seen := map[[2]constellation.SatID]bool{}
	for _, e := range m.Entries {
		if e.Src == e.Dst {
			t.Fatal("same-satellite entry must be dropped")
		}
		if e.DemandMbps <= 0 {
			t.Fatal("non-positive demand entry")
		}
		k := [2]constellation.SatID{e.Src, e.Dst}
		if seen[k] {
			t.Fatal("duplicate (src,dst) entry")
		}
		seen[k] = true
		flowSum += e.DemandMbps
		if len(e.Flows) == 0 {
			t.Fatal("entry without contributing flows")
		}
	}
	// Matrix must be sparse relative to N^2 (population is clustered).
	if m.DensityFraction() > 0.01 {
		t.Errorf("matrix density %.4f; expected sparse", m.DensityFraction())
	}
	if math.Abs(m.Total()-flowSum) > 1e-9 {
		t.Errorf("Total() = %v, sum = %v", m.Total(), flowSum)
	}
}

func TestMatrixDeterministicOrder(t *testing.T) {
	cons := constellation.MidSize1()
	pos := cons.PositionsECEF(0, nil)
	loc := groundnet.NewSatLocator(cons)
	loc.Update(pos)
	seg := testSegment()
	g := NewGenerator(seg, DefaultConfig(80, 5))
	g.AdvanceTo(20)
	m1 := BuildMatrix(g.ActiveFlows(), loc, orbit.Deg(25), cons.Size())
	m2 := BuildMatrix(g.ActiveFlows(), loc, orbit.Deg(25), cons.Size())
	if len(m1.Entries) != len(m2.Entries) {
		t.Fatal("nondeterministic entry count")
	}
	for i := range m1.Entries {
		if m1.Entries[i].Src != m2.Entries[i].Src || m1.Entries[i].Dst != m2.Entries[i].Dst {
			t.Fatal("nondeterministic entry order")
		}
	}
}

func TestIntensityScalesLoad(t *testing.T) {
	seg := testSegment()
	lo := NewGenerator(seg, DefaultConfig(20, 4))
	hi := NewGenerator(seg, DefaultConfig(200, 4))
	lo.AdvanceTo(30)
	hi.AdvanceTo(30)
	if hi.ActiveCount() < 5*lo.ActiveCount() {
		t.Errorf("intensity scaling weak: lo=%d hi=%d", lo.ActiveCount(), hi.ActiveCount())
	}
}

func TestMatrixConservationProperty(t *testing.T) {
	// Property: the matrix total equals the sum of demands of exactly the
	// flows it aggregated (every flow is either represented once or dropped
	// for lack of visibility / same-satellite endpoints).
	cons := constellation.MidSize1()
	pos := cons.PositionsECEF(0, nil)
	loc := groundnet.NewSatLocator(cons)
	loc.Update(pos)
	seg := testSegment()
	g := NewGenerator(seg, DefaultConfig(60, 29))
	g.AdvanceTo(25)
	m := BuildMatrix(g.ActiveFlows(), loc, orbit.Deg(10), cons.Size())
	counted := make(map[FlowID]bool)
	var sum float64
	for _, e := range m.Entries {
		for _, id := range e.Flows {
			if counted[id] {
				t.Fatalf("flow %d aggregated twice", id)
			}
			counted[id] = true
			f := g.ActiveFlows()[id]
			if f == nil {
				t.Fatalf("matrix references unknown flow %d", id)
			}
			sum += f.DemandMbps
		}
	}
	if math.Abs(sum-m.Total()) > 1e-9 {
		t.Errorf("matrix total %v != sum of aggregated flows %v", m.Total(), sum)
	}
	if len(counted) > g.ActiveCount() {
		t.Error("more aggregated flows than active")
	}
}
