package traffic

import (
	"math"
	"reflect"
	"sort"
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
	for i, f := range a.ActiveFlows() {
		// Flow has no slices, direct compare is fine
		if g := b.ActiveFlows()[i]; g != f {
			t.Fatalf("flow %d differs", f.ID)
		}
	}
}

func TestBuildMatrixAggregates(t *testing.T) {
	cons := constellation.StarlinkPhase1()
	pos := cons.PositionsECEF(0, nil)
	loc := groundnet.NewSatLocator(cons)
	loc.Update(pos)

	seg := testSegment()
	g := NewGenerator(seg, DefaultConfig(100, 21))
	g.AdvanceTo(30)
	m := g.Matrix(loc, orbit.Deg(25), cons.Size())
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
	m1 := g.Matrix(loc, orbit.Deg(25), cons.Size())
	m2 := g.Matrix(loc, orbit.Deg(25), cons.Size())
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
	m := g.Matrix(loc, orbit.Deg(10), cons.Size())
	active := flowMap(g.ActiveFlows())
	counted := make(map[FlowID]bool)
	var sum float64
	for _, e := range m.Entries {
		for _, id := range e.Flows {
			if counted[id] {
				t.Fatalf("flow %d aggregated twice", id)
			}
			counted[id] = true
			f := active[id]
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

// flowMap indexes flows by ID, the shape the active set had before it was a
// slice in FlowID order.
func flowMap(flows []Flow) map[FlowID]*Flow {
	m := make(map[FlowID]*Flow, len(flows))
	for i := range flows {
		m[flows[i].ID] = &flows[i]
	}
	return m
}

// refBuildMatrix is the map-walking aggregation Generator.Matrix replaced,
// kept verbatim as its oracle: one locator query per flow endpoint, IDs
// collected from the map and sorted, pairs aggregated in a map.
func refBuildMatrix(flows map[FlowID]*Flow, loc *groundnet.SatLocator, minElevRad float64, numSats int) *Matrix {
	// Aggregate in FlowID order: float summation order must not depend on
	// map iteration, or the same scenario yields last-ulp-different demands
	// across runs (breaking the bitwise determinism contract downstream).
	ids := make([]FlowID, 0, len(flows))
	for id := range flows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	type key struct{ s, d constellation.SatID }
	agg := make(map[key]*Demand)
	for _, id := range ids {
		f := flows[id]
		s, ok1 := loc.NearestVisible(f.Src, minElevRad)
		d, ok2 := loc.NearestVisible(f.Dst, minElevRad)
		if !ok1 || !ok2 || s == d {
			continue
		}
		k := key{s, d}
		e := agg[k]
		if e == nil {
			e = &Demand{Src: s, Dst: d}
			agg[k] = e
		}
		e.DemandMbps += f.DemandMbps
		e.Flows = append(e.Flows, f.ID)
	}
	m := &Matrix{NumSats: numSats}
	m.Entries = make([]Demand, 0, len(agg))
	for _, e := range agg {
		m.Entries = append(m.Entries, *e)
	}
	sortDemands(m.Entries)
	return m
}

func sortDemands(ds []Demand) {
	// Deterministic order: by (src, dst).
	sort.Slice(ds, func(i, j int) bool { return demandLess(ds[i], ds[j]) })
}

func demandLess(a, b Demand) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Dst < b.Dst
}

// scenarioGenerator is the traffic of sim.NewScenario on cons: its default
// ground segment, the Table-2 classes with durations scaled by durScale.
func scenarioGenerator(cons *constellation.Constellation, intensity, durScale float64) *Generator {
	n := cons.Size()
	seg := groundnet.Build(groundnet.SyntheticPopulation(1), groundnet.Config{
		Users: 700 * n, UserClusters: min(2000, 20+n/2), Gateways: min(1000, 10+n/4), Relays: min(222, 10+n/20),
		Gamma: 0.05, Seed: 1,
	})
	cfg := DefaultConfig(intensity, 1)
	for i := range cfg.Classes {
		cfg.Classes[i].MinDurationSec *= durScale
		cfg.Classes[i].MaxDurationSec *= durScale
	}
	return NewGenerator(seg, cfg)
}

// requireMatrixMatchesRef checks the generator's matrix at t against the old
// spelling's: entry order, flow lists and demand bits (reflect.DeepEqual
// compares floats by value, so the demands are also compared by their bits).
func requireMatrixMatchesRef(t *testing.T, g *Generator, cons *constellation.Constellation, loc *groundnet.SatLocator, tSec, minElevRad float64) *Matrix {
	t.Helper()
	g.AdvanceTo(tSec)
	loc.Update(cons.PositionsECEF(tSec, nil))
	got := g.Matrix(loc, minElevRad, cons.Size())
	want := refBuildMatrix(flowMap(g.ActiveFlows()), loc, minElevRad, cons.Size())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("t=%v: matrix differs from the map-walking aggregation: %d entries, want %d", tSec, len(got.Entries), len(want.Entries))
	}
	for i := range got.Entries {
		if math.Float64bits(got.Entries[i].DemandMbps) != math.Float64bits(want.Entries[i].DemandMbps) {
			t.Fatalf("t=%v: entry %d demand %v, want %v", tSec, i, got.Entries[i].DemandMbps, want.Entries[i].DemandMbps)
		}
	}
	return got
}

// TestMatrixMatchesMapWalk: Generator.Matrix is the old map-walking
// aggregation to the bit, at every step of a 300-step Iridium run with a far
// jump in the middle, at a few Starlink Phase 1 steps, and with an
// elevation mask no site can meet.
func TestMatrixMatchesMapWalk(t *testing.T) {
	t.Run("iridium", func(t *testing.T) {
		cons := constellation.Iridium()
		g := scenarioGenerator(cons, 60, 0.05)
		loc := groundnet.NewSatLocator(cons)
		tSec, entries := 400.0, 0
		for step := 0; step < 300; step++ {
			if step == 150 {
				tSec += farJump*g.maxDur + 1000 // AdvanceTo draws only the last lifetime
			}
			entries += len(requireMatrixMatchesRef(t, g, cons, loc, tSec, orbit.Deg(10)).Entries)
			tSec++
		}
		if entries < 300*100 {
			t.Fatalf("%d entries over 300 steps: too few to tell", entries)
		}
	})
	t.Run("starlink", func(t *testing.T) {
		cons := constellation.StarlinkPhase1()
		g := scenarioGenerator(cons, 60, 0.05)
		loc := groundnet.NewSatLocator(cons)
		for _, tSec := range []float64{400, 401, 402.5, 460} {
			requireMatrixMatchesRef(t, g, cons, loc, tSec, orbit.Deg(25))
		}
	})
	t.Run("nothing-visible", func(t *testing.T) {
		cons := constellation.Iridium()
		g := scenarioGenerator(cons, 60, 0.05)
		loc := groundnet.NewSatLocator(cons)
		m := requireMatrixMatchesRef(t, g, cons, loc, 400, orbit.Deg(89.5))
		if g.ActiveCount() == 0 || len(m.Entries) >= g.ActiveCount()/10 {
			t.Fatalf("%d entries for %d flows at a 89.5° mask", len(m.Entries), g.ActiveCount())
		}
	})
}
