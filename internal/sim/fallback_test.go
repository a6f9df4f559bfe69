package sim

import (
	"math"
	"math/rand"
	"testing"

	"sate/internal/baselines"
	"sate/internal/paths"
	"sate/internal/te"
	"sate/internal/topology"
)

// TestPathValidKindAgnostic pins the invariant that freed pathValid from its
// fabricated-IntraOrbit hack: a configured path is valid whenever every hop
// has a live link, whatever LinkKind the live topology assigns to each hop.
func TestPathValidKindAgnostic(t *testing.T) {
	links := make(topology.LinkSet)
	links.Add(topology.MakeLink(0, 1, topology.IntraOrbit))
	links.Add(topology.MakeLink(1, 2, topology.InterOrbit))
	links.Add(topology.MakeLink(2, 3, topology.CrossShellLaser))
	links.Add(topology.MakeLink(3, 4, topology.GroundRelayLink))

	path := []topology.NodeID{0, 1, 2, 3, 4}
	if !pathValid(path, links) {
		t.Fatal("path over mixed-kind links must be valid")
	}
	if !pathValid([]topology.NodeID{4, 3, 2, 1, 0}, links) {
		t.Fatal("reversed path must be valid (links are undirected)")
	}
	// Fail one mid-path link: the path dies regardless of which kind the
	// hop had or which kind the membership probe uses.
	failed := make(topology.LinkSet)
	for k, l := range links {
		if l.A == 2 && l.B == 3 {
			continue
		}
		failed[k] = l
	}
	if pathValid(path, failed) {
		t.Fatal("path over a failed link must be invalid")
	}
	if pathValid([]topology.NodeID{2, 3}, failed) {
		t.Fatal("single failed hop must be invalid")
	}
	if !pathValid([]topology.NodeID{0, 1, 2}, failed) {
		t.Fatal("prefix avoiding the failed link must stay valid")
	}
}

// fourNodeProblem builds a line topology 0-1-2-3 with one flow 0->3 routed
// over the single path, demand 50 Mbps, link capacity 100 Mbps.
func fourNodeProblem(t *testing.T, kinds []topology.LinkKind) *te.Problem {
	t.Helper()
	p := &te.Problem{
		NumNodes: 4,
		Links: []topology.Link{
			topology.MakeLink(0, 1, kinds[0]),
			topology.MakeLink(1, 2, kinds[1]),
			topology.MakeLink(2, 3, kinds[2]),
		},
		LinkCap: []float64{100, 100, 100},
		Flows: []te.FlowDemand{{
			Src: 0, Dst: 3, DemandMbps: 50,
			Paths: []paths.Path{paths.NewPath(0, 1, 2, 3)},
		}},
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFallbackRescoresAgainstFailedTopology exercises the degraded-mode
// policy (Cycle.Satisfied, the one stale-allocation scorer) end to end on a hand-built problem: full delivery while the path
// survives (whatever link kinds the new topology reports), zero once a hop
// fails, demand-capped in between.
func TestFallbackRescoresAgainstFailedTopology(t *testing.T) {
	p0 := fourNodeProblem(t, []topology.LinkKind{
		topology.IntraOrbit, topology.IntraOrbit, topology.IntraOrbit,
	})
	a := te.NewAllocation(p0)
	a.X[0][0] = 50
	fb := &Cycle{Problem: p0, Alloc: a}

	// Same topology, different link kinds: kind must not matter.
	p1 := fourNodeProblem(t, []topology.LinkKind{
		topology.CrossShellLaser, topology.InterOrbit, topology.GroundRelayLink,
	})
	if got := fb.Satisfied(p1, p1.LinkSet()); math.Abs(got-1) > 1e-12 {
		t.Fatalf("surviving path scored %v, want 1", got)
	}

	// Demand doubled: the stale 50 Mbps covers half.
	p2 := fourNodeProblem(t, []topology.LinkKind{
		topology.IntraOrbit, topology.IntraOrbit, topology.IntraOrbit,
	})
	p2.Flows[0].DemandMbps = 100
	if got := fb.Satisfied(p2, p2.LinkSet()); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("doubled-demand score = %v, want 0.5", got)
	}

	// Mid-path link failed: the stale allocation delivers nothing.
	p3 := &te.Problem{
		NumNodes: 4,
		Links: []topology.Link{
			topology.MakeLink(0, 1, topology.IntraOrbit),
			topology.MakeLink(2, 3, topology.IntraOrbit),
		},
		LinkCap: []float64{100, 100},
		Flows: []te.FlowDemand{{
			Src: 0, Dst: 3, DemandMbps: 50,
			Paths: []paths.Path{paths.NewPath(0, 1, 2, 3)},
		}},
	}
	if err := p3.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := fb.Satisfied(p3, p3.LinkSet()); got != 0 {
		t.Fatalf("severed-path score = %v, want 0", got)
	}
}

// TestFallbackOnScenario checks the policy against real scenario problems:
// scoring the allocation against its own problem reproduces SatisfiedDemand,
// and scoring against a heavily failure-injected topology cannot improve it.
func TestFallbackOnScenario(t *testing.T) {
	s := toyScenario(60, 23)
	p0, snap, _, err := s.ProblemAt(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(p0.Flows) == 0 {
		t.Skip("no flows at t=10")
	}
	a, err := (baselines.ECMPWF{}).Solve(p0)
	if err != nil {
		t.Fatal(err)
	}
	fb := &Cycle{Snap: snap, Problem: p0, Alloc: a}
	self := fb.Satisfied(p0, snap.LinkSet())
	fresh := p0.SatisfiedDemand(a)
	if math.Abs(self-fresh) > 1e-9 {
		t.Fatalf("self-score %v != fresh satisfied %v", self, fresh)
	}
	pf, _, err := s.ProblemWithFailures(10, 0.3, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	failed := fb.Satisfied(pf, pf.LinkSet())
	// The degraded-mode re-score is bit for bit what the old Fallback gave.
	old := refNewActiveAlloc(p0, a)
	if want := old.refSatisfiedAgainst(pf, pf.LinkSet()); math.Float64bits(failed) != math.Float64bits(want) {
		t.Fatalf("re-score %v != reference Fallback value %v", failed, want)
	}
	if want := old.refSatisfiedAgainst(p0, snap.LinkSet()); math.Float64bits(self) != math.Float64bits(want) {
		t.Fatalf("self-score %v != reference Fallback value %v", self, want)
	}
	if failed > self+1e-9 {
		t.Fatalf("failure-injected score %v exceeds intact score %v", failed, self)
	}
	if failed < 0 || failed > 1 {
		t.Fatalf("score out of range: %v", failed)
	}
}
