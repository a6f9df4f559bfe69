// External test package: internal/sim imports ruledist (the packet-replay
// adapter computes rule-arrival delays), and these tests build scenarios
// through sim — an in-package test file would close an import cycle.
package ruledist_test

import (
	"math"
	"testing"

	"sate/internal/baselines"
	"sate/internal/constellation"
	"sate/internal/orbit"
	"sate/internal/ruledist"
	"sate/internal/rules"
	"sate/internal/sim"
	"sate/internal/te"
	"sate/internal/topology"
)

func TestRuleDistributionDelays(t *testing.T) {
	cons := constellation.StarlinkPhase1()
	gen := topology.NewGenerator(cons, topology.DefaultConfig(topology.CrossShellLasers))
	snap := gen.Snapshot(0)
	delays := ruledist.RuleDistributionDelays(snap, ruledist.HoustonSite, orbit.Deg(25))
	st := ruledist.SummarizeDelays(delays)
	if st.Reachable < snap.NumSats*95/100 {
		t.Fatalf("only %d/%d satellites reachable", st.Reachable, snap.NumSats)
	}
	// Appendix D: delays range 2.3 ms .. 174 ms for Starlink. Allow slack but
	// require the same order of magnitude.
	if st.MinSec < 0.001 || st.MinSec > 0.02 {
		t.Errorf("min delay %v s, want ~2.3 ms", st.MinSec)
	}
	if st.MaxSec < 0.05 || st.MaxSec > 0.4 {
		t.Errorf("max delay %v s, want ~174 ms", st.MaxSec)
	}
	if st.MeanSec <= st.MinSec || st.MeanSec >= st.MaxSec {
		t.Errorf("mean %v outside (min,max)", st.MeanSec)
	}
}

// TestRuleDistributionStaysOnISLs pins the Appendix D constraint that rule
// pushes travel over ISLs only: a ground relay bridging two otherwise
// disconnected satellite clusters must NOT act as a bent-pipe shortcut for
// rule distribution. Before the fix, Dijkstra relaxed over every adjacency
// edge — including satellite–ground links — so the far cluster appeared
// reachable through the gateway.
func TestRuleDistributionStaysOnISLs(t *testing.T) {
	up := ruledist.HoustonSite.ECEF().Normalize()
	// An axis orthogonal to the site vertical, for placing the gateway off to
	// the side.
	east := orbit.Vec3{X: -up.Y, Y: up.X, Z: 0}.Normalize()
	alt := orbit.EarthRadiusKm + 550
	snap := &topology.Snapshot{
		NumSats:  4,
		NumNodes: 5, // node 4 is the ground relay (gateway)
		Pos: []orbit.Vec3{
			up.Scale(alt),                   // sat 0: overhead the control center
			up.Scale(alt + 60),              // sat 1: cluster A neighbour
			up.Scale(-alt),                  // sat 2: antipodal, below the horizon
			up.Scale(-(alt + 60)),           // sat 3: cluster B neighbour
			east.Scale(orbit.EarthRadiusKm), // node 4: the gateway, on the ground
		},
	}
	snap.Links = []topology.Link{
		topology.MakeLink(0, 1, topology.IntraOrbit),      // cluster A ISL
		topology.MakeLink(2, 3, topology.IntraOrbit),      // cluster B ISL
		topology.MakeLink(1, 4, topology.GroundRelayLink), // cluster A -> gateway
		topology.MakeLink(2, 4, topology.GroundRelayLink), // gateway -> cluster B
	}
	snap.Finalize()

	delays := ruledist.RuleDistributionDelays(snap, ruledist.HoustonSite, orbit.Deg(25))
	if len(delays) != 4 {
		t.Fatalf("got %d delays, want 4", len(delays))
	}
	for _, id := range []int{0, 1} {
		if math.IsInf(delays[id], 1) {
			t.Errorf("sat %d (visible cluster) unreachable", id)
		}
	}
	for _, id := range []int{2, 3} {
		if !math.IsInf(delays[id], 1) {
			t.Errorf("sat %d reachable with delay %v s: rule path shortcut through the gateway bent-pipe", id, delays[id])
		}
	}
}

func TestSummarizeDelaysEmpty(t *testing.T) {
	st := ruledist.SummarizeDelays([]float64{math.Inf(1)})
	if st.Reachable != 0 || st.MeanSec != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRuleCountAndOverhead(t *testing.T) {
	s := sim.NewScenario(constellation.Toy(5, 6), sim.ScenarioConfig{
		Mode:      topology.CrossShellLasers,
		Intensity: 60,
		Seed:      23,
		Users:     2000, UserClusters: 60, Gateways: 8, Relays: 4, MinElevDeg: 5,
	})
	p, _, _, err := s.ProblemAt(20)
	if err != nil {
		t.Fatal(err)
	}
	a, err := (baselines.ECMPWF{}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	rs := rules.Compile(p, a)
	if rs.NumRules() <= 0 {
		t.Fatal("no rules for a non-empty allocation")
	}
	// Appendix D: overhead must be a tiny fraction of interval capacity.
	frac := ruledist.RuleOverheadFraction(p, rs, 64, 1.0)
	if frac <= 0 || frac > 0.05 {
		t.Errorf("rule overhead fraction = %v; expected small positive", frac)
	}
	// Zero allocation compiles to zero rules.
	zero := te.NewAllocation(p)
	if n := rules.Compile(p, zero).NumRules(); n != 0 {
		t.Errorf("zero allocation has %d rules", n)
	}
}
