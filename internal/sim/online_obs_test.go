package sim

import (
	"math"
	"testing"

	"sate/internal/baselines"
	"sate/internal/obs"
	"sate/internal/topology"
)

func TestRouteChurnCounting(t *testing.T) {
	path := func(ids ...topology.NodeID) []topology.NodeID { return ids }
	a := &Cycle{perPair: map[uint64][]ratedPath{
		pairKey(1, 2): {{nodes: path(1, 3, 2), rate: 5}, {nodes: path(1, 4, 2), rate: 3}},
		pairKey(5, 6): {{nodes: path(5, 6), rate: 1}},
	}}
	// First install: every route counts.
	if got := routeChurn(nil, a); got != 3 {
		t.Fatalf("initial churn = %d, want 3", got)
	}
	// Identical recomputation with a rate change only: no churn.
	b := &Cycle{perPair: map[uint64][]ratedPath{
		pairKey(1, 2): {{nodes: path(1, 3, 2), rate: 7}, {nodes: path(1, 4, 2), rate: 1}},
		pairKey(5, 6): {{nodes: path(5, 6), rate: 2}},
	}}
	if got := routeChurn(a, b); got != 0 {
		t.Fatalf("rate-only churn = %d, want 0", got)
	}
	// One route swapped for another on (1,2), pair (5,6) dropped entirely:
	// 1 added + 1 removed + 1 removed.
	c := &Cycle{perPair: map[uint64][]ratedPath{
		pairKey(1, 2): {{nodes: path(1, 3, 2), rate: 5}, {nodes: path(1, 7, 2), rate: 3}},
	}}
	if got := routeChurn(b, c); got != 3 {
		t.Fatalf("swap churn = %d, want 3", got)
	}
	if got := routeChurn(c, nil); got != 0 {
		t.Fatalf("nil next churn = %d, want 0", got)
	}
}

func TestRunOnlineRecordsMetrics(t *testing.T) {
	s := toyScenario(50, 3)
	reg := obs.NewRegistry()
	res, err := s.RunOnline(baselines.ECMPWF{}, OnlineConfig{
		HorizonSec: 10, IntervalSec: 2, StepSec: 2, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sate_online_recomputes_total").Value(); got != uint64(res.Recomputations) {
		t.Fatalf("recomputes counter = %d, result says %d", got, res.Recomputations)
	}
	if got := reg.Counter("sate_online_route_churn_total").Value(); got != uint64(res.RouteChurn) {
		t.Fatalf("churn counter = %d, result says %d", got, res.RouteChurn)
	}
	if res.RouteChurn == 0 {
		t.Fatal("expected nonzero route churn (initial install counts)")
	}
	sat := reg.Gauge("sate_online_satisfied_ratio").Value()
	if sat < 0 || sat > 1 {
		t.Fatalf("satisfied gauge out of range: %v", sat)
	}
	// The gauge holds exactly the last step's value; require bitwise identity.
	if last := res.Satisfied[len(res.Satisfied)-1]; math.Float64bits(sat) != math.Float64bits(last) {
		t.Fatalf("gauge %v != last step satisfaction %v", sat, last)
	}
	// The allocator's per-solve histogram was fed through the option plumbing.
	if got := reg.HistogramVec("sate_solve_seconds", "solver", nil).With("ecmp-wf").Count(); got != uint64(res.Recomputations) {
		t.Fatalf("solve histogram count = %d, want %d", got, res.Recomputations)
	}
	if got := reg.SpanHistogram(obs.PhasePathPrecompute).Count(); got == 0 {
		t.Fatal("path-precompute span never recorded")
	}
}

func TestRunOnlineNilRegistryUnchanged(t *testing.T) {
	s1 := toyScenario(50, 3)
	s2 := toyScenario(50, 3)
	reg := obs.NewRegistry()
	cfg := OnlineConfig{HorizonSec: 10, IntervalSec: 2, StepSec: 2}
	plain, err := s1.RunOnline(baselines.ECMPWF{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Registry = reg
	instr, err := s2.RunOnline(baselines.ECMPWF{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Instrumentation must not perturb results at all — bitwise identity.
	if math.Float64bits(plain.SatisfiedMean) != math.Float64bits(instr.SatisfiedMean) ||
		plain.RouteChurn != instr.RouteChurn {
		t.Fatalf("instrumentation changed results: %+v vs %+v", plain, instr)
	}
}
