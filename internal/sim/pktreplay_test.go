package sim

import (
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"sate/internal/baselines"
	"sate/internal/core"
	"sate/internal/pktsim"
	"sate/internal/shard"
)

// TestRunOnlinePacketReplay drives a short online run through the packet
// engine: every recompute cycle must contribute packets, the conservation
// identity must hold over the aggregate, and from the second cycle on the
// replay runs under a rule-update window (so stale-rule loss is at least
// representable, even if this toy scenario happens not to lose anything).
func TestRunOnlinePacketReplay(t *testing.T) {
	s := toyScenario(60, 17)
	res, err := s.RunOnline(baselines.ECMPWF{}, OnlineConfig{
		HorizonSec: 15, IntervalSec: 5, StepSec: 5,
		PacketReplay: &PacketReplay{
			Engine:      pktsim.Config{Seed: 11, HorizonSec: 0.25, MaxPackets: 200000},
			UpdateAtSec: 0.05,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ps := res.PacketStats
	if ps == nil {
		t.Fatal("PacketReplay set but PacketStats nil")
	}
	if res.Recomputations < 2 {
		t.Fatalf("only %d recomputes; the update-window path needs at least 2", res.Recomputations)
	}
	if ps.Injected == 0 || ps.Delivered == 0 {
		t.Fatalf("degenerate replay: %+v", ps)
	}
	if got := ps.Delivered + ps.Dropped(); got != ps.Injected {
		t.Fatalf("accounting: delivered %d + dropped %d != injected %d", ps.Delivered, ps.Dropped(), ps.Injected)
	}
	if len(ps.LatenciesSec) != ps.Delivered {
		t.Fatalf("%d latencies for %d deliveries", len(ps.LatenciesSec), ps.Delivered)
	}
	// Replay must not perturb the flow-level scoring path.
	if res.SatisfiedMean <= 0 {
		t.Fatal("flow-level satisfaction collapsed under packet replay")
	}
}

// TestOnlineRunIsAFunctionOfSpec runs the same online evaluation twice, each
// time on a fresh scenario and a fresh solver, and requires bit-identical
// results. Go randomizes map iteration order on every range, so any place
// where map order leaks into a float sum, an emitted order or a route choice
// (traffic aggregation, path selection, the shard boundary component ids, core's
// workspace pool, the packet engine) surfaces as two different answers. The
// config is TestRunOnlinePacketReplay's over a 20 s horizon: summing a
// traffic-matrix entry's demands in map order instead of FlowID order failed
// this test in 20 runs of 20, while 15 s caught it only about half the time.
func TestOnlineRunIsAFunctionOfSpec(t *testing.T) {
	solvers := map[string]func() Allocator{
		"ecmp-wf":  func() Allocator { return baselines.ECMPWF{} },
		"pop":      func() Allocator { return &baselines.POP{K: 4, Seed: 1} },
		"shard-gk": func() Allocator { return shard.New(baselines.GK{Epsilon: 0.05}, 4) },
		"shard-sate": func() Allocator {
			return shard.New(core.NewModel(core.DefaultConfig()), 4)
		},
	}
	run := func(al Allocator) *OnlineResult {
		res, err := toyScenario(60, 17).RunOnline(al, OnlineConfig{
			HorizonSec: 20, IntervalSec: 5, StepSec: 5,
			PacketReplay: &PacketReplay{
				Engine:      pktsim.Config{Seed: 11, HorizonSec: 0.25, MaxPackets: 200000},
				UpdateAtSec: 0.05,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, name := range slices.Sorted(maps.Keys(solvers)) {
		t.Run(name, func(t *testing.T) {
			a, b := run(solvers[name]()), run(solvers[name]())
			if len(a.Satisfied) != len(b.Satisfied) {
				t.Fatalf("%d vs %d scored steps", len(a.Satisfied), len(b.Satisfied))
			}
			for i := range a.Satisfied {
				if math.Float64bits(a.Satisfied[i]) != math.Float64bits(b.Satisfied[i]) {
					t.Errorf("step %d: satisfied %v vs %v", i, a.Satisfied[i], b.Satisfied[i])
				}
			}
			if a.RouteChurn != b.RouteChurn || a.Recomputations != b.Recomputations {
				t.Errorf("churn %d vs %d, recomputations %d vs %d",
					a.RouteChurn, b.RouteChurn, a.Recomputations, b.Recomputations)
			}
			if !reflect.DeepEqual(a.PacketStats, b.PacketStats) {
				t.Errorf("packet stats differ:\n%+v\n%+v", a.PacketStats, b.PacketStats)
			}
		})
	}
}

// TestRunOnlineWithoutReplayHasNoStats pins that the default path stays
// allocation-granular: no engine runs, no stats.
func TestRunOnlineWithoutReplayHasNoStats(t *testing.T) {
	s := toyScenario(60, 17)
	res, err := s.RunOnline(baselines.ECMPWF{}, OnlineConfig{HorizonSec: 5, IntervalSec: 5, StepSec: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketStats != nil {
		t.Fatal("PacketStats populated without PacketReplay")
	}
}
