package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sate/internal/baselines"
	"sate/internal/constellation"
	"sate/internal/solve"
	"sate/internal/te"
	"sate/internal/topology"
)

func toyScenario(intensity float64, seed int64) *Scenario {
	return NewScenario(constellation.Toy(5, 6), ScenarioConfig{
		Mode:      topology.CrossShellLasers,
		Intensity: intensity,
		Seed:      seed,
		Users:     2000, UserClusters: 60, Gateways: 8, Relays: 4, MinElevDeg: 5,
	})
}

func TestProblemAtProducesDemand(t *testing.T) {
	s := toyScenario(50, 3)
	p, snap, m, err := s.ProblemAt(20)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || m == nil {
		t.Fatal("nil outputs")
	}
	if len(p.Flows) == 0 {
		t.Fatal("no flows at t=20 with lambda=50")
	}
	if p.NumNodes != snap.NumNodes {
		t.Error("node count mismatch")
	}
}

func TestPathDBIncrementalAcrossSteps(t *testing.T) {
	s := toyScenario(40, 5)
	if _, _, _, err := s.ProblemAt(0); err != nil {
		t.Fatal(err)
	}
	db := s.PathDB
	for _, tm := range []float64{10, 20, 30} {
		if _, _, _, err := s.ProblemAt(tm); err != nil {
			t.Fatal(err)
		}
	}
	if s.PathDB != db {
		t.Error("path DB was rebuilt instead of updated")
	}
}

func TestRunOfflineNearOptimalWithExactSolver(t *testing.T) {
	s := toyScenario(60, 7)
	// No flow has arrived yet at t=0: that instant is skipped, not scored.
	res, err := s.RunOffline(baselines.LPExact{}, 0, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recomputations != 3 || len(res.Satisfied) != 3 {
		t.Fatalf("res = %+v", res)
	}
	// Bit for bit the parent's hand-spelled loop on a twin scenario (which
	// also solved and scored the empty instant).
	ref, err := refRunOffline(toyScenario(60, 7), baselines.LPExact{}, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref.Satisfied, ref.Recomputations = ref.Satisfied[1:], ref.Recomputations-1
	ref.SatisfiedMean = (ref.Satisfied[0] + ref.Satisfied[1] + ref.Satisfied[2]) / 3
	sameOnlineResult(t, res, ref)
	if _, err := toyScenario(60, 7).RunOffline(baselines.LPExact{}, 0, 5, 1); err == nil {
		t.Fatal("a window without any traffic must be an error")
	}
	for _, v := range res.Satisfied {
		if v < 0 || v > 1 {
			t.Fatalf("satisfied out of range: %v", v)
		}
	}
	if res.MeanSolveLatency <= 0 {
		t.Error("latency not measured")
	}
}

func TestRunOnlineStaleAllocationHurts(t *testing.T) {
	// The same solver evaluated with a 1-second interval must do at least as
	// well as with a 60-second interval (stale allocations lose demand).
	fresh := toyScenario(80, 11)
	stale := toyScenario(80, 11)
	fast, err := fresh.RunOnline(baselines.ECMPWF{}, OnlineConfig{HorizonSec: 60, IntervalSec: 1, StepSec: 5})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := stale.RunOnline(baselines.ECMPWF{}, OnlineConfig{HorizonSec: 60, IntervalSec: 60, StepSec: 5})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Recomputations <= slow.Recomputations {
		t.Fatalf("interval not respected: %d vs %d solves", fast.Recomputations, slow.Recomputations)
	}
	if fast.SatisfiedMean < slow.SatisfiedMean-0.02 {
		t.Errorf("frequent recomputation should not hurt: fast %.3f slow %.3f",
			fast.SatisfiedMean, slow.SatisfiedMean)
	}
	if fast.SatisfiedMean <= 0 {
		t.Error("nothing satisfied")
	}
}

// sleepySolver delays every solve by a fixed wall-clock time.
type sleepySolver struct {
	baselines.ECMPWF
	delay time.Duration
}

func (s sleepySolver) Solve(p *te.Problem, opts ...solve.Option) (*te.Allocation, error) {
	time.Sleep(s.delay)
	return s.ECMPWF.Solve(p, opts...)
}

// TestRunOnlineIgnoresSolveLatency: with IntervalSec unset the run
// recomputes every step, however long the solver takes on the wall clock —
// the result is a function of (seed, config), not of machine load.
func TestRunOnlineIgnoresSolveLatency(t *testing.T) {
	cfg := OnlineConfig{HorizonSec: 3, StepSec: 1}
	run := func(delay time.Duration) *OnlineResult {
		res, err := toyScenario(40, 13).RunOnline(sleepySolver{delay: delay}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast, slow := run(0), run(1500*time.Millisecond)
	if fast.Recomputations != cfg.HorizonSec || slow.Recomputations != fast.Recomputations {
		t.Errorf("recomputations: %d with an instant solver, %d with a 1.5 s one; want %d for both",
			fast.Recomputations, slow.Recomputations, cfg.HorizonSec)
	}
	if !reflect.DeepEqual(fast.Satisfied, slow.Satisfied) || fast.RouteChurn != slow.RouteChurn {
		t.Errorf("solver wall time changed the result:\n fast %v churn %d\n slow %v churn %d",
			fast.Satisfied, fast.RouteChurn, slow.Satisfied, slow.RouteChurn)
	}
	if slow.MeanSolveLatency < 1500*time.Millisecond {
		t.Errorf("MeanSolveLatency %s does not report the measured solve time", slow.MeanSolveLatency)
	}
}

// TestRunOnlineStepCount: a fractional step scores as many instants as the
// horizon holds; accumulating t += StepSec drifted short of the horizon's
// end and scored one more (11 for 3 s in steps of 0.3 s, 201 for 60 s).
func TestRunOnlineStepCount(t *testing.T) {
	res, err := toyScenario(40, 13).RunOnline(baselines.ECMPWF{}, OnlineConfig{HorizonSec: 3, StartSec: 700, IntervalSec: 1000, StepSec: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Satisfied) != 10 {
		t.Errorf("horizon 3 s, step 0.3 s: %d steps scored, want 10", len(res.Satisfied))
	}
	for _, c := range []struct {
		horizon int
		step    float64
		want    int
	}{{3, 0.3, 10}, {60, 0.3, 200}, {1, 0.1, 10}, {7, 0.7, 10}, {10, 3, 4}, {20, 2, 10}, {5, 5, 1}, {1, 2, 1}} {
		if got := stepCount(c.horizon, c.step); got != c.want {
			t.Errorf("stepCount(%d, %v) = %d, want %d", c.horizon, c.step, got, c.want)
		}
	}
}

func TestProblemWithFailures(t *testing.T) {
	s := toyScenario(60, 17)
	rng := rand.New(rand.NewSource(1))
	p0, snap0, err := s.ProblemWithFailures(10, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	p5, snap5, err := s.ProblemWithFailures(10, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(p5.Links) >= len(p0.Links) {
		t.Errorf("failures did not remove links: %d vs %d", len(p5.Links), len(p0.Links))
	}
	if len(snap5.Links) != len(p5.Links) || len(snap0.Links) != len(p0.Links) {
		t.Errorf("returned snapshot link count disagrees with problem: %d vs %d, %d vs %d",
			len(snap5.Links), len(p5.Links), len(snap0.Links), len(p0.Links))
	}
	// Throughput under failures is at most throughput without (same demand).
	a0, err := (baselines.LPExact{}).Solve(p0)
	if err != nil {
		t.Fatal(err)
	}
	a5, err := (baselines.LPExact{}).Solve(p5)
	if err != nil {
		t.Fatal(err)
	}
	if a5.Throughput() > a0.Throughput()+1e-6 {
		t.Errorf("failures increased throughput: %v > %v", a5.Throughput(), a0.Throughput())
	}
}

func TestScenarioRelayMode(t *testing.T) {
	s := NewScenario(constellation.Toy(5, 6), ScenarioConfig{
		Mode:      topology.CrossShellGroundRelays,
		Intensity: 40,
		Seed:      19,
		Users:     2000, UserClusters: 50, Gateways: 6, Relays: 30,
	})
	p, snap, _, err := s.ProblemAt(15)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumNodes != s.Cons.Size()+30 {
		t.Errorf("relay nodes missing: %d", snap.NumNodes)
	}
	if len(p.Flows) == 0 {
		t.Error("no flows in relay mode")
	}
}

// BenchmarkMatrixAt times the traffic step of a cycle: advance the traffic
// clock one second and aggregate the live flows into a matrix against a
// snapshot's positions, in the stationary regime the controller workloads
// replay (intensity 60, durations scaled by 0.05, 10° mask, t ≥ 400 s). The
// flow count is the same at both sizes; the ground sites scale with the
// constellation.
func BenchmarkMatrixAt(b *testing.B) {
	for _, c := range []struct {
		name string
		cons func() *constellation.Constellation
	}{{"iridium", constellation.Iridium}, {"starlink-phase1", constellation.StarlinkPhase1}} {
		b.Run(c.name, func(b *testing.B) {
			scen := NewScenario(c.cons(), ScenarioConfig{
				Mode: topology.CrossShellLasers, Intensity: 60, Seed: 1, MinElevDeg: 10, FlowDurationScale: 0.05,
			})
			snap := scen.TopoGen.Snapshot(400)
			scen.MatrixAt(400, snap)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scen.MatrixAt(401+float64(i), snap)
			}
			b.ReportMetric(float64(scen.Traffic.ActiveCount()), "flows")
		})
	}
}
