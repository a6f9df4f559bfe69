package sim

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sate/internal/baselines"
	"sate/internal/core"
	"sate/internal/obs"
	"sate/internal/pktsim"
	"sate/internal/ruledist"
	"sate/internal/rules"
	"sate/internal/solve"
	"sate/internal/te"
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameAllocation(t *testing.T, got, want *te.Allocation) {
	t.Helper()
	if len(got.X) != len(want.X) {
		t.Fatalf("allocation has %d flows, reference %d", len(got.X), len(want.X))
	}
	for fi := range want.X {
		if len(got.X[fi]) != len(want.X[fi]) {
			t.Fatalf("flow %d: %d paths, reference %d", fi, len(got.X[fi]), len(want.X[fi]))
		}
		for pi := range want.X[fi] {
			if !sameBits(got.X[fi][pi], want.X[fi][pi]) {
				t.Fatalf("x[%d][%d] = %v, reference %v", fi, pi, got.X[fi][pi], want.X[fi][pi])
			}
		}
	}
}

// sameOnlineResult requires everything but the wall-clock latency to agree
// bit for bit.
func sameOnlineResult(t *testing.T, got, want *OnlineResult) {
	t.Helper()
	if got.Method != want.Method || got.Recomputations != want.Recomputations || got.RouteChurn != want.RouteChurn {
		t.Fatalf("result %s/%d solves/%d churn, reference %s/%d/%d",
			got.Method, got.Recomputations, got.RouteChurn, want.Method, want.Recomputations, want.RouteChurn)
	}
	if len(got.Satisfied) != len(want.Satisfied) {
		t.Fatalf("%d steps, reference %d", len(got.Satisfied), len(want.Satisfied))
	}
	for i := range want.Satisfied {
		if !sameBits(got.Satisfied[i], want.Satisfied[i]) {
			t.Fatalf("step %d satisfied %v, reference %v", i, got.Satisfied[i], want.Satisfied[i])
		}
	}
	if !sameBits(got.SatisfiedMean, want.SatisfiedMean) {
		t.Fatalf("mean %v, reference %v", got.SatisfiedMean, want.SatisfiedMean)
	}
	if (got.MeanSolveLatency > 0) != (want.MeanSolveLatency > 0) {
		t.Fatalf("latency %v, reference %v", got.MeanSolveLatency, want.MeanSolveLatency)
	}
}

// TestRunCycleMatchesHandSpelledCycle pins the shared cycle against the
// parent's spelling — ProblemAt (or ProblemWithFailures) then Solve — on a
// twin scenario, over several instants so the incremental path DB and the
// traffic process are exercised, with and without failure injection.
func TestRunCycleMatchesHandSpelledCycle(t *testing.T) {
	for _, failFrac := range []float64{0, 0.2} {
		s, twin := toyScenario(60, 29), toyScenario(60, 29)
		twinRNG := rand.New(rand.NewSource(5))
		if failFrac > 0 {
			s.InjectFailures(failFrac, rand.New(rand.NewSource(5)))
		}
		for _, tSec := range []float64{10, 15, 40} {
			c, err := s.RunCycle(context.Background(), baselines.ECMPWF{}, tSec)
			if err != nil {
				t.Fatal(err)
			}
			var want *te.Problem
			if failFrac > 0 {
				want, _, err = twin.ProblemWithFailures(tSec, failFrac, twinRNG)
			} else {
				want, _, _, err = twin.ProblemAt(tSec)
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Flows) == 0 {
				t.Fatalf("no flows at t=%v", tSec)
			}
			if !sameBits(c.TimeSec, tSec) || len(c.Snap.Links) != len(want.Links) || len(c.Problem.Links) != len(want.Links) {
				t.Fatalf("fail=%v t=%v: cycle at %v with %d/%d links, reference %d",
					failFrac, tSec, c.TimeSec, len(c.Snap.Links), len(c.Problem.Links), len(want.Links))
			}
			if c.Problem.TopoFingerprint() != want.TopoFingerprint() || len(c.Problem.Flows) != len(want.Flows) ||
				!sameBits(c.Problem.TotalDemand(), want.TotalDemand()) {
				t.Fatalf("fail=%v t=%v: problem differs from the reference", failFrac, tSec)
			}
			ref, err := (baselines.ECMPWF{}).Solve(want)
			if err != nil {
				t.Fatal(err)
			}
			sameAllocation(t, c.Alloc, ref)
			if c.Stages.Observe <= 0 || c.Stages.Solve <= 0 || c.Stages.Compile != 0 {
				t.Fatalf("stage times %+v: observe and solve must be measured, compile not run", c.Stages)
			}
		}
		// Switching injection off restores the intact topology.
		s.InjectFailures(0, nil)
		c, err := s.RunCycle(context.Background(), baselines.ECMPWF{}, 45)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _, err := twin.ProblemAt(45)
		if err != nil {
			t.Fatal(err)
		}
		if c.Problem.TopoFingerprint() != want.TopoFingerprint() {
			t.Fatalf("fail=%v: topology still degraded after injection was switched off", failFrac)
		}
	}
}

// nanAllocator is ECMP-WF with the first allocated path's rate replaced by
// NaN: the rules compile, and rules.Verify rejects them.
type nanAllocator struct{}

func (nanAllocator) Name() string { return "ecmp-wf-nan" }

func (nanAllocator) Solve(p *te.Problem, opts ...solve.Option) (*te.Allocation, error) {
	a, err := (baselines.ECMPWF{}).Solve(p, opts...)
	if err != nil {
		return nil, err
	}
	for _, x := range a.X {
		for pi := range x {
			if x[pi] > 0 {
				x[pi] = math.NaN()
				return a, nil
			}
		}
	}
	return a, nil
}

// TestCycleCompile: Compile sets Rules to rules.Compile of the cycle's own
// problem and allocation, timed once; a second call keeps the same rule set
// and does no work; an unsolved cycle is an error; a re-solve drops the
// rules, and rules that fail verification are not kept.
func TestCycleCompile(t *testing.T) {
	s := toyScenario(60, 29)
	c, err := s.RunCycle(context.Background(), baselines.ECMPWF{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	unsolved := &Cycle{TimeSec: c.TimeSec, Snap: c.Snap, Problem: c.Problem}
	if err := unsolved.Compile(); err == nil || unsolved.Rules != nil {
		t.Fatalf("compiling an unsolved cycle: err %v, rules %v", err, unsolved.Rules)
	}
	if err := c.Compile(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Rules, rules.Compile(c.Problem, c.Alloc)) {
		t.Fatal("the cycle's rules differ from rules.Compile of its problem and allocation")
	}
	if c.Stages.Compile <= 0 {
		t.Fatal("compile stage not timed")
	}
	rs, stages := c.Rules, c.Stages
	if err := c.Compile(); err != nil || c.Rules != rs || c.Stages != stages {
		t.Fatalf("second Compile: err %v, same rules %v, stages %+v then %+v", err, c.Rules == rs, stages, c.Stages)
	}

	if err := c.Solve(nanAllocator{}); err != nil {
		t.Fatal(err)
	}
	if c.Rules != nil {
		t.Fatal("re-solving kept the previous allocation's rules")
	}
	if err := c.Compile(); err == nil || !strings.HasPrefix(err.Error(), "rule verification: rules: ") || c.Rules != nil {
		t.Fatalf("compiling a NaN allocation: err %v, rules kept %v", err, c.Rules != nil)
	}
}

// TestSolveEachStopsAtAVisitError: an error from visit ends the walk, no
// later instant is visited (nor stepped to), and SolveEach returns it.
func TestSolveEachStopsAtAVisitError(t *testing.T) {
	s := toyScenario(60, 29)
	stop := errors.New("stop")
	var visited []float64
	err := s.SolveEach(baselines.ECMPWF{}, Instants(10, 5, 4), func(c *Cycle) error {
		visited = append(visited, c.TimeSec)
		if len(visited) == 2 {
			return stop
		}
		return nil
	})
	if err != stop {
		t.Fatalf("SolveEach returned %v, want the visit's error", err)
	}
	if len(visited) != 2 || visited[1] != 15 {
		t.Fatalf("visited %v, want [10 15]", visited)
	}
	if now := s.Traffic.Now(); now > 15 {
		t.Fatalf("traffic clock at %gs: the walk stepped past the failed visit", now)
	}
}

// TestRunCycleHonoursContext: a cancelled context abandons the cycle before
// the step, leaving the scenario untouched.
func TestRunCycleHonoursContext(t *testing.T) {
	s := toyScenario(60, 29)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if c, err := s.RunCycle(ctx, baselines.ECMPWF{}, 10); err != context.Canceled || c != nil {
		t.Fatalf("cancelled RunCycle = %v, %v", c, err)
	}
	if s.PathDB != nil {
		t.Fatal("cancelled cycle stepped the scenario")
	}
}

// TestRunOnlineMatchesReferenceLoop replays the parent's RunOnline loop on a
// twin scenario at a fixed interval (so pacing does not depend on the wall
// clock): per-step satisfied demand, route churn, recomputation count and —
// with packet replay on — the merged packet accounting all agree bit for bit.
func TestRunOnlineMatchesReferenceLoop(t *testing.T) {
	replay := func() *PacketReplay {
		return &PacketReplay{
			Engine:      pktsim.Config{Seed: 11, HorizonSec: 0.25, MaxPackets: 200000},
			UpdateAtSec: 0.05,
		}
	}
	for _, withReplay := range []bool{false, true} {
		cfg := OnlineConfig{HorizonSec: 20, StartSec: 10, IntervalSec: 6, StepSec: 2}
		refCfg := cfg
		if withReplay {
			cfg.PacketReplay, refCfg.PacketReplay = replay(), replay()
		}
		got, err := toyScenario(60, 17).RunOnline(baselines.ECMPWF{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refRunOnline(toyScenario(60, 17), baselines.ECMPWF{}, refCfg)
		if err != nil {
			t.Fatal(err)
		}
		if want.Recomputations < 3 || want.RouteChurn == 0 {
			t.Fatalf("degenerate reference run: %+v", want)
		}
		sameOnlineResult(t, got, want)
		if !withReplay {
			continue
		}
		g, w := got.PacketStats, want.PacketStats
		if g.Injected != w.Injected || g.Delivered != w.Delivered || g.Dropped() != w.Dropped() ||
			g.MaxQueuePkts != w.MaxQueuePkts || len(g.LatenciesSec) != len(w.LatenciesSec) {
			t.Fatalf("packet stats %+v, reference %+v", g, w)
		}
		for i := range w.LatenciesSec {
			if !sameBits(g.LatenciesSec[i], w.LatenciesSec[i]) {
				t.Fatalf("packet %d latency %v, reference %v", i, g.LatenciesSec[i], w.LatenciesSec[i])
			}
		}
	}
}

// TestRunSpecMatchesOldReplay pins the one RunSpec builder against what the
// parent's PacketReplay.replay assembled: the first cycle has no update
// window; later cycles run the previous allocation as the stale generation
// and switch at UpdateAtSec plus the ruledist delays from Houston at the
// scenario's min elevation.
func TestRunSpecMatchesOldReplay(t *testing.T) {
	s := toyScenario(60, 17)
	ctx := context.Background()
	prev, err := s.RunCycle(ctx, baselines.ECMPWF{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := s.RunCycle(ctx, baselines.ECMPWF{}, 15)
	if err != nil {
		t.Fatal(err)
	}
	pr := &PacketReplay{Engine: pktsim.Config{Seed: 3, HorizonSec: 0.25, MaxPackets: 200000}}

	first := pr.RunSpec(s, nil, cur)
	if first.Snap != cur.Snap || first.Problem != cur.Problem || first.Alloc != cur.Alloc || first.Update != nil {
		t.Fatalf("first-cycle spec = %+v", first)
	}

	spec := pr.RunSpec(s, prev, cur)
	u := spec.Update
	if u == nil || u.PrevProblem != prev.Problem || u.PrevAlloc != prev.Alloc {
		t.Fatalf("update window does not run the previous cycle as the stale generation: %+v", u)
	}
	if u.AtSec != 0.1 {
		t.Fatalf("default update instant = %v, want 0.1", u.AtSec)
	}
	delays := ruledist.RuleDistributionDelays(cur.Snap, ruledist.HoustonSite, s.MinElevRad)
	if len(u.DelaysSec) != len(delays) {
		t.Fatalf("%d delays, want %d", len(u.DelaysSec), len(delays))
	}
	for i := range delays {
		if !sameBits(u.DelaysSec[i], delays[i]) {
			t.Fatalf("delay[%d] = %v, want %v", i, u.DelaysSec[i], delays[i])
		}
	}
	// End to end: the engine run of a later cycle equals the old replay's.
	got, err := pr.replay(s, prev, cur, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refReplay(pr, s, cur.Snap, refNewActiveAlloc(prev.Problem, prev.Alloc), cur.Problem, cur.Alloc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Injected == 0 || got.Injected != want.Injected || got.Delivered != want.Delivered ||
		got.Dropped() != want.Dropped() || len(got.LatenciesSec) != len(want.LatenciesSec) {
		t.Fatalf("replay %+v, reference %+v", got, want)
	}
	for i := range want.LatenciesSec {
		if !sameBits(got.LatenciesSec[i], want.LatenciesSec[i]) {
			t.Fatalf("packet %d latency %v, reference %v", i, got.LatenciesSec[i], want.LatenciesSec[i])
		}
	}
}

// fitLosses trains a fresh default model by the recipe on a fresh toy
// scenario and returns its per-epoch losses and saved weights.
func fitLosses(t *testing.T, r Recipe) ([]float64, []byte) {
	t.Helper()
	m := core.NewModel(core.DefaultConfig())
	res, err := toyScenario(60, 31).Fit(m, r)
	if err != nil {
		t.Fatal(err)
	}
	return res.Losses, savedBytes(t, m)
}

func savedBytes(t *testing.T, m *core.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFitIsTrainOnLabelledInstants: Fit is core.Train on one sample per
// instant with traffic — the problem labelled by baselines.LPAuto under the
// throughput objective, unlabelled under MLU — bit for bit; an instant
// without traffic yields no sample.
func TestFitIsTrainOnLabelledInstants(t *testing.T) {
	times := Instants(10, 7, 3)
	if len(times) != 3 || times[0] != 10 || times[2] != 24 {
		t.Fatalf("Instants = %v", times)
	}
	for _, obj := range []solve.Objective{solve.Throughput, solve.MLU} {
		cfg := core.TrainConfig{Epochs: 3, Objective: obj}
		gotLosses, gotWeights := fitLosses(t, Recipe{Instants: times, TrainConfig: cfg})

		twin := toyScenario(60, 31)
		var samples []*core.Sample
		for _, tSec := range times {
			p, _, _, err := twin.ProblemAt(tSec)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.Flows) == 0 {
				t.Fatalf("no traffic at t=%v", tSec)
			}
			var ref *te.Allocation
			if obj == solve.Throughput {
				if ref, err = (baselines.LPAuto{}).Solve(p); err != nil {
					t.Fatal(err)
				}
			}
			samples = append(samples, core.NewSample(p, ref))
		}
		m := core.NewModel(core.DefaultConfig())
		res, err := core.Train(m, samples, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for ep := range res.Losses {
			if !sameBits(gotLosses[ep], res.Losses[ep]) {
				t.Fatalf("%v epoch %d: Fit loss %v, core.Train %v", obj, ep, gotLosses[ep], res.Losses[ep])
			}
		}
		if !bytes.Equal(gotWeights, savedBytes(t, m)) {
			t.Fatalf("%v: Fit and core.Train saved different weights", obj)
		}
	}

	// t=0 precedes every arrival: its problem has no traffic, so it adds no
	// training step.
	p, _, _, err := toyScenario(60, 31).ProblemAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Flows) != 0 {
		t.Fatalf("t=0 has %d flows, want none", len(p.Flows))
	}
	reg := obs.NewRegistry()
	fitLosses(t, Recipe{Instants: append([]float64{0}, times...), TrainConfig: core.TrainConfig{Epochs: 1, Registry: reg}})
	if got := reg.Histogram("sate_train_step_seconds", nil).Count(); got != uint64(len(times)) {
		t.Fatalf("%d training steps for %d instants with traffic", got, len(times))
	}
}

// TestRunOfflineRefusesARewind: a second offline pass over one window on
// the same scenario would pair each instant's topology with the traffic of
// a later one, so it is an error — as are Fit and RunOnline before the
// traffic clock — while a fresh scenario repeats the first pass exactly.
func TestRunOfflineRefusesARewind(t *testing.T) {
	s := toyScenario(60, 31)
	first, err := s.RunOffline(baselines.ECMPWF{}, 10, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := s.RunOffline(baselines.ECMPWF{}, 10, 7, 3); err == nil {
		t.Fatalf("a second pass over the window ran (satisfied %v, first pass %v)", again.Satisfied, first.Satisfied)
	}
	fresh, err := toyScenario(60, 31).RunOffline(baselines.ECMPWF{}, 10, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Satisfied {
		if !sameBits(fresh.Satisfied[i], first.Satisfied[i]) {
			t.Fatalf("step %d: fresh scenario %v, first pass %v", i, fresh.Satisfied[i], first.Satisfied[i])
		}
	}
	if _, err := s.Fit(core.NewModel(core.DefaultConfig()), Recipe{Instants: []float64{10}}); err == nil {
		t.Error("Fit trained on an instant before the traffic clock")
	}
	if _, err := s.RunOnline(baselines.ECMPWF{}, OnlineConfig{StartSec: 10, HorizonSec: 2}); err == nil {
		t.Error("RunOnline started before the traffic clock")
	}
}
