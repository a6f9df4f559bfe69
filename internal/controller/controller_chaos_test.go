package controller

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sate/internal/baselines"
	"sate/internal/constellation"
	"sate/internal/obs"
	"sate/internal/rules"
	"sate/internal/sim"
	"sate/internal/solve"
	"sate/internal/te"
	"sate/internal/topology"
)

// scriptedSolver wraps a real allocator with a failure script: the first
// okFirst calls succeed, the next failFor calls fail, everything after
// succeeds again. An optional sleep simulates a slow solver.
type scriptedSolver struct {
	inner   sim.Allocator
	okFirst int
	failFor int
	sleep   time.Duration

	mu    sync.Mutex
	calls int
}

func (f *scriptedSolver) Name() string { return "scripted" }

func (f *scriptedSolver) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func (f *scriptedSolver) Solve(p *te.Problem, opts ...solve.Option) (*te.Allocation, error) {
	f.mu.Lock()
	call := f.calls
	f.calls++
	f.mu.Unlock()
	if f.sleep > 0 {
		time.Sleep(f.sleep)
	}
	if call >= f.okFirst && call < f.okFirst+f.failFor {
		return nil, errors.New("injected solver failure")
	}
	return f.inner.Solve(p, opts...)
}

func chaosScenario() *sim.Scenario {
	return sim.NewScenario(constellation.Toy(5, 6), sim.ScenarioConfig{
		Mode:              topology.CrossShellLasers,
		Intensity:         6,
		Seed:              7,
		MinElevDeg:        5,
		FlowDurationScale: 0.05,
	})
}

func chaosServer(t *testing.T, solver sim.Allocator) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	srv := New(chaosScenario(), solver, WithRegistry(reg))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, reg
}

func getStatus(t *testing.T, url string) (StatusResponse, int) {
	t.Helper()
	resp, err := http.Get(url + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

// TestDegradedCycleServesStaleAllocation drives the failure path
// deterministically (no run loop): after a good cycle, k consecutive failed
// cycles — with link failures injected mid-run — must keep /status serving
// the last good allocation with the degraded flag, consecutive-failure count,
// and the honestly re-scored satisfaction; a succeeding cycle clears it all.
func TestDegradedCycleServesStaleAllocation(t *testing.T) {
	flaky := &scriptedSolver{inner: baselines.ECMPWF{}, okFirst: 1, failFor: 3}
	srv, ts, reg := chaosServer(t, flaky)

	if err := srv.RecomputeContext(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	healthy, code := getStatus(t, ts.URL)
	if code != http.StatusOK || healthy.Degraded {
		t.Fatalf("healthy status = %d degraded=%v", code, healthy.Degraded)
	}

	// Three failed cycles, each with 20% of links failure-injected: the
	// chaos path the run loop uses, driven synchronously.
	srv.injectFailures(0.2, rand.New(rand.NewSource(11)))
	for k := 1; k <= 3; k++ {
		err := srv.RecomputeContext(context.Background(), 100+5*float64(k))
		if err == nil {
			t.Fatalf("cycle %d unexpectedly succeeded", k)
		}
		st, code := getStatus(t, ts.URL)
		if code != http.StatusOK {
			t.Fatalf("degraded status = %d, want 200 (stale allocation must keep serving)", code)
		}
		if !st.Degraded || st.ConsecutiveFailures != k {
			t.Fatalf("cycle %d: degraded=%v failures=%d", k, st.Degraded, st.ConsecutiveFailures)
		}
		if st.TimeSec != 100 {
			t.Fatalf("degraded status time = %v, want stale 100", st.TimeSec)
		}
		if st.LastError == "" || !strings.Contains(st.LastError, "injected solver failure") {
			t.Fatalf("last_error = %q", st.LastError)
		}
		if st.SatisfiedFrac < 0 || st.SatisfiedFrac > 1 {
			t.Fatalf("re-scored satisfaction out of range: %v", st.SatisfiedFrac)
		}
	}
	if got := reg.Gauge("sate_controld_degraded").Value(); got != 1 {
		t.Fatalf("degraded gauge = %v, want 1", got)
	}
	if got := reg.Gauge("sate_controld_consecutive_failures").Value(); got != 3 {
		t.Fatalf("consecutive_failures gauge = %v, want 3", got)
	}
	if got := reg.Counter("sate_controld_fallback_cycles_total").Value(); got != 3 {
		t.Fatalf("fallback_cycles_total = %d, want 3", got)
	}
	if got := reg.Counter("sate_controld_errors_total").Value(); got != 3 {
		t.Fatalf("errors_total = %d, want 3", got)
	}

	// Recovery: the next cycle (failure injection off again) succeeds and
	// clears the degraded state.
	srv.injectFailures(0, nil)
	if err := srv.RecomputeContext(context.Background(), 120); err != nil {
		t.Fatal(err)
	}
	st, _ := getStatus(t, ts.URL)
	if st.Degraded || st.ConsecutiveFailures != 0 || st.LastError != "" {
		t.Fatalf("recovered status still degraded: %+v", st)
	}
	if st.TimeSec != 120 {
		t.Fatalf("recovered time = %v", st.TimeSec)
	}
	if got := reg.Gauge("sate_controld_degraded").Value(); got != 0 {
		t.Fatalf("degraded gauge after recovery = %v, want 0", got)
	}
	if got := reg.Gauge("sate_controld_consecutive_failures").Value(); got != 0 {
		t.Fatalf("consecutive_failures after recovery = %v, want 0", got)
	}
}

// poisonSolver is ECMP-WF whose allocations after the first carry a NaN rate
// on the first allocated path: the rules compile, and rules.Verify rejects
// them. Calls are serialized by the controller's compute mutex.
type poisonSolver struct{ calls int }

func (*poisonSolver) Name() string { return "poisoned" }

func (s *poisonSolver) Solve(p *te.Problem, opts ...solve.Option) (*te.Allocation, error) {
	a, err := (baselines.ECMPWF{}).Solve(p, opts...)
	if s.calls++; err != nil || s.calls == 1 {
		return a, err
	}
	poison(a)
	return a, nil
}

func poison(a *te.Allocation) {
	for _, x := range a.X {
		for pi := range x {
			if x[pi] > 0 {
				x[pi] = math.NaN()
				return
			}
		}
	}
}

// TestRuleVerificationFailureKeepsPreviousCycle drives the one cycle failure
// that happens after a successful solve: rules that fail verification. The
// cycle's error is the verification error, wrapped; it counts as a failed
// cycle and flips the controller to degraded; and the previous cycle's rules
// keep being served — same snapshot cycle, rules version, changelog head and
// /v1/rules body.
func TestRuleVerificationFailureKeepsPreviousCycle(t *testing.T) {
	srv, ts, reg := chaosServer(t, &poisonSolver{})
	if err := srv.RecomputeContext(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	good := srv.Current()
	if good.Rules == nil || srv.Changelog().Full() != good.Rules {
		t.Fatal("the published rules are not the cycle's own rule set")
	}
	goodRules := getBody(t, ts.URL+"/v1/rules")

	// The verification error a twin scenario produces for the same instants.
	twin := chaosScenario()
	if _, _, _, err := twin.ProblemAt(100); err != nil {
		t.Fatal(err)
	}
	p, _, _, err := twin.ProblemAt(105)
	if err != nil {
		t.Fatal(err)
	}
	a, err := (baselines.ECMPWF{}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	poison(a)
	verr := rules.Verify(p, a, rules.Compile(p, a))
	if verr == nil {
		t.Fatal("a NaN rate passed verification")
	}

	err = srv.RecomputeContext(context.Background(), 105)
	if want := "controller: rule verification: " + verr.Error(); err == nil || err.Error() != want {
		t.Fatalf("RecomputeContext = %v, want %q", err, want)
	}
	if got := reg.Counter("sate_controld_errors_total").Value(); got != 1 {
		t.Fatalf("errors_total = %d, want 1", got)
	}
	if got := reg.SpanHistogram(obs.PhaseRuleCompile).Count(); got != 2 {
		t.Fatalf("rule_compile histogram count = %d, want 2 (the failed compile is timed too)", got)
	}
	st, code := getStatus(t, ts.URL)
	if code != http.StatusOK || !st.Degraded || st.ConsecutiveFailures != 1 || st.LastError != err.Error() {
		t.Fatalf("status %d: %+v", code, st)
	}
	sn := srv.Current()
	if sn.Cycle != good.Cycle || sn.Rules != good.Rules || sn.RulesVersion != good.RulesVersion {
		t.Fatalf("degraded snapshot serves rules version %d of another cycle, want the previous cycle's %d", sn.RulesVersion, good.RulesVersion)
	}
	if got := srv.Changelog().Latest(); got != good.RulesVersion {
		t.Fatalf("changelog latest = %d, want %d", got, good.RulesVersion)
	}
	if got := getBody(t, ts.URL+"/v1/rules"); !bytes.Equal(got, goodRules) {
		t.Fatal("/v1/rules changed after a failed verification")
	}
}

// TestChaosRunLoopSurvivesFailures is the acceptance chaos test: a run loop
// with k >= 3 consecutive injected solver failures AND FailFrac > 0 link
// failures must never return early — it serves the stale allocation flagged
// degraded, surfaces retries/fallbacks on the registry, recovers, and exits
// only on context cancel.
func TestChaosRunLoopSurvivesFailures(t *testing.T) {
	flaky := &scriptedSolver{inner: baselines.ECMPWF{}, okFirst: 1, failFor: 4}
	srv, ts, reg := chaosServer(t, flaky)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- srv.RunContext(ctx, RunConfig{
			StartSec:     100,
			IntervalSec:  0.05,
			RetryBaseSec: 0.02,
			RetryMaxSec:  0.05,
			FailFrac:     0.25,
			ChaosSeed:    5,
		})
	}()

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			select {
			case err := <-done:
				t.Fatalf("run loop returned early (%v) while waiting for %s", err, desc)
			default:
			}
			if cond() {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", desc)
	}

	// First cycle publishes.
	waitFor("first good cycle", func() bool {
		_, code := getStatus(t, ts.URL)
		return code == http.StatusOK
	})
	// The failure streak flips /status degraded while still serving the
	// last good (t=100) allocation.
	waitFor("degraded stale status", func() bool {
		st, code := getStatus(t, ts.URL)
		return code == http.StatusOK && st.Degraded && st.TimeSec == 100
	})
	// Retries eventually succeed: degraded clears and time moves on.
	waitFor("recovery", func() bool {
		st, code := getStatus(t, ts.URL)
		return code == http.StatusOK && !st.Degraded && st.TimeSec > 100
	})

	if got := reg.Counter("sate_controld_errors_total").Value(); got < 4 {
		t.Errorf("errors_total = %d, want >= 4", got)
	}
	if got := reg.Counter("sate_controld_fallback_cycles_total").Value(); got < 1 {
		t.Errorf("fallback_cycles_total = %d, want >= 1", got)
	}
	if got := reg.Counter("sate_controld_retries_total").Value(); got < 1 {
		t.Errorf("retries_total = %d, want >= 1", got)
	}

	// The loop is still alive after all that; only cancel stops it.
	select {
	case err := <-done:
		t.Fatalf("run loop returned early: %v", err)
	default:
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run loop did not stop on cancel")
	}
}

// TestCleanShutdownLeavesZeroErrors pins the acceptance criterion that a
// graceful context cancellation — even one landing mid-solve — never counts
// on sate_controld_errors_total.
func TestCleanShutdownLeavesZeroErrors(t *testing.T) {
	slow := &scriptedSolver{inner: baselines.ECMPWF{}, sleep: 20 * time.Millisecond}
	srv, _, reg := chaosServer(t, slow)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- srv.RunContext(ctx, RunConfig{StartSec: 100, IntervalSec: 0.03})
	}()
	// Let a few cycles run, then cancel at a point likely mid-cycle.
	for i := 0; i < 500 && slow.Calls() < 3; i++ {
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run loop did not stop on cancel")
	}
	if got := reg.Counter("sate_controld_errors_total").Value(); got != 0 {
		t.Fatalf("errors_total after clean shutdown = %d, want 0", got)
	}
	if got := reg.Gauge("sate_controld_degraded").Value(); got != 0 {
		t.Fatalf("degraded after clean shutdown = %v, want 0", got)
	}
}

// TestConcurrentRecomputeMonotonic pins the racing-/recompute regression:
// two simultaneous requests are serialized, and the one carrying the OLDER
// simulated time can never overwrite the newer published state, whichever
// order the scheduler runs them in.
func TestConcurrentRecomputeMonotonic(t *testing.T) {
	_, ts, reg := chaosServer(t, baselines.ECMPWF{})

	post := func(body string, wg *sync.WaitGroup) {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/v1/recompute", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("recompute %s = %d", body, resp.StatusCode)
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go post(`{"time_sec": 200}`, &wg)
	go post(`{"time_sec": 100}`, &wg)
	wg.Wait()

	st, code := getStatus(t, ts.URL)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if st.TimeSec != 200 {
		t.Fatalf("published time = %v, want 200 (older cycle must not win)", st.TimeSec)
	}
	// Two cycles completed; if the older one finished second its publication
	// was dropped, otherwise ordinary ordering saved it — either way the
	// invariant above holds. Sanity-check the cycle accounting.
	if got := reg.Counter("sate_controld_cycles_total").Value(); got != 2 {
		t.Fatalf("cycles_total = %d, want 2", got)
	}
}

// TestRunLoopSkippedCycles pins the ticker-fallback fix: when cycles outrun
// the interval, simulated time keeps wall-clock cadence (elapsed intervals
// are consumed, not silently dropped) and the skipped cycles are counted.
func TestRunLoopSkippedCycles(t *testing.T) {
	slow := &scriptedSolver{inner: baselines.ECMPWF{}, sleep: 25 * time.Millisecond}
	srv, _, reg := chaosServer(t, slow)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		done <- srv.RunContext(ctx, RunConfig{StartSec: 100, IntervalSec: 0.01})
	}()
	for slow.Calls() < 5 && time.Since(start) < 10*time.Second {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done

	if got := reg.Counter("sate_controld_skipped_cycles_total").Value(); got < 1 {
		t.Fatalf("skipped_cycles_total = %d, want >= 1 (solver 2.5x slower than interval)", got)
	}
	// Simulated time kept pace with the wall clock instead of falling one
	// interval per cycle behind: with a 25 ms solve and a 10 ms interval,
	// cycle-counted time would lag wall-derived time by >= 2 intervals after
	// five cycles.
	st := srv.Current()
	if st == nil {
		t.Fatal("no state published")
	}
	cycles := reg.Counter("sate_controld_cycles_total").Value()
	if minT := 100 + float64(cycles)*0.01; st.TimeSec < minT {
		t.Fatalf("simulated time %v fell behind wall cadence (>= %v expected after %d cycles)",
			st.TimeSec, minT, cycles)
	}
}
