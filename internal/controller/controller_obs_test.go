package controller

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sate/internal/baselines"
	"sate/internal/constellation"
	"sate/internal/obs"
	"sate/internal/sim"
	"sate/internal/topology"
)

func testServerWithRegistry(t *testing.T) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	scen := sim.NewScenario(constellation.Toy(5, 6), sim.ScenarioConfig{
		Mode:              topology.CrossShellLasers,
		Intensity:         6,
		Seed:              7,
		MinElevDeg:        5,
		FlowDurationScale: 0.05,
	})
	reg := obs.NewRegistry()
	reg.CollectGoRuntime()
	srv := New(scen, baselines.ECMPWF{}, WithRegistry(reg))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, reg
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	srv, ts, reg := testServerWithRegistry(t)

	// Scrapable before the first cycle; every sample line well-formed.
	out := scrape(t, ts.URL+"/metrics")
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
	}

	if err := srv.RecomputeContext(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	out = scrape(t, ts.URL+"/metrics")
	for _, want := range []string{
		"sate_controld_cycles_total 1",
		`sate_solve_seconds_count{solver="ecmp-wf"} 1`,
		"sate_controld_cycle_seconds_count 1",
		"sate_controld_satisfied_ratio ",
		"sate_controld_rules ",
		"go_heap_alloc_bytes ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in scrape:\n%s", want, out)
		}
	}

	// The solve histogram visibly moves with another cycle.
	if err := srv.RecomputeContext(context.Background(), 105); err != nil {
		t.Fatal(err)
	}
	out = scrape(t, ts.URL+"/metrics")
	if !strings.Contains(out, `sate_solve_seconds_count{solver="ecmp-wf"} 2`) {
		t.Fatalf("solve histogram did not move:\n%s", out)
	}
	if g := reg.Gauge("sate_controld_satisfied_ratio").Value(); g < 0 || g > 1 {
		t.Fatalf("satisfied ratio out of range: %v", g)
	}
}

// TestCycleSpans: every controller cycle records its scenario step, rule
// compilation and publish once each, so with the solve spans they account
// for sate_controld_cycle_seconds.
func TestCycleSpans(t *testing.T) {
	srv, _, reg := testServerWithRegistry(t)
	const cycles = 3
	for i := 0; i < cycles; i++ {
		if err := srv.RecomputeContext(context.Background(), 100+5*float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("sate_controld_cycles_total").Value(); got != cycles {
		t.Fatalf("%v cycles counted, want %d", got, cycles)
	}
	for _, phase := range []string{obs.PhasePathPrecompute, obs.PhaseRuleCompile, obs.PhasePublish} {
		if got := reg.SpanHistogram(phase).Count(); got != cycles {
			t.Errorf("%s span recorded %d times in %d cycles", phase, got, cycles)
		}
	}
	if pub, cycle := reg.SpanHistogram(obs.PhasePublish).Sum(), reg.Histogram("sate_controld_cycle_seconds", obs.DefLatencyBuckets).Sum(); pub <= 0 || pub >= cycle {
		t.Errorf("publish spans sum to %vs of a %vs cycle total", pub, cycle)
	}
}

func TestMetricsDeterministicOrdering(t *testing.T) {
	srv, ts, _ := testServerWithRegistry(t)
	if err := srv.RecomputeContext(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	// Go-runtime gauges sample live state; compare only registered families,
	// which must render byte-identically across scrapes of unchanged state.
	strip := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "go_") || strings.Contains(line, "seconds") {
				continue // live runtime samples and timing histograms vary
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	a := scrape(t, ts.URL+"/metrics")
	b := scrape(t, ts.URL+"/metrics")
	if strip(a) != strip(b) {
		t.Fatalf("scrapes differ:\n%s\n---\n%s", strip(a), strip(b))
	}
}

func TestPprofEndpoints(t *testing.T) {
	_, ts, _ := testServerWithRegistry(t)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
}

func TestNoMetricsWithoutRegistry(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("metrics without registry = %d, want 404", resp.StatusCode)
	}
}

func TestRecomputeContextCancelled(t *testing.T) {
	srv, _, reg := testServerWithRegistry(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.RecomputeContext(ctx, 100); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled recompute = %v, want context.Canceled", err)
	}
	// A clean cancellation is not a cycle failure: it must not inflate the
	// error counter (that used to 500 graceful shutdowns into the metrics)
	// and must not flip the controller degraded.
	if got := reg.Counter("sate_controld_errors_total").Value(); got != 0 {
		t.Fatalf("errors_total = %d, want 0", got)
	}
	if got := reg.Counter("sate_controld_canceled_cycles_total").Value(); got != 1 {
		t.Fatalf("canceled_cycles_total = %d, want 1", got)
	}
	if got := reg.Gauge("sate_controld_degraded").Value(); got != 0 {
		t.Fatalf("degraded = %v, want 0", got)
	}
}

func TestRunContextCancel(t *testing.T) {
	srv, _, _ := testServerWithRegistry(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.RunContext(ctx, RunConfig{StartSec: 100, IntervalSec: 0.05}) }()
	for i := 0; i < 200; i++ {
		if st := srv.Current(); st != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunContext did not stop on cancel")
	}
	if st := srv.Current(); st == nil {
		t.Fatal("run loop never computed")
	}
}

func TestStatusExplicitOK(t *testing.T) {
	srv, ts, _ := testServerWithRegistry(t)
	if err := srv.RecomputeContext(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
}

// TestCycleSecondsCoversPublish pins what sate_controld_cycle_seconds
// measures: the whole cycle including publish (changelog append + JSON
// encoding), not just problem → solve → rules. With a cheap solver on a
// loaded scenario publish is a large share of the cycle, so a timer that
// stops before it falls well short of RecomputeContext's wall time.
func TestCycleSecondsCoversPublish(t *testing.T) {
	scen := sim.NewScenario(constellation.Iridium(), sim.ScenarioConfig{
		Mode:              topology.CrossShellLasers,
		Intensity:         60,
		Seed:              1,
		MinElevDeg:        10,
		FlowDurationScale: 0.05,
	})
	reg := obs.NewRegistry()
	srv := New(scen, baselines.ECMPWF{}, WithRegistry(reg))
	if err := srv.RecomputeContext(context.Background(), 400); err != nil { // path DB warm-up
		t.Fatal(err)
	}
	h := reg.Histogram("sate_controld_cycle_seconds", obs.DefLatencyBuckets)
	before := h.Sum()
	var wall time.Duration
	const cycles = 5
	for i := 1; i <= cycles; i++ {
		start := time.Now()
		if err := srv.RecomputeContext(context.Background(), 400+float64(i)); err != nil {
			t.Fatal(err)
		}
		wall += time.Since(start)
	}
	if got := h.Count(); got != cycles+1 {
		t.Fatalf("cycle histogram count = %d, want %d", got, cycles+1)
	}
	observed := h.Sum() - before
	if observed < 0.9*wall.Seconds() || observed > wall.Seconds() {
		t.Fatalf("cycle histogram observed %.3f ms of %.3f ms RecomputeContext wall time; want >= 90%%",
			observed*1e3, wall.Seconds()*1e3)
	}
	if got := reg.Gauge("sate_controld_cycle_alloc_bytes").Value(); got <= 0 {
		t.Fatalf("cycle alloc gauge = %v, want > 0", got)
	}
}
