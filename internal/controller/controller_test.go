package controller

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sate/internal/baselines"
	"sate/internal/constellation"
	"sate/internal/sim"
	"sate/internal/topology"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	scen := sim.NewScenario(constellation.Toy(5, 6), sim.ScenarioConfig{
		Mode:              topology.CrossShellLasers,
		Intensity:         6,
		Seed:              7,
		MinElevDeg:        5,
		FlowDurationScale: 0.05,
	})
	srv := New(scen, baselines.ECMPWF{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t *testing.T, url string, v interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	resp := getJSON(t, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
}

func TestStatusBeforeFirstCycle(t *testing.T) {
	_, ts := testServer(t)
	resp := getJSON(t, ts.URL+"/v1/status", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status before recompute = %d, want 503", resp.StatusCode)
	}
}

func TestRecomputeAndStatus(t *testing.T) {
	srv, ts := testServer(t)
	if err := srv.RecomputeContext(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	var st StatusResponse
	resp := getJSON(t, ts.URL+"/v1/status", &st)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if st.Method != "ecmp-wf" || st.TimeSec != 100 {
		t.Errorf("status = %+v", st)
	}
	if st.Flows <= 0 || st.TotalDemandMbps <= 0 {
		t.Errorf("no traffic in status: %+v", st)
	}
	if st.SatisfiedFrac < 0 || st.SatisfiedFrac > 1 {
		t.Errorf("satisfied out of range: %v", st.SatisfiedFrac)
	}
	if st.NumRules <= 0 {
		t.Errorf("no rules compiled: %+v", st)
	}
}

func TestRecomputeViaHTTP(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/recompute", "application/json",
		strings.NewReader(`{"time_sec": 120}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recompute = %d", resp.StatusCode)
	}
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.TimeSec != 120 {
		t.Errorf("time = %v", st.TimeSec)
	}
	// Bad bodies are rejected.
	for _, body := range []string{"not json", `{"time_sec": -5}`} {
		resp, err := http.Post(ts.URL+"/v1/recompute", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q -> %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestAllocationEndpoint(t *testing.T) {
	srv, ts := testServer(t)
	if err := srv.RecomputeContext(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	var entries []AllocationEntry
	resp := getJSON(t, ts.URL+"/v1/allocation", &entries)
	if resp.StatusCode != http.StatusOK || len(entries) == 0 {
		t.Fatalf("allocation = %d, %d entries", resp.StatusCode, len(entries))
	}
	for _, e := range entries {
		if e.RateMbps > e.DemandMbps+1e-6 {
			t.Errorf("entry over demand: %+v", e)
		}
		var sum float64
		for _, v := range e.PerPath {
			sum += v
		}
		if diff := sum - e.RateMbps; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("per-path sum %v != rate %v", sum, e.RateMbps)
		}
	}
}

func TestRulesEndpoint(t *testing.T) {
	srv, ts := testServer(t)
	if err := srv.RecomputeContext(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	// Find a node with rules via the allocation's first flow source.
	var entries []AllocationEntry
	getJSON(t, ts.URL+"/v1/allocation", &entries)
	src := -1
	for _, e := range entries {
		if e.RateMbps > 0 {
			src = e.Src
			break
		}
	}
	if src < 0 {
		t.Skip("no allocated flow")
	}
	var rules []RuleEntry
	resp := getJSON(t, ts.URL+"/v1/rules?node="+itoa(src), &rules)
	if resp.StatusCode != http.StatusOK || len(rules) == 0 {
		t.Fatalf("rules for node %d: %d, %d entries", src, resp.StatusCode, len(rules))
	}
	// Validation failures.
	for _, q := range []string{"/v1/rules?node=abc", "/v1/rules?node=-1", "/v1/rules?node=99999"} {
		resp := getJSON(t, ts.URL+q, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s -> %d, want 400", q, resp.StatusCode)
		}
	}
}

func itoa(i int) string {
	b, _ := json.Marshal(i)
	return string(b)
}

func TestRunLoop(t *testing.T) {
	srv, _ := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.RunContext(ctx, RunConfig{StartSec: 100, IntervalSec: 0.05}) }()
	// Let it tick a couple of times, then stop.
	for i := 0; i < 200; i++ {
		if st := srv.Current(); st != nil && st.TimeSec > 100 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	st := srv.Current()
	if st == nil || st.TimeSec < 100 {
		t.Fatalf("run loop did not compute: %+v", st)
	}
}
