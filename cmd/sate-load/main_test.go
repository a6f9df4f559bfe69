package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// runWorker points one worker at a test server for a short burst and returns
// the merged per-endpoint stats.
func runWorker(t *testing.T, srv *httptest.Server, mixStr string) map[string]*endpointStats {
	t.Helper()
	mix, err := parseMix(mixStr)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, m := range mix {
		total += m.weight
	}
	stats := map[string]*endpointStats{}
	worker(srv.Client(), srv.URL, mix, total, 1, time.Now().Add(100*time.Millisecond), stats)
	return stats
}

// TestRecompute429IsShedLoadNotError pins the admission-control contract: a
// 429 with Retry-After from /v1/recompute is the controller shedding load on
// purpose, so it must count as Rejected — never as an error that would flip
// the run's exit status.
func TestRecompute429IsShedLoadNotError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/recompute" {
			t.Errorf("unexpected path %q", r.URL.Path)
		}
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()

	stats := runWorker(t, srv, "recompute=1")
	st := stats["recompute"]
	if st == nil || st.Requests == 0 {
		t.Fatal("no recompute requests issued")
	}
	if st.Errors != 0 {
		t.Errorf("429 counted as %d errors; shed load must not fail the run", st.Errors)
	}
	if st.Rejected != st.Requests {
		t.Errorf("rejected = %d, want every request (%d) counted as shed", st.Rejected, st.Requests)
	}
}

// TestMalformedDeltaBodyIsError pins the opposite edge: a 200 from
// /v1/deltas whose body does not decode is a serving bug and must fail the
// run rather than silently stalling the catch-up cursor.
func TestMalformedDeltaBodyIsError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write([]byte(`{"latest": not-json`)); err != nil {
			t.Error(err)
		}
	}))
	defer srv.Close()

	stats := runWorker(t, srv, "deltas=1")
	st := stats["deltas"]
	if st == nil || st.Requests == 0 {
		t.Fatal("no delta requests issued")
	}
	if st.Errors != st.Requests {
		t.Errorf("errors = %d of %d requests; malformed delta bodies must all fail", st.Errors, st.Requests)
	}
}

// TestWellFormedDeltaAdvancesCursor guards the fix against over-correction:
// valid bodies still advance the since cursor instead of erroring.
func TestWellFormedDeltaAdvancesCursor(t *testing.T) {
	var sinces []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sinces = append(sinces, r.URL.Query().Get("since"))
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write([]byte(`{"latest": 7, "full_sync": true}`)); err != nil {
			t.Error(err)
		}
	}))
	defer srv.Close()

	stats := runWorker(t, srv, "deltas=1")
	st := stats["deltas"]
	if st == nil || st.Requests < 2 {
		t.Fatalf("want at least 2 delta requests, got %+v", st)
	}
	if st.Errors != 0 {
		t.Errorf("well-formed deltas produced %d errors", st.Errors)
	}
	if sinces[0] != "0" {
		t.Errorf("first request since=%s, want 0", sinces[0])
	}
	if sinces[1] != "7" {
		t.Errorf("second request since=%s, want 7 (cursor advanced by first response)", sinces[1])
	}
}
