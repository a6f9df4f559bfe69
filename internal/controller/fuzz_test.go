package controller

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"sate/internal/baselines"
)

// fuzzServer is a Toy-constellation controller under ECMP-WF, cheap enough
// to recompute once per fuzz input, with a three-version delta window and
// six publishes behind it, so catch-ups from old versions full-sync.
func fuzzServer(f *testing.F) (*Server, http.Handler) {
	srv := New(testServer2Scenario(), baselines.ECMPWF{}, WithDeltaHistory(3))
	for i := 0; i < 6; i++ {
		if err := srv.RecomputeContext(context.Background(), 100+30*float64(i)); err != nil {
			f.Fatal(err)
		}
	}
	return srv, srv.Handler()
}

// FuzzDeltasQuery feeds raw since and node query bytes to GET /v1/deltas.
// Any input gets 200 or 400 (429 is allowed too), never a 5xx or a panic,
// and every 200 decodes as a DeltasResponse and is byte for byte what
// encoding/json writes for the same catch-up.
func FuzzDeltasQuery(f *testing.F) {
	srv, h := fuzzServer(f)
	f.Fuzz(func(t *testing.T, since, node string) {
		req := httptest.NewRequest(http.MethodGet, "/v1/deltas", nil)
		req.URL.RawQuery = "since=" + since + "&node=" + node
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusTooManyRequests:
			return
		default:
			t.Fatalf("since %q node %q: status %d: %s", since, node, rec.Code, rec.Body)
		}
		var dr DeltasResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &dr); err != nil {
			t.Fatalf("since %q node %q: 200 body does not decode: %v", since, node, err)
		}
		q := req.URL.Query()
		v, n := uint64(0), -1
		var err error
		if s := q.Get("since"); s != "" {
			if v, err = strconv.ParseUint(s, 10, 64); err != nil {
				t.Fatalf("since %q accepted: %v", s, err)
			}
		}
		if s := q.Get("node"); s != "" {
			if n, err = strconv.Atoi(s); err != nil || n < 0 {
				t.Fatalf("node %q accepted", s)
			}
		}
		cu := srv.Changelog().Since(v)
		if want := mustJSON(deltasResponse(&cu, n)); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("since %q node %q:\n got %s\nwant %s", since, node, rec.Body, want)
		}
	})
}

// FuzzRecomputeBody feeds raw bodies to POST /v1/recompute. Any input gets
// 200, 400 or 429, never a 5xx or a panic, and a 200 is a status body. A
// valid body runs a TE cycle at the requested time, however far ahead.
func FuzzRecomputeBody(f *testing.F) {
	_, h := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/recompute", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			var st StatusResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatalf("body %q: 200 body does not decode: %v", body, err)
			}
		case http.StatusBadRequest, http.StatusTooManyRequests:
		default:
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body)
		}
	})
}
