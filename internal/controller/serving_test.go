package controller

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sate/internal/baselines"
	"sate/internal/constellation"
	"sate/internal/ruledist"
	"sate/internal/rules"
	"sate/internal/sim"
	"sate/internal/solve"
	"sate/internal/te"
	"sate/internal/topology"
)

func mustRecompute(t *testing.T, srv *Server, tSec float64) {
	t.Helper()
	if err := srv.RecomputeContext(context.Background(), tSec); err != nil {
		t.Fatal(err)
	}
}

// TestUnversionedPathsNotServed pins the route table: the API lives under
// /v1/ only.
func TestUnversionedPathsNotServed(t *testing.T) {
	srv, ts := testServer(t)
	mustRecompute(t, srv, 100)
	for _, path := range []string{"/status", "/allocation", "/rules?node=0", "/deltas"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s -> %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestETagConditionalRequests(t *testing.T) {
	srv, ts := testServer(t)
	mustRecompute(t, srv, 100)
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"v`) {
		t.Fatalf("etag = %q", etag)
	}
	// Conditional poll with the current version: 304, no body.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/status", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("conditional poll: %d, %d body bytes", resp.StatusCode, len(body))
	}
	// A new publish bumps the version: the same conditional request now
	// gets a fresh 200 with a different ETag.
	mustRecompute(t, srv, 110)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == etag {
		t.Fatalf("after publish: %d, etag %q (stale %q)", resp.StatusCode, resp.Header.Get("ETag"), etag)
	}
	// Wildcard and list forms match too.
	for _, inm := range []string{"*", `"v0", ` + etag + `, "v9"`, "W/" + resp.Header.Get("ETag")} {
		req2, _ := http.NewRequest("GET", ts.URL+"/v1/allocation", nil)
		req2.Header.Set("If-None-Match", inm)
		r2, err := http.DefaultClient.Do(req2)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r2.Body)
		r2.Body.Close()
		if inm == `"v0", `+etag+`, "v9"` {
			// The listed tags are all stale now; expect 200.
			if r2.StatusCode != http.StatusOK {
				t.Errorf("If-None-Match %q -> %d, want 200", inm, r2.StatusCode)
			}
			continue
		}
		if r2.StatusCode != http.StatusNotModified {
			t.Errorf("If-None-Match %q -> %d, want 304", inm, r2.StatusCode)
		}
	}
}

// parseRuleSet reconstructs a rules.RuleSet from the /v1/rules table dump.
func parseRuleSet(tables []NodeRules) *rules.RuleSet {
	rs := &rules.RuleSet{Tables: make(map[topology.NodeID]*rules.Table)}
	for _, nr := range tables {
		tbl := &rules.Table{Node: topology.NodeID(nr.Node)}
		for _, e := range nr.Rules {
			tbl.Rules = append(tbl.Rules, rules.Rule{
				Flow:     rules.FlowKey{Src: topology.NodeID(e.Src), Dst: topology.NodeID(e.Dst)},
				Label:    e.Label,
				Next:     topology.NodeID(e.Next),
				RateMbps: e.RateMbps,
			})
		}
		rs.Tables[tbl.Node] = tbl
	}
	return rs
}

// TestDeltaCatchup is the acceptance test for the changelog protocol: a
// client at ANY since version applies GET /v1/deltas catch-up and must end
// bit-identical to a full GET /v1/rules — same parsed rule set AND the same
// serialized bytes.
func TestDeltaCatchup(t *testing.T) {
	srv, ts := testServer(t)
	// Several publishes so real deltas accumulate (traffic changes between
	// cycle times, so consecutive rule sets genuinely differ).
	times := []float64{100, 130, 160, 190, 220}
	history := make(map[uint64]*rules.RuleSet) // rules version -> rule set
	history[0] = &rules.RuleSet{Tables: map[topology.NodeID]*rules.Table{}}
	for _, tm := range times {
		mustRecompute(t, srv, tm)
		sn := srv.Current()
		history[sn.RulesVersion] = sn.Rules
	}
	// The reference: a full fetch of the latest rules.
	var full RulesResponse
	resp, err := http.Get(ts.URL + "/v1/rules")
	if err != nil {
		t.Fatal(err)
	}
	fullBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(fullBody, &full); err != nil {
		t.Fatal(err)
	}
	want := parseRuleSet(full.Tables)
	latest := full.RulesVersion

	for since := uint64(0); since <= latest; since++ {
		var dr DeltasResponse
		resp, err := http.Get(fmt.Sprintf("%s/v1/deltas?since=%d", ts.URL, since))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if dr.Latest != latest {
			t.Fatalf("since=%d: latest %d, want %d", since, dr.Latest, latest)
		}
		var got *rules.RuleSet
		if dr.FullSync {
			got = parseRuleSet(dr.Full)
		} else {
			base, ok := history[since]
			if !ok {
				t.Fatalf("since=%d: no recorded base version", since)
			}
			got = base
			at := since
			for _, d := range dr.Deltas {
				if d.Seq != at+1 {
					t.Fatalf("since=%d: delta seq %d after %d", since, d.Seq, at)
				}
				got = ruledist.Apply(got, d)
				at = d.Seq
			}
			if at != latest {
				t.Fatalf("since=%d: caught up only to %d", since, at)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("since=%d: catch-up diverged from full /v1/rules", since)
		}
		// Bit-identical: re-encoding the caught-up state reproduces the
		// full-fetch body exactly.
		if gotBytes := mustJSON(rulesResponse(latest, got)); !bytes.Equal(gotBytes, fullBody) {
			t.Fatalf("since=%d: serialized catch-up differs from /v1/rules body", since)
		}
	}
}

// getBody fetches url and returns a 200's body.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s -> %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// probeNodes returns every node with a table in rs, ascending, and then the
// lowest node without one.
func probeNodes(rs *rules.RuleSet, numNodes int) []int {
	var nodes []int
	for id := range rs.Tables {
		nodes = append(nodes, int(id))
	}
	sort.Ints(nodes)
	for id := 0; id < numNodes; id++ {
		if rs.Tables[topology.NodeID(id)] == nil {
			return append(nodes, id)
		}
	}
	return nodes
}

// TestDeltaCatchupPerNodeFilter walks every node with rules plus one
// without, from every since in the window. The filtered catch-up must carry
// only that node, bring its table to the latest one, and be byte for byte the
// body encoding/json writes; so must /v1/rules?node= (the [] of a node
// without a table) and, after compaction, the node-filtered full sync.
func TestDeltaCatchupPerNodeFilter(t *testing.T) {
	srv, ts := testServer(t)
	history := map[uint64]*rules.RuleSet{0: {Tables: map[topology.NodeID]*rules.Table{}}}
	for _, tm := range []float64{100, 130, 160, 190} {
		mustRecompute(t, srv, tm)
		history[srv.Current().RulesVersion] = srv.Current().Rules
	}
	sn := srv.Current()
	nodes := probeNodes(sn.Rules, sn.Problem.NumNodes)
	if len(nodes) < 2 || sn.Rules.Tables[topology.NodeID(nodes[len(nodes)-1])] != nil {
		t.Fatalf("nodes %v: want tables and one node without", nodes)
	}
	for _, node := range nodes {
		id := topology.NodeID(node)
		body := getBody(t, fmt.Sprintf("%s/v1/rules?node=%d", ts.URL, node))
		if want := mustJSON(nodeRulesResponse(sn.Rules.Tables[id])); !bytes.Equal(body, want) {
			t.Fatalf("/v1/rules?node=%d:\n got %s\nwant %s", node, body, want)
		}
		for since := uint64(0); since <= sn.RulesVersion; since++ {
			body := getBody(t, fmt.Sprintf("%s/v1/deltas?since=%d&node=%d", ts.URL, since, node))
			cu := srv.Changelog().Since(since)
			if want := mustJSON(deltasResponse(&cu, node)); !bytes.Equal(body, want) {
				t.Fatalf("since=%d node=%d:\n got %s\nwant %s", since, node, body, want)
			}
			var dr DeltasResponse
			if err := json.Unmarshal(body, &dr); err != nil {
				t.Fatal(err)
			}
			if dr.FullSync {
				t.Fatalf("since=%d node=%d: unexpected full sync", since, node)
			}
			got := history[since]
			for _, d := range dr.Deltas {
				for _, nd := range d.Nodes {
					if nd.Node != id {
						t.Fatalf("since=%d node=%d: delta %d carries node %d", since, node, d.Seq, nd.Node)
					}
				}
				got = ruledist.Apply(got, d)
			}
			if !reflect.DeepEqual(got.Tables[id], sn.Rules.Tables[id]) {
				t.Fatalf("since=%d: per-node catch-up diverged for node %d", since, node)
			}
		}
	}

	// Behind a two-version window every catch-up from 0 is a full sync.
	srv = New(testServer2Scenario(), baselines.ECMPWF{}, WithDeltaHistory(2))
	ts = httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for i := 0; i < 5; i++ {
		mustRecompute(t, srv, 100+30*float64(i))
	}
	sn = srv.Current()
	for _, node := range probeNodes(sn.Rules, sn.Problem.NumNodes) {
		body := getBody(t, fmt.Sprintf("%s/v1/deltas?since=0&node=%d", ts.URL, node))
		cu := srv.Changelog().Since(0)
		if want := mustJSON(deltasResponse(&cu, node)); !cu.FullSync || !bytes.Equal(body, want) {
			t.Fatalf("full sync node=%d (full sync %v):\n got %s\nwant %s", node, cu.FullSync, body, want)
		}
		var dr DeltasResponse
		if err := json.Unmarshal(body, &dr); err != nil {
			t.Fatal(err)
		}
		want := &rules.RuleSet{Tables: map[topology.NodeID]*rules.Table{}}
		if tbl := sn.Rules.Tables[topology.NodeID(node)]; tbl != nil {
			want.Tables[tbl.Node] = tbl
		}
		if !dr.FullSync || !reflect.DeepEqual(parseRuleSet(dr.Full), want) {
			t.Fatalf("full sync node=%d: %+v", node, dr)
		}
	}
}

func TestDeltasValidation(t *testing.T) {
	srv, ts := testServer(t)
	// Before the first cycle: 503.
	resp, err := http.Get(ts.URL + "/v1/deltas?since=0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deltas before first cycle: %d", resp.StatusCode)
	}
	mustRecompute(t, srv, 100)
	for _, q := range []string{"?since=abc", "?since=-1", "?node=abc", "?node=-2"} {
		resp, err := http.Get(ts.URL + "/v1/deltas" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("deltas%s -> %d, want 400", q, resp.StatusCode)
		}
	}
	// Up to date: empty answer.
	var dr DeltasResponse
	resp, err = http.Get(fmt.Sprintf("%s/v1/deltas?since=%d", ts.URL, srv.Changelog().Latest()))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if dr.FullSync || len(dr.Deltas) != 0 {
		t.Fatalf("up-to-date client got %+v", dr)
	}
}

func TestCompactionForcesFullSync(t *testing.T) {
	scen := testServer2Scenario()
	srv := New(scen, baselines.ECMPWF{}, WithDeltaHistory(2))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for i := 0; i < 5; i++ {
		mustRecompute(t, srv, 100+30*float64(i))
	}
	var dr DeltasResponse
	resp, err := http.Get(ts.URL + "/v1/deltas?since=0")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !dr.FullSync {
		t.Fatalf("client behind compaction window should full-sync: %+v", dr)
	}
	if !reflect.DeepEqual(parseRuleSet(dr.Full), srv.Current().Rules) {
		t.Fatal("full sync payload diverges from the live rules")
	}
}

// TestRestartedControllerFullSyncsAheadClient: a rule consumer that followed
// one controller to rules version 7 polls a restarted controller whose fresh
// changelog is at version 3. GET /v1/deltas?since=7 must bring it to exactly
// what /v1/rules serves, not leave it on the old incarnation's rules.
func TestRestartedControllerFullSyncsAheadClient(t *testing.T) {
	old, _ := testServer(t)
	for i := 0; i < 7; i++ {
		mustRecompute(t, old, 100+30*float64(i))
	}
	have, since := old.Current().Rules, old.Current().RulesVersion

	srv, ts := testServer(t)
	for i := 0; i < 3; i++ {
		mustRecompute(t, srv, 400+30*float64(i))
	}
	var dr DeltasResponse
	getJSON(t, fmt.Sprintf("%s/v1/deltas?since=%d", ts.URL, since), &dr)
	if dr.Latest != 3 || since != 7 {
		t.Fatalf("versions: client at %d, server latest %d; want 7 and 3", since, dr.Latest)
	}
	if dr.FullSync {
		have = parseRuleSet(dr.Full)
	}
	for _, d := range dr.Deltas {
		have = ruledist.Apply(have, d)
	}
	if got, want := mustJSON(rulesResponse(dr.Latest, have)), srv.Current().RulesBody(); !bytes.Equal(got, want) {
		t.Fatalf("client ahead of a restarted controller did not converge on /v1/rules: %+v", dr)
	}
}

// TestConcurrentServingUnderPublishes hammers the read endpoints from many
// goroutines while RecomputeContext publishes new snapshots — the race
// detector (scripts/race.sh) proves the lock-free read path. Half the delta
// readers follow the live version, so they take the cached delta of the
// snapshot while the changelog moves ahead of it; every delta body they get
// must chain from their version to its latest.
func TestConcurrentServingUnderPublishes(t *testing.T) {
	srv, ts := testServer(t)
	mustRecompute(t, srv, 100)
	stop := make(chan struct{})
	var pubErr error
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		tm := 101.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := srv.RecomputeContext(context.Background(), tm); err != nil {
				pubErr = err
				return
			}
			tm += 1
		}
	}()

	client := ts.Client()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			etag := ""
			for i := 0; i < 150; i++ {
				url := ts.URL + "/v1/status"
				since := uint64(i % 5)
				if w%4 == 3 {
					since = srv.Current().RulesVersion - 1
				}
				if w%2 == 1 {
					url = fmt.Sprintf("%s/v1/deltas?since=%d", ts.URL, since)
				}
				req, _ := http.NewRequest("GET", url, nil)
				if etag != "" && w%2 == 0 {
					req.Header.Set("If-None-Match", etag)
				}
				resp, err := client.Do(req)
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotModified {
					errs <- fmt.Errorf("%s -> %d", url, resp.StatusCode)
					return
				}
				if w%2 == 1 {
					var dr DeltasResponse
					if err := json.Unmarshal(body, &dr); err != nil {
						errs <- fmt.Errorf("%s: %v", url, err)
						return
					}
					at := since
					for _, d := range dr.Deltas {
						if d.Seq != at+1 {
							errs <- fmt.Errorf("%s: delta %d after version %d", url, d.Seq, at)
							return
						}
						at = d.Seq
					}
					if !dr.FullSync && at != dr.Latest {
						errs <- fmt.Errorf("%s: deltas end at %d, latest %d", url, at, dr.Latest)
						return
					}
				}
				if e := resp.Header.Get("ETag"); e != "" {
					etag = e
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	pubWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if pubErr != nil {
		t.Fatalf("publisher failed: %v", pubErr)
	}
}

// TestSnapshotReadPathZeroAllocs is the serving read path's contract
// (DESIGN.md §8): loading the snapshot and reading its cached bodies
// allocates nothing.
func TestSnapshotReadPathZeroAllocs(t *testing.T) {
	srv, _ := testServer(t)
	mustRecompute(t, srv, 100)
	var sink int
	allocs := testing.AllocsPerRun(1000, func() {
		sn := srv.Current()
		sink += len(sn.StatusBody()) + len(sn.AllocationBody()) + len(sn.RulesBody()) + len(sn.ETag())
		if sn.Degraded() || !etagMatch(sn.ETag(), sn.ETag()) {
			panic("degraded snapshot or etag mismatch")
		}
	})
	if allocs != 0 {
		t.Fatalf("snapshot read path allocated %v times per run (sink %d)", allocs, sink)
	}
	// The changelog read path is equally clean.
	log := srv.Changelog()
	allocs = testing.AllocsPerRun(1000, func() {
		cu := log.Since(0)
		sink += int(cu.Latest)
	})
	if allocs != 0 {
		t.Fatalf("changelog Since allocated %v times per run", allocs)
	}
}

// slowAllocator wraps a baseline with a delay so concurrent /recompute
// requests overlap deterministically.
type slowAllocator struct {
	delay time.Duration
	mu    sync.Mutex
	calls int
}

func (a *slowAllocator) Name() string { return "slow-ecmp" }

func (a *slowAllocator) Solve(p *te.Problem, opts ...solve.Option) (*te.Allocation, error) {
	a.mu.Lock()
	a.calls++
	a.mu.Unlock()
	time.Sleep(a.delay)
	return baselines.ECMPWF{}.Solve(p, opts...)
}

func (a *slowAllocator) solveCalls() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.calls
}

func testServer2Scenario() *sim.Scenario {
	return sim.NewScenario(constellation.Toy(5, 6), sim.ScenarioConfig{
		Mode:              topology.CrossShellLasers,
		Intensity:         6,
		Seed:              7,
		MinElevDeg:        5,
		FlowDurationScale: 0.05,
	})
}

// TestRecomputeCoalescing fires a burst of concurrent POST /recompute at a
// slow solver: one leads, the rest coalesce into at most one batched solve,
// and everyone gets a successful answer.
func TestRecomputeCoalescing(t *testing.T) {
	alloc := &slowAllocator{delay: 100 * time.Millisecond}
	srv := New(testServer2Scenario(), alloc)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	const burst = 6
	var wg sync.WaitGroup
	codes := make([]int, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"time_sec": %d}`, 100+i)
			resp, err := http.Post(ts.URL+"/v1/recompute", "application/json", strings.NewReader(body))
			if err != nil {
				codes[i] = -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d -> %d", i, c)
		}
	}
	// The burst overlapped, so the solver must have run fewer times than
	// there were requests: a leader plus at most one coalesced batch per
	// overlap window.
	if calls := alloc.solveCalls(); calls >= burst {
		t.Fatalf("no coalescing: %d solves for %d requests", calls, burst)
	}
}

// TestRecomputeQueueBound pins the admission control: with a queue bound of
// one, a long burst against a slow solver must reject some requests with
// 429 + Retry-After while never failing the others.
func TestRecomputeQueueBound(t *testing.T) {
	alloc := &slowAllocator{delay: 150 * time.Millisecond}
	srv := New(testServer2Scenario(), alloc, WithRecomputeQueue(1))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	const burst = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ok, busy int
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"time_sec": %d}`, 100+i)
			resp, err := http.Post(ts.URL+"/v1/recompute", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				ok++
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				busy++
			default:
				t.Errorf("request %d -> %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	if ok == 0 {
		t.Fatal("every request was rejected")
	}
	if ok+busy != burst {
		t.Fatalf("ok=%d busy=%d of %d", ok, busy, burst)
	}
	// With the tight bound and a burst that overlaps one slow solve, at
	// least one request must have been shed.
	if busy == 0 {
		t.Log("no request hit the queue bound (timing-dependent); coalescing absorbed the burst")
	}
}
