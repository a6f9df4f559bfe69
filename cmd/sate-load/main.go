// Command sate-load drives a read-heavy request mix against the controller's
// serving surface and reports latency percentiles per endpoint. It is the
// load half of the high-QPS serving redesign (DESIGN.md §14): snapshot GETs
// must stay fast and allocation-free while recomputes publish underneath.
//
// With no -url it spins up an in-process controller on a toy constellation,
// listens on an ephemeral port, and runs a background publisher so the mix
// exercises ETag churn and delta catch-up, not a frozen snapshot:
//
//	sate-load -duration 5 -conns 16 -out report.json
//	sate-load -url http://127.0.0.1:8080 -mix status=60,deltas=25,rules=10,recompute=5
//
// The exit status is nonzero when any request failed in transport or came
// back 5xx. 304 (conditional hit) and 429 (admission control shedding
// recomputes) are counted separately and are not failures.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sate/internal/controller"
	"sate/internal/sim"
)

// endpointStats accumulates per-endpoint outcomes for one worker; workers
// are merged after the run so the hot loop takes no locks.
type endpointStats struct {
	Requests  int     `json:"requests"`
	Errors    int     `json:"errors"`
	NotMod    int     `json:"not_modified"`
	Rejected  int     `json:"rejected"`
	Coalesced int     `json:"coalesced"`
	Bytes     int64   `json:"bytes"`
	P50Ms     float64 `json:"p50_ms"`
	P90Ms     float64 `json:"p90_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MaxMs     float64 `json:"max_ms"`

	lats []int64 // nanoseconds, merged then sorted once at report time
}

type report struct {
	URL         string                    `json:"url"`
	DurationSec float64                   `json:"duration_sec"`
	Conns       int                       `json:"conns"`
	Mix         string                    `json:"mix"`
	Requests    int                       `json:"requests"`
	Errors      int                       `json:"errors"`
	QPS         float64                   `json:"qps"`
	Endpoints   map[string]*endpointStats `json:"endpoints"`
}

// mixEntry is one weighted endpoint in the request mix.
type mixEntry struct {
	name   string
	weight int
}

func parseMix(s string) ([]mixEntry, error) {
	known := map[string]bool{"status": true, "allocation": true, "rules": true, "deltas": true, "recompute": true}
	var mix []mixEntry
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("mix entry %q: want name=weight", part)
		}
		if !known[name] {
			return nil, fmt.Errorf("mix entry %q: unknown endpoint (status|allocation|rules|deltas|recompute)", part)
		}
		w, err := strconv.Atoi(wstr)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("mix entry %q: bad weight", part)
		}
		if w > 0 {
			mix = append(mix, mixEntry{name, w})
		}
	}
	if len(mix) == 0 {
		return nil, errors.New("empty mix")
	}
	return mix, nil
}

// pick returns the mix entry for a roll in [0, total).
func pick(mix []mixEntry, roll int) string {
	for _, m := range mix {
		if roll < m.weight {
			return m.name
		}
		roll -= m.weight
	}
	return mix[len(mix)-1].name
}

// worker runs the request loop until the deadline. Each worker owns its RNG
// (deterministic per -seed) and its stats map; no shared mutable state.
func worker(client *http.Client, base string, mix []mixEntry, total int, seed int64, deadline time.Time, stats map[string]*endpointStats) {
	rng := rand.New(rand.NewSource(seed))
	etag := ""       // conditional GET state for /v1/status
	var since uint64 // delta catch-up cursor
	timeSec := 100.0
	for time.Now().Before(deadline) {
		name := pick(mix, rng.Intn(total))
		st := stats[name]
		if st == nil {
			st = &endpointStats{}
			stats[name] = st
		}
		var (
			req *http.Request
			err error
		)
		switch name {
		case "status":
			req, err = http.NewRequest(http.MethodGet, base+"/v1/status", nil)
			if err == nil && etag != "" && rng.Intn(2) == 0 {
				req.Header.Set("If-None-Match", etag)
			}
		case "allocation":
			req, err = http.NewRequest(http.MethodGet, base+"/v1/allocation", nil)
		case "rules":
			req, err = http.NewRequest(http.MethodGet, base+"/v1/rules", nil)
		case "deltas":
			req, err = http.NewRequest(http.MethodGet, base+"/v1/deltas?since="+strconv.FormatUint(since, 10), nil)
		case "recompute":
			timeSec += 0.25
			body := fmt.Sprintf(`{"time_sec": %g}`, timeSec)
			req, err = http.NewRequest(http.MethodPost, base+"/v1/recompute", strings.NewReader(body))
		}
		if err != nil {
			st.Requests++
			st.Errors++
			continue
		}
		start := time.Now()
		resp, err := client.Do(req)
		st.Requests++
		if err != nil {
			st.Errors++
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		cerr := resp.Body.Close()
		if rerr != nil || cerr != nil {
			st.Errors++
			continue
		}
		st.lats = append(st.lats, time.Since(start).Nanoseconds())
		st.Bytes += int64(len(body))
		switch {
		case resp.StatusCode == http.StatusNotModified:
			st.NotMod++
		case resp.StatusCode == http.StatusTooManyRequests && name == "recompute":
			st.Rejected++
		case resp.StatusCode >= 400:
			st.Errors++
			continue
		}
		if name == "status" {
			if e := resp.Header.Get("ETag"); e != "" {
				etag = e
			}
		}
		if name == "recompute" && resp.Header.Get("X-Sate-Coalesced") == "1" {
			st.Coalesced++
		}
		if name == "deltas" && resp.StatusCode == http.StatusOK {
			// Move the catch-up cursor like a real rule consumer: every
			// answer (deltas, full sync, up to date) brings it to latest —
			// a full sync from a restarted server moves it backwards.
			var dr struct {
				Latest uint64 `json:"latest"`
			}
			if err := json.Unmarshal(body, &dr); err != nil {
				// A 200 whose body does not decode is a serving bug, not
				// load shed — it must fail the run, not stall the cursor.
				st.Errors++
				continue
			}
			since = dr.Latest
		}
	}
}

func main() {
	// The in-process controller's scenario; -cons is the sim.Spec key (the
	// -seed below seeds the request mix, not the scenario).
	spec := sim.Spec{Cons: "toy-6x8", Solver: "ecmp-wf", ScenarioConfig: sim.ScenarioConfig{
		Intensity: 60, Seed: 7, MinElevDeg: 5,
		Users: 2000, UserClusters: 60, Gateways: 8, Relays: 4,
	}}
	spec.Flags(flag.CommandLine, "cons")
	var (
		url    = flag.String("url", "", "target base URL; empty runs an in-process controller on an ephemeral port")
		durSec = flag.Float64("duration", 5, "run duration, seconds")
		conns  = flag.Int("conns", 8, "concurrent client connections")
		mixStr = flag.String("mix", "status=60,allocation=10,rules=5,deltas=20,recompute=5", "weighted endpoint mix")
		pubSec = flag.Float64("publish-interval", 0.5, "in-process mode: background recompute interval, seconds (0 disables)")
		out    = flag.String("out", "", "write a JSON report here")
		seed   = flag.Int64("seed", 1, "request-mix RNG seed")
	)
	flag.Parse()

	mix, err := parseMix(*mixStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	total := 0
	for _, m := range mix {
		total += m.weight
	}

	base := *url
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if base == "" {
		ln, err := inProcess(ctx, spec, *pubSec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			if err := ln.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
		base = "http://" + ln.Addr().String()
		fmt.Printf("sate-load: in-process controller (%s) on %s\n", spec.Cons, base)
	}
	base = strings.TrimRight(base, "/")

	transport := &http.Transport{MaxIdleConns: *conns * 2, MaxIdleConnsPerHost: *conns * 2}
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}

	deadline := time.Now().Add(time.Duration(*durSec * float64(time.Second)))
	perWorker := make([]map[string]*endpointStats, *conns)
	var wg sync.WaitGroup
	startWall := time.Now()
	for i := 0; i < *conns; i++ {
		perWorker[i] = map[string]*endpointStats{}
		wg.Add(1)
		//lint:ignore no-naked-goroutine load-generator fan-out: each worker is an independent HTTP client loop, not solver parallelism
		go func(i int) {
			defer wg.Done()
			worker(client, base, mix, total, *seed+int64(i), deadline, perWorker[i])
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(startWall).Seconds()
	cancel()

	rep := merge(perWorker)
	rep.URL = base
	rep.DurationSec = elapsed
	rep.Conns = *conns
	rep.Mix = *mixStr
	rep.QPS = float64(rep.Requests) / elapsed

	printReport(rep)
	if *out != "" {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "sate-load: %d error responses\n", rep.Errors)
		os.Exit(1)
	}
}

// inProcess builds a controller on the spec's scenario, primes it with one cycle,
// serves it on an ephemeral port, and (optionally) keeps publishing fresh
// snapshots in the background so reads race real version churn.
func inProcess(ctx context.Context, spec sim.Spec, pubSec float64) (net.Listener, error) {
	scen, err := spec.Scenario()
	if err != nil {
		return nil, err
	}
	solver, err := spec.NewSolver()
	if err != nil {
		return nil, err
	}
	srv := controller.New(scen, solver)
	if err := srv.RecomputeContext(ctx, 100); err != nil {
		return nil, fmt.Errorf("priming cycle: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	//lint:ignore no-naked-goroutine server lifecycle, not compute parallelism: Serve blocks until the listener closes
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, net.ErrClosed) && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, err)
		}
	}()
	if pubSec > 0 {
		//lint:ignore no-naked-goroutine background publisher lifecycle: ticks recomputes for the run duration
		go func() {
			tick := time.NewTicker(time.Duration(pubSec * float64(time.Second)))
			defer tick.Stop()
			t := 105.0
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					t += 5
					if err := srv.RecomputeContext(ctx, t); err != nil && !errors.Is(err, context.Canceled) {
						fmt.Fprintln(os.Stderr, "publisher:", err)
					}
				}
			}
		}()
	}
	return ln, nil
}

// merge folds the per-worker stats into one report and computes percentiles.
func merge(perWorker []map[string]*endpointStats) *report {
	rep := &report{Endpoints: map[string]*endpointStats{}}
	for _, m := range perWorker {
		for name, st := range m {
			tot := rep.Endpoints[name]
			if tot == nil {
				tot = &endpointStats{}
				rep.Endpoints[name] = tot
			}
			tot.Requests += st.Requests
			tot.Errors += st.Errors
			tot.NotMod += st.NotMod
			tot.Rejected += st.Rejected
			tot.Coalesced += st.Coalesced
			tot.Bytes += st.Bytes
			tot.lats = append(tot.lats, st.lats...)
		}
	}
	for _, st := range rep.Endpoints {
		rep.Requests += st.Requests
		rep.Errors += st.Errors
		if len(st.lats) == 0 {
			continue
		}
		sort.Slice(st.lats, func(i, j int) bool { return st.lats[i] < st.lats[j] })
		st.P50Ms = ms(st.lats[len(st.lats)*50/100])
		st.P90Ms = ms(st.lats[len(st.lats)*90/100])
		st.P99Ms = ms(st.lats[len(st.lats)*99/100])
		st.MaxMs = ms(st.lats[len(st.lats)-1])
	}
	return rep
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func printReport(rep *report) {
	fmt.Printf("%d requests in %.2fs (%.0f req/s), %d errors\n", rep.Requests, rep.DurationSec, rep.QPS, rep.Errors)
	names := make([]string, 0, len(rep.Endpoints))
	for name := range rep.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-11s %9s %7s %7s %9s %9s %9s %9s\n", "endpoint", "reqs", "errs", "304s", "p50 ms", "p90 ms", "p99 ms", "max ms")
	for _, name := range names {
		st := rep.Endpoints[name]
		extra := ""
		if st.Rejected > 0 || st.Coalesced > 0 {
			extra = fmt.Sprintf("  (429: %d, coalesced: %d)", st.Rejected, st.Coalesced)
		}
		fmt.Printf("%-11s %9d %7d %7d %9.3f %9.3f %9.3f %9.3f%s\n",
			name, st.Requests, st.Errors, st.NotMod, st.P50Ms, st.P90Ms, st.P99Ms, st.MaxMs, extra)
	}
}
