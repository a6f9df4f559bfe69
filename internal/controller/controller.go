// Package controller implements the TE control center of Fig. 3 as an HTTP
// service: it periodically builds the TE problem from the live scenario
// state, computes an allocation with a pluggable solver (SaTE or any
// baseline), compiles it into per-satellite rules, and serves status,
// allocations and flow tables over JSON — the interface satellites (or an
// operator) would poll in the SDN workflow of Sec. 2.2.
//
// The serving side is built for high QPS (DESIGN.md §14): every publish
// produces an immutable Snapshot with pre-encoded JSON bodies, swapped in
// through one atomic pointer, so read endpoints take zero locks and perform
// zero allocations. The HTTP surface is versioned under /v1/ (/v1/status,
// /v1/allocation, /v1/rules, /v1/deltas, /v1/recompute); snapshot versions
// double as strong ETags so pollers sending If-None-Match get cheap 304s.
// Rule updates for satellites are served as a sequence-numbered delta
// changelog (internal/ruledist) on /v1/deltas, and POST /v1/recompute is
// admission-controlled: concurrent requests coalesce into one solve and a
// full pending batch is answered 429 + Retry-After.
//
// With a registry attached (WithRegistry), the server also exposes
// Prometheus-text metrics on GET /metrics and the standard pprof profiles
// under /debug/pprof/ (DESIGN.md §9). Neither endpoint spawns goroutines:
// metrics are pulled at scrape time and pprof handlers run on the serving
// goroutine, so no satelint no-naked-goroutine allowlist entry is needed.
package controller

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sate/internal/obs"
	"sate/internal/ruledist"
	"sate/internal/sim"
	"sate/internal/solve"
	"sate/internal/topology"
)

// Server is the control-center state machine plus its HTTP handlers.
type Server struct {
	scen   *sim.Scenario
	solver sim.Allocator

	registry   *obs.Registry
	metrics    srvObs
	solverOpts []solve.Option // pre-built so Recompute passes opts without allocating

	deltaHistory int // changelog window before compaction (WithDeltaHistory)
	maxQueue     int // pending /recompute batch bound (WithRecomputeQueue)

	// computeMu serializes whole TE cycles: the scenario (traffic process,
	// path DB) is single-writer state, and two racing /recompute requests
	// must not interleave phases. Everything below it is written only with
	// computeMu held.
	computeMu sync.Mutex
	// deg is the current failure streak; a copy travels inside every
	// published snapshot so readers never touch this field.
	deg degradedInfo
	// heapAllocs is the runtime/metrics sample the per-cycle allocation
	// gauge reads (reused every cycle; no stop-the-world).
	heapAllocs [1]metrics.Sample

	// snap is the live published snapshot: single writer (under computeMu),
	// lock-free readers. nil until the first successful cycle.
	snap atomic.Pointer[Snapshot]
	// log is the rule-delta changelog behind /v1/deltas; appends happen on
	// the publish path, reads are lock-free.
	log *ruledist.Changelog

	// gate is the /recompute admission-control state (admission.go).
	gate recomputeGate
}

// degradedInfo is the controller's failure-mode state. The authoritative
// copy lives on Server (computeMu); published snapshots carry a value copy.
type degradedInfo struct {
	// Failures counts consecutive failed cycles; 0 means healthy.
	Failures int
	// LastError is the message of the most recent failed cycle.
	LastError string
	// Satisfied is the last-good allocation re-scored against the topology
	// of the most recent failed cycle (honest degraded satisfaction); valid
	// only when SatisfiedOK.
	Satisfied   float64
	SatisfiedOK bool
	// Since is when the controller entered degraded mode.
	Since time.Time
}

// srvObs bundles the controller's metric handles, pre-resolved at New so the
// recompute path performs only atomic updates. Every handle is nil — and
// every update a no-op — when no registry is attached.
type srvObs struct {
	cycleSeconds *obs.Histogram
	cyclesTotal  *obs.Counter
	errorsTotal  *obs.Counter
	encodeErrors *obs.Counter
	satisfied    *obs.Gauge
	throughput   *obs.Gauge
	mlu          *obs.Gauge
	flows        *obs.Gauge
	rulesCount   *obs.Gauge
	cycleAlloc   *obs.Gauge
	spRules      *obs.Histogram
	spPublish    *obs.Histogram

	// Failure-mode metrics (DESIGN.md §10). degraded is 0/1; consecFails
	// tracks the current failure streak; retriesTotal counts backoff
	// re-attempts in the run loop; fallbackTotal counts failed cycles served
	// from the last good allocation; skippedTotal counts ticker intervals
	// that got no cycle because the previous one outran the cadence;
	// canceledTotal counts cycles abandoned by clean context cancellation
	// (NOT errors); monotonicDrops counts completed cycles whose publication
	// was dropped because newer state was already live.
	degraded       *obs.Gauge
	consecFails    *obs.Gauge
	retriesTotal   *obs.Counter
	fallbackTotal  *obs.Counter
	skippedTotal   *obs.Counter
	canceledTotal  *obs.Counter
	monotonicDrops *obs.Counter

	// Serving-layer metrics (DESIGN.md §14). publishes counts snapshot
	// swaps (good cycles and degraded re-publishes); snapVersion /
	// rulesVersionG export the live versions; http304 counts conditional
	// polls answered 304; coalesced counts /recompute requests that shared
	// a batched solve; rejected counts 429s from the full pending batch;
	// deltasReqs / fullSyncs count /v1/deltas traffic and how often a
	// client was behind the compaction window.
	publishes     *obs.Counter
	snapVersion   *obs.Gauge
	rulesVersionG *obs.Gauge
	http304       *obs.Counter
	coalesced     *obs.Counter
	rejected      *obs.Counter
	deltasReqs    *obs.Counter
	fullSyncs     *obs.Counter
}

func newSrvObs(reg *obs.Registry) srvObs {
	return srvObs{
		cycleSeconds: reg.Histogram("sate_controld_cycle_seconds", obs.DefLatencyBuckets),
		cyclesTotal:  reg.Counter("sate_controld_cycles_total"),
		errorsTotal:  reg.Counter("sate_controld_errors_total"),
		encodeErrors: reg.Counter("sate_controld_encode_errors_total"),
		satisfied:    reg.Gauge("sate_controld_satisfied_ratio"),
		throughput:   reg.Gauge("sate_controld_throughput_mbps"),
		mlu:          reg.Gauge("sate_controld_mlu"),
		flows:        reg.Gauge("sate_controld_flows"),
		rulesCount:   reg.Gauge("sate_controld_rules"),
		cycleAlloc:   reg.Gauge("sate_controld_cycle_alloc_bytes"),
		spRules:      reg.SpanHistogram(obs.PhaseRuleCompile),
		spPublish:    reg.SpanHistogram(obs.PhasePublish),

		degraded:       reg.Gauge("sate_controld_degraded"),
		consecFails:    reg.Gauge("sate_controld_consecutive_failures"),
		retriesTotal:   reg.Counter("sate_controld_retries_total"),
		fallbackTotal:  reg.Counter("sate_controld_fallback_cycles_total"),
		skippedTotal:   reg.Counter("sate_controld_skipped_cycles_total"),
		canceledTotal:  reg.Counter("sate_controld_canceled_cycles_total"),
		monotonicDrops: reg.Counter("sate_controld_nonmonotonic_drops_total"),

		publishes:     reg.Counter("sate_controld_snapshot_publishes_total"),
		snapVersion:   reg.Gauge("sate_controld_snapshot_version"),
		rulesVersionG: reg.Gauge("sate_controld_rules_version"),
		http304:       reg.Counter("sate_controld_http_304_total"),
		coalesced:     reg.Counter("sate_controld_recompute_coalesced_total"),
		rejected:      reg.Counter("sate_controld_recompute_rejected_total"),
		deltasReqs:    reg.Counter("sate_controld_deltas_requests_total"),
		fullSyncs:     reg.Counter("sate_controld_delta_full_syncs_total"),
	}
}

// Option configures a Server at construction.
type Option func(*Server)

// WithRegistry attaches an observability registry: per-cycle latency
// histogram and heap-allocation gauge, satisfied-demand / throughput / MLU
// gauges, error counters, the /metrics endpoint, and the per-solve
// histograms recorded by the solver itself. Nil leaves instrumentation off.
func WithRegistry(r *obs.Registry) Option {
	return func(s *Server) { s.registry = r }
}

// WithSolverOptions appends solve options passed on every cycle's Solve
// call — e.g. solve.WithDtype(solve.Float32), which sate-controld's
// -dtype float32 attaches, for the low-precision inference path. Cycles
// are serialized on an internal mutex, so a warm state attached here is
// never used by two solves at once.
func WithSolverOptions(opts ...solve.Option) Option {
	return func(s *Server) { s.solverOpts = append(s.solverOpts, opts...) }
}

// WithDeltaHistory sets how many rule-set versions the delta changelog
// retains before compaction (<= 0 selects ruledist.DefaultHistory). A
// client polling /v1/deltas from a version behind the window gets a full
// resync instead of deltas.
func WithDeltaHistory(n int) Option {
	return func(s *Server) { s.deltaHistory = n }
}

// WithRecomputeQueue bounds how many POST /recompute requests may wait in
// the pending coalescing batch behind an in-flight solve; further arrivals
// get 429 + Retry-After (<= 0 selects DefaultRecomputeQueue).
func WithRecomputeQueue(n int) Option {
	return func(s *Server) { s.maxQueue = n }
}

// New creates a controller over a scenario with the given solver.
func New(scen *sim.Scenario, solver sim.Allocator, opts ...Option) *Server {
	s := &Server{scen: scen, solver: solver}
	for _, o := range opts {
		o(s)
	}
	if s.maxQueue <= 0 {
		s.maxQueue = DefaultRecomputeQueue
	}
	s.log = ruledist.NewChangelog(s.deltaHistory)
	s.metrics = newSrvObs(s.registry)
	s.heapAllocs[0].Name = "/gc/heap/allocs:bytes"
	if s.registry != nil {
		s.solverOpts = append([]solve.Option{solve.WithRegistry(s.registry)}, s.solverOpts...)
	}
	return s
}

// Changelog exposes the rule-delta changelog (for harnesses and tests that
// replay catch-up client-side).
func (s *Server) Changelog() *ruledist.Changelog { return s.log }

// RecomputeContext runs one full TE workflow cycle at simulated time t:
// traffic matrix acquisition, topology determination, path
// (re)configuration, TE computation, and rule compilation. Cancelling the
// context abandons the cycle between phases (a phase in flight runs to
// completion — the solver is not preemptible).
//
// Cycles are serialized: concurrent calls queue on an internal mutex, and a
// completed cycle at an older simulated time than the published state is
// dropped at publication (sate_controld_nonmonotonic_drops_total) rather
// than rolling the served allocation backwards.
//
// A real cycle failure counts on sate_controld_errors_total and flips the
// controller into degraded mode (the last good allocation keeps being
// served, re-scored honestly when the failed cycle produced a topology). A
// context cancellation is NOT an error: it counts only on
// sate_controld_canceled_cycles_total, so a graceful shutdown or a client
// disconnect mid-solve leaves the error counter and degraded state alone.
func (s *Server) RecomputeContext(ctx context.Context, tSec float64) error {
	s.computeMu.Lock()
	defer s.computeMu.Unlock()
	m := &s.metrics
	cur, err := s.cycleLocked(ctx, tSec)
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) {
		m.canceledTotal.Inc()
		return err
	}
	m.errorsTotal.Inc()
	s.markDegraded(err, cur)
	return err
}

// heapAllocBytes reads the cumulative bytes allocated on the heap.
func (s *Server) heapAllocBytes() uint64 {
	metrics.Read(s.heapAllocs[:])
	return s.heapAllocs[0].Value.Uint64()
}

// cycleLocked runs one sim cycle (the scenario step, failure injection
// included, and the solve), compiles its rules and publishes the result. It
// returns the cycle even on failure when topology determination succeeded,
// so the caller can re-score the stale allocation against its problem.
func (s *Server) cycleLocked(ctx context.Context, tSec float64) (*sim.Cycle, error) {
	m := &s.metrics
	var allocBefore uint64
	if s.registry != nil {
		allocBefore = s.heapAllocBytes()
	}
	cycle := obs.StartTimer(m.cycleSeconds)
	c, err := s.scen.RunCycle(ctx, s.solver, tSec, s.solverOpts...)
	if err != nil {
		return c, err
	}
	if err := ctx.Err(); err != nil {
		return c, err
	}
	err = c.Compile()
	m.spRules.Observe(c.Stages.Compile.Seconds())
	if err != nil {
		return c, fmt.Errorf("controller: %w", err)
	}

	// Publish (snapshot.go): copy-on-publish under the monotonic-time guard
	// — a slower cycle that started earlier but computed an OLDER simulated
	// time must not overwrite newer published state (or its gauges).
	pub := obs.StartTimer(m.spPublish)
	published := s.publish(c)
	pub.End()
	// The cycle histogram covers publish too: changelog append and JSON
	// encoding are part of what a cycle costs.
	cycle.End()
	m.cyclesTotal.Inc()
	if !published {
		m.monotonicDrops.Inc()
		return c, nil
	}
	s.deg = degradedInfo{}

	m.degraded.Set(0)
	m.consecFails.Set(0)
	m.satisfied.Set(c.Problem.SatisfiedDemand(c.Alloc))
	m.throughput.Set(c.Alloc.Throughput())
	m.mlu.Set(c.Problem.MLU(c.Alloc))
	m.flows.Set(float64(len(c.Problem.Flows)))
	m.rulesCount.Set(float64(c.Rules.NumRules()))
	if s.registry != nil {
		m.cycleAlloc.Set(float64(s.heapAllocBytes() - allocBefore))
	}
	return c, nil
}

// markDegraded records a failed cycle: it bumps the consecutive-failure
// streak, and when the failed cycle got far enough to produce a topology it
// re-scores the live snapshot's cycle against that topology so /status and
// the satisfied-ratio gauge report what the stale rules can actually deliver
// (sim.Cycle.Satisfied, DESIGN.md §10). The updated degraded info is
// re-published as a new snapshot version so conditional pollers observe the
// transition. Called with computeMu held.
func (s *Server) markDegraded(cause error, cur *sim.Cycle) {
	m := &s.metrics
	if s.deg.Failures == 0 {
		s.deg.Since = time.Now()
	}
	s.deg.Failures++
	s.deg.LastError = cause.Error()
	m.degraded.Set(1)
	m.consecFails.Set(float64(s.deg.Failures))
	live := s.snap.Load()
	if live == nil {
		return
	}
	if cur != nil {
		s.deg.Satisfied, s.deg.SatisfiedOK = live.Satisfied(cur.Problem, cur.Problem.LinkSet()), true
		m.satisfied.Set(s.deg.Satisfied)
	}
	m.fallbackTotal.Inc()
	s.publishDegraded(live)
}

// Handler returns the HTTP routes: /healthz and the versioned surface under
// /v1/ (/v1/status, /v1/allocation, /v1/rules, /v1/deltas, /v1/recompute).
// With a registry attached it additionally serves GET /metrics (Prometheus
// text format 0.0.4) and the pprof profile endpoints under /debug/pprof/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		// A failed write to a health-check client is not actionable.
		_, _ = fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/allocation", s.handleAllocation)
	mux.HandleFunc("GET /v1/rules", s.handleRulesV1)
	mux.HandleFunc("GET /v1/deltas", s.handleDeltas)
	mux.HandleFunc("POST /v1/recompute", s.handleRecompute)
	if s.registry != nil {
		mux.Handle("GET /metrics", s.registry.Handler())
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// etagMatch reports whether an If-None-Match header value matches the
// snapshot's strong ETag (`*`, or any listed tag, W/ prefixes tolerated).
func etagMatch(header, etag string) bool {
	if header == "*" {
		return true
	}
	for header != "" {
		tok := header
		if i := strings.IndexByte(header, ','); i >= 0 {
			tok, header = header[:i], header[i+1:]
		} else {
			header = ""
		}
		tok = strings.TrimSpace(tok)
		tok = strings.TrimPrefix(tok, "W/")
		if tok == etag {
			return true
		}
	}
	return false
}

// serveCached answers a read endpoint from a snapshot's pre-encoded body:
// ETag always set, If-None-Match answered 304 without touching the body. A
// short write is counted on sate_controld_encode_errors_total (the client
// detects it via truncation; nothing else is actionable server-side).
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, sn *Snapshot, body []byte) {
	h := w.Header()
	h.Set("ETag", sn.etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, sn.etag) {
		s.metrics.http304.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body); err != nil {
		s.metrics.encodeErrors.Inc()
	}
}

// writeBody commits a 200 and writes a rule payload (wire.go). The status
// line goes out first, so a failure cannot turn into an error status after
// part of a body: an unencodable payload (ok false; the body is then the
// encode-failed fallback) and a short write are counted on
// sate_controld_encode_errors_total, and a client detects the latter by
// truncation.
func (s *Server) writeBody(w http.ResponseWriter, ok bool, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if !ok {
		s.metrics.encodeErrors.Inc()
	}
	if _, err := w.Write(body); err != nil {
		s.metrics.encodeErrors.Inc()
	}
}

// StatusResponse is the /status payload. While degraded, the served
// allocation is the last good one (stale): Degraded is true, SatisfiedFrac
// is the stale allocation re-scored against the most recent failed cycle's
// topology (when that cycle produced one), and ConsecutiveFailures /
// LastError / DegradedSinceUnix describe the failure streak.
type StatusResponse struct {
	Method          string  `json:"method"`
	Version         uint64  `json:"version"`
	RulesVersion    uint64  `json:"rules_version"`
	TimeSec         float64 `json:"time_sec"`
	Flows           int     `json:"flows"`
	TotalDemandMbps float64 `json:"total_demand_mbps"`
	ThroughputMbps  float64 `json:"throughput_mbps"`
	SatisfiedFrac   float64 `json:"satisfied_frac"`
	MLU             float64 `json:"mlu"`
	SolveLatencyMs  float64 `json:"solve_latency_ms"`
	NumRules        int     `json:"num_rules"`
	ComputedAtUnix  int64   `json:"computed_at_unix"`

	Degraded            bool   `json:"degraded"`
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
	LastError           string `json:"last_error,omitempty"`
	DegradedSinceUnix   int64  `json:"degraded_since_unix,omitempty"`
}

// handleStatus serves the status body of the live snapshot, encoded once at
// publish time.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	sn := s.Current()
	if sn == nil {
		http.Error(w, "no allocation computed yet", http.StatusServiceUnavailable)
		return
	}
	s.serveCached(w, r, sn, sn.statusJSON)
}

// AllocationEntry is one flow's allocation in the /allocation payload.
type AllocationEntry struct {
	Src        int       `json:"src"`
	Dst        int       `json:"dst"`
	DemandMbps float64   `json:"demand_mbps"`
	RateMbps   float64   `json:"rate_mbps"`
	PerPath    []float64 `json:"per_path_mbps"`
}

func (s *Server) handleAllocation(w http.ResponseWriter, r *http.Request) {
	sn := s.Current()
	if sn == nil {
		http.Error(w, "no allocation computed yet", http.StatusServiceUnavailable)
		return
	}
	s.serveCached(w, r, sn, sn.allocJSON)
}

// RuleEntry is one flow-table row in the /rules payload. RateMbps is the
// ingress split rate: the label's rate at the flow's source, 0 at a transit
// hop (rules.Rule).
type RuleEntry struct {
	Src      int     `json:"src"`
	Dst      int     `json:"dst"`
	Label    int     `json:"label"`
	Next     int     `json:"next"`
	RateMbps float64 `json:"rate_mbps"`
}

// handleRulesV1 serves GET /v1/rules: without ?node= the full pre-encoded
// table dump (RulesResponse), with ?node= one satellite's flow table.
func (s *Server) handleRulesV1(w http.ResponseWriter, r *http.Request) {
	sn := s.Current()
	if sn == nil {
		http.Error(w, "no allocation computed yet", http.StatusServiceUnavailable)
		return
	}
	if r.URL.Query().Get("node") == "" {
		s.serveCached(w, r, sn, sn.rulesJSON)
		return
	}
	s.serveNodeRules(w, r, sn)
}

func (s *Server) serveNodeRules(w http.ResponseWriter, r *http.Request, sn *Snapshot) {
	node, err := strconv.Atoi(r.URL.Query().Get("node"))
	if err != nil || node < 0 || node >= sn.Problem.NumNodes {
		http.Error(w, "invalid node id", http.StatusBadRequest)
		return
	}
	body, ok := nodeRulesBody(sn.Rules.Tables[topology.NodeID(node)])
	w.Header().Set("ETag", sn.etag)
	s.writeBody(w, ok, body)
}

// DeltasResponse is the GET /v1/deltas payload. Either Deltas carries the
// versions Since+1 .. Latest to apply in order, or FullSync is set and Full
// is the complete latest rule table dump: the client's version predates the
// compaction window, or lies beyond Latest (it was served by an earlier
// incarnation of the controller). A client at exactly Latest gets both
// empty.
type DeltasResponse struct {
	Since    uint64           `json:"since"`
	Latest   uint64           `json:"latest"`
	FullSync bool             `json:"full_sync,omitempty"`
	Full     []NodeRules      `json:"full,omitempty"`
	Deltas   []ruledist.Delta `json:"deltas,omitempty"`
}

// handleDeltas serves rule-update catch-up from the changelog:
// GET /v1/deltas?since=N[&node=M]. With ?node= the deltas (or the full
// sync) are filtered to one satellite's table; every delta keeps its
// sequence number so the client's version tracking is uniform.
func (s *Server) handleDeltas(w http.ResponseWriter, r *http.Request) {
	s.metrics.deltasReqs.Inc()
	if s.Current() == nil {
		http.Error(w, "no allocation computed yet", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()
	var since uint64
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "invalid since version", http.StatusBadRequest)
			return
		}
		since = n
	}
	node := -1
	if v := q.Get("node"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "invalid node id", http.StatusBadRequest)
			return
		}
		node = n
	}
	cu := s.log.Since(since)
	if cu.FullSync {
		s.metrics.fullSyncs.Inc()
	}
	// The catch-up of a consumer that followed the last cycle is exactly the
	// live snapshot's own delta, encoded at publish. The changelog may
	// already be a version ahead of the snapshot (publish appends, then
	// swaps), so the cached body is used only when the catch-up is that
	// one delta.
	if sn := s.Current(); node < 0 && len(cu.Deltas) == 1 && cu.Deltas[0].Seq == sn.RulesVersion && sn.cachedDeltas != nil {
		s.writeBody(w, true, sn.cachedDeltas)
		return
	}
	body, ok := deltasBody(&cu, node)
	s.writeBody(w, ok, body)
}

// recomputeRequest is the /recompute body.
type recomputeRequest struct {
	TimeSec float64 `json:"time_sec"`
}

// handleRecompute triggers a TE cycle through the admission gate
// (admission.go): concurrent requests coalesce into one solve at the
// newest requested time, and a full pending batch is answered 429 with a
// Retry-After derived from the last solve latency.
func (s *Server) handleRecompute(w http.ResponseWriter, r *http.Request) {
	var req recomputeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.TimeSec < 0 {
		http.Error(w, "time_sec must be non-negative", http.StatusBadRequest)
		return
	}
	coalesced, err := s.recomputeAdmit(r.Context(), req.TimeSec)
	if err != nil {
		if errors.Is(err, errBusy) {
			w.Header().Set("Retry-After", s.retryAfter())
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		}
		if errors.Is(err, context.Canceled) {
			// The solve was abandoned by a cancellation the gate did not
			// introduce (it detaches request contexts); surface the de-facto
			// "client closed request" status rather than a server failure.
			w.WriteHeader(499)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if coalesced {
		w.Header().Set("X-Sate-Coalesced", "1")
	}
	s.handleStatus(w, r)
}

// retryAfter sizes the 429 Retry-After hint from the last published solve
// latency (at least 1 s).
func (s *Server) retryAfter() string {
	secs := int64(1)
	if sn := s.Current(); sn != nil {
		if d := int64(sn.Stages.Solve/time.Second) + 1; d > secs {
			secs = d
		}
	}
	return strconv.FormatInt(secs, 10)
}

// injectFailures sets the scenario's standing failure injection; the
// scenario is single-writer state, so it changes only between cycles.
func (s *Server) injectFailures(frac float64, rng *rand.Rand) {
	s.computeMu.Lock()
	defer s.computeMu.Unlock()
	s.scen.InjectFailures(frac, rng)
}

// RunConfig parameterises the periodic TE workflow loop.
type RunConfig struct {
	// StartSec is the simulated time of the first cycle.
	StartSec float64
	// IntervalSec is both the wall-clock tick and the simulated-time advance
	// per cycle. Simulated time is slaved to the wall clock: when a cycle
	// (or a retry storm) outruns the cadence, the loop advances simulated
	// time by every elapsed interval and counts the cycles that never ran on
	// sate_controld_skipped_cycles_total.
	IntervalSec float64

	// CycleTimeoutSec bounds one cycle (problem build + solve + rule
	// compilation). 0 defaults to 10×IntervalSec; negative disables the
	// timeout. A timed-out cycle is a cycle failure (retried with backoff),
	// not a shutdown.
	CycleTimeoutSec float64
	// RetryBaseSec is the first retry backoff after a failed cycle
	// (default IntervalSec/4). Subsequent consecutive failures double it.
	RetryBaseSec float64
	// RetryMaxSec caps the exponential backoff (default 4×IntervalSec).
	RetryMaxSec float64

	// FailFrac > 0 enables chaos mode: while the loop runs, every cycle's
	// topology passes through failure injection
	// (sim.Scenario.InjectFailures) with this fraction of links removed. The
	// controller must survive the resulting solver stress — this is the live
	// consumer of the failure machinery the emulation literature asks for.
	FailFrac float64
	// ChaosSeed seeds the chaos RNG (default 1); runs are reproducible for a
	// given seed and cadence.
	ChaosSeed int64
}

// RunContext drives the periodic TE workflow: every interval of wall time it
// advances simulated time by the same amount and recomputes. A failed cycle
// does NOT terminate the loop: the controller flips to degraded mode, keeps
// serving the last good allocation, and retries with capped exponential
// backoff until a cycle succeeds. RunContext blocks until the context is
// cancelled (returning ctx.Err()).
//
// Scheduling model: cycle i belongs at wall time start+i·interval and runs
// at simulated time StartSec+i·IntervalSec. After every wait (tick or retry
// backoff) the loop re-derives the cycle index from the wall clock, so a
// slow cycle or a long retry storm never lets simulated time fall behind
// wall-clock cadence — missed indices are counted as skipped cycles, and a
// retry that stays within the same interval genuinely re-attempts the same
// cycle.
func (s *Server) RunContext(ctx context.Context, cfg RunConfig) error {
	interval := time.Duration(cfg.IntervalSec * float64(time.Second))
	if interval <= 0 {
		return fmt.Errorf("controller: RunConfig.IntervalSec must be positive, got %g", cfg.IntervalSec)
	}
	timeout := time.Duration(cfg.CycleTimeoutSec * float64(time.Second))
	if cfg.CycleTimeoutSec == 0 {
		timeout = 10 * interval
	} else if cfg.CycleTimeoutSec < 0 {
		timeout = 0
	}
	base := time.Duration(cfg.RetryBaseSec * float64(time.Second))
	if base <= 0 {
		base = interval / 4
	}
	if base <= 0 {
		base = time.Millisecond
	}
	maxBackoff := time.Duration(cfg.RetryMaxSec * float64(time.Second))
	if maxBackoff <= 0 {
		maxBackoff = 4 * interval
	}
	if maxBackoff < base {
		maxBackoff = base
	}
	if cfg.FailFrac > 0 {
		seed := cfg.ChaosSeed
		if seed == 0 {
			seed = 1
		}
		s.injectFailures(cfg.FailFrac, rand.New(rand.NewSource(seed)))
		defer s.injectFailures(0, nil)
	}

	// attempt runs one cycle under the per-cycle timeout. It returns
	// ctx.Err() when the PARENT context ended (shut down), the cycle error
	// otherwise (a per-cycle deadline is a failure, not a shutdown).
	attempt := func(t float64) error {
		cctx, cancel := ctx, context.CancelFunc(func() {})
		if timeout > 0 {
			cctx, cancel = context.WithTimeout(ctx, timeout)
		}
		err := s.RecomputeContext(cctx, t)
		cancel()
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	// wait sleeps d, returning early with ctx.Err() when the context is
	// cancelled.
	wait := func(d time.Duration) error {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
			return nil
		}
	}

	m := &s.metrics
	start := time.Now()
	idx := 0         // cycle index being attempted
	lastIdx := -1    // last attempted index, to tell retries from fresh cycles
	consecutive := 0 // consecutive failed attempts, drives the backoff
	for {
		if idx == lastIdx {
			m.retriesTotal.Inc()
		}
		lastIdx = idx
		err := attempt(cfg.StartSec + float64(idx)*cfg.IntervalSec)
		var sleep time.Duration
		switch {
		case err == nil:
			consecutive = 0
			sleep = time.Until(start.Add(time.Duration(idx+1) * interval))
			if sleep < 0 {
				sleep = 0
			}
		case ctx.Err() != nil:
			return ctx.Err()
		case errors.Is(err, context.Canceled):
			// The cycle observed a cancellation that was not the parent
			// context's (cannot happen with the contexts run builds, but a
			// custom Allocator could surface one); treat as a failure.
			fallthrough
		default:
			consecutive++
			sleep = base << (consecutive - 1)
			if sleep > maxBackoff || sleep < base { // also catches shift overflow
				sleep = maxBackoff
			}
		}
		if werr := wait(sleep); werr != nil {
			return werr
		}
		// Re-derive the cycle index from the wall clock. After a successful
		// cycle the sleep landed at or past the next tick, so the index
		// always advances; after a retry backoff it may stay put (retry the
		// same cycle) or jump (the storm outran the cadence).
		next := int(time.Since(start) / interval)
		if next < idx {
			next = idx
		}
		if err == nil && next == idx {
			next = idx + 1
		}
		if skipped := next - idx - 1; skipped > 0 {
			m.skippedTotal.Add(uint64(skipped))
		}
		idx = next
	}
}
