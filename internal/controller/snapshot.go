package controller

import (
	"encoding/json"
	"strconv"
	"time"

	"sate/internal/ruledist"
	"sate/internal/sim"
)

// Snapshot is one immutable published controller state. Every publish —
// a successful TE cycle or a degraded re-publish after a failed one —
// builds a complete new Snapshot (JSON bodies pre-encoded, ETag included)
// and swaps it in with one atomic pointer store. Readers load the pointer
// and serve the cached bytes: zero locks, zero allocations, and nothing a
// reader touches is written after publish (DESIGN.md §14).
type Snapshot struct {
	// Version numbers every publish, including degraded re-publishes; it is
	// the ETag (`"v<Version>"`) served on every read endpoint.
	Version uint64
	// RulesVersion is the changelog sequence number of Rules. Only
	// successful cycles advance it; /v1/deltas catch-up is relative to it.
	RulesVersion uint64

	// Cycle is the served TE cycle: problem, allocation, verified rules and
	// stage times. After publish only the compute path touches it, through
	// its computeMu-guarded score view (sim.Cycle.Satisfied).
	*sim.Cycle
	ComputedAt time.Time

	deg degradedInfo

	statusJSON []byte
	allocJSON  []byte
	rulesJSON  []byte
	// cachedDeltas is the GET /v1/deltas?since=RulesVersion-1 body, written
	// at publish alongside rulesJSON (writeRules): the catch-up every
	// consumer that followed the last cycle asks for next, whose one delta
	// produced Rules. Nil when either rule payload could not be encoded.
	cachedDeltas []byte
	etag         string
}

// Current returns the live published snapshot (nil before the first cycle).
// The returned value is immutable and remains valid forever; later
// publishes swap in a new pointer and never touch old snapshots.
func (s *Server) Current() *Snapshot {
	return s.snap.Load()
}

// ETag returns the strong entity tag of this snapshot, `"v<Version>"`.
func (sn *Snapshot) ETag() string { return sn.etag }

// StatusBody returns the pre-encoded /v1/status JSON body.
func (sn *Snapshot) StatusBody() []byte { return sn.statusJSON }

// AllocationBody returns the pre-encoded /v1/allocation JSON body.
func (sn *Snapshot) AllocationBody() []byte { return sn.allocJSON }

// RulesBody returns the pre-encoded full /v1/rules JSON body.
func (sn *Snapshot) RulesBody() []byte { return sn.rulesJSON }

// Degraded reports whether this snapshot serves a stale allocation after
// one or more failed cycles.
func (sn *Snapshot) Degraded() bool { return sn.deg.Failures > 0 }

// statusResponse assembles the status payload for this snapshot.
func (sn *Snapshot) statusResponse(method string) StatusResponse {
	resp := StatusResponse{
		Method:          method,
		Version:         sn.Version,
		RulesVersion:    sn.RulesVersion,
		TimeSec:         sn.TimeSec,
		Flows:           len(sn.Problem.Flows),
		TotalDemandMbps: sn.Problem.TotalDemand(),
		ThroughputMbps:  sn.Alloc.Throughput(),
		SatisfiedFrac:   sn.Problem.SatisfiedDemand(sn.Alloc),
		MLU:             sn.Problem.MLU(sn.Alloc),
		SolveLatencyMs:  float64(sn.Stages.Solve.Nanoseconds()) / 1e6,
		NumRules:        sn.Rules.NumRules(),
		ComputedAtUnix:  sn.ComputedAt.Unix(),
	}
	if sn.deg.Failures > 0 {
		resp.Degraded = true
		resp.ConsecutiveFailures = sn.deg.Failures
		resp.LastError = sn.deg.LastError
		resp.DegradedSinceUnix = sn.deg.Since.Unix()
		if sn.deg.SatisfiedOK {
			resp.SatisfiedFrac = sn.deg.Satisfied
		}
	}
	return resp
}

// mustJSON marshals v with a trailing newline (json.Encoder's framing). The
// payload types contain only marshalable fields, so an error is a
// programming bug; the fallback keeps serving syntactically valid JSON rather
// than panicking the publish path.
func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte(`{"error":"encode failed"}` + "\n")
	}
	return append(b, '\n')
}

// encodeStatus (re)builds the ETag and cached status body. Degraded
// re-publishes call only this: the allocation and rules bodies are shared
// byte-for-byte with the last good snapshot.
func (sn *Snapshot) encodeStatus(method string) {
	sn.etag = `"v` + strconv.FormatUint(sn.Version, 10) + `"`
	sn.statusJSON = mustJSON(sn.statusResponse(method))
}

// encode pre-builds every cached body for a freshly computed snapshot; d is
// the changelog delta that produced its rules.
func (sn *Snapshot) encode(method string, d *ruledist.Delta) {
	sn.encodeStatus(method)
	sn.rulesJSON, sn.cachedDeltas = writeRules(sn.RulesVersion, sn.Rules, d)
	sn.allocJSON = allocationBody(sn.Problem, sn.Alloc)
}

// NodeRules is one satellite's flow table in the full /v1/rules payload.
type NodeRules struct {
	Node  int         `json:"node"`
	Rules []RuleEntry `json:"rules"`
}

// RulesResponse is the full-rule-set payload of GET /v1/rules (no ?node=):
// every table, nodes ascending, rules in compiled (src, dst, label) order.
// Applying /v1/deltas catch-up deltas client-side converges to exactly this
// content (TestDeltaCatchup).
type RulesResponse struct {
	RulesVersion uint64      `json:"rules_version"`
	Tables       []NodeRules `json:"tables"`
}

// publish swaps in the snapshot of a successful cycle under the monotonic
// guard: a slower cycle that computed an OLDER simulated time than the live
// snapshot is dropped (counted on sate_controld_nonmonotonic_drops_total)
// rather than rolling the served allocation backwards. Called with
// computeMu held — the single writer of both the changelog and the pointer.
// c must be compiled (sim.Cycle.Compile).
func (s *Server) publish(c *sim.Cycle) bool {
	cur := s.snap.Load()
	if cur != nil && c.TimeSec < cur.TimeSec {
		return false
	}
	version := s.log.Append(c.Rules)
	next := &Snapshot{Version: 1, RulesVersion: version, Cycle: c, ComputedAt: time.Now()}
	if cur != nil {
		next.Version = cur.Version + 1
	}
	cu := s.log.Since(version - 1)
	next.encode(s.solver.Name(), &cu.Deltas[0])
	s.snap.Store(next)

	m := &s.metrics
	m.publishes.Inc()
	m.snapVersion.Set(float64(next.Version))
	m.rulesVersionG.Set(float64(next.RulesVersion))
	return true
}

// publishDegraded re-publishes the live snapshot with the current degraded
// info and a bumped version: pollers see the state change through the ETag,
// and the allocation and rules bodies are shared with live, not re-encoded.
// Called with computeMu held.
func (s *Server) publishDegraded(live *Snapshot) {
	next := *live
	next.Version++
	next.deg = s.deg
	next.encodeStatus(s.solver.Name())
	s.snap.Store(&next)
	s.metrics.publishes.Inc()
	s.metrics.snapVersion.Set(float64(next.Version))
}
