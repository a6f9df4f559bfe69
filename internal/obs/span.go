package obs

import "time"

// Span phase labels used across the repo (DESIGN.md §9). Instrumented code
// passes these constants so vec lookups never build strings on hot paths.
const (
	PhaseGraphBuild     = "graph_build"     // TE-graph construction (core.BuildTEGraph)
	PhaseForward        = "forward"         // GNN forward pass
	PhaseBackward       = "backward"        // reverse-mode accumulation
	PhaseAdamStep       = "adam_step"       // optimizer update
	PhasePathPrecompute = "path_precompute" // problem build incl. k-shortest fan-out
	PhaseLPSolve        = "lp_solve"        // simplex / GK reference solve
	PhaseDecode         = "decode"          // score/gate decoding + trim
	PhaseRuleCompile    = "rule_compile"    // per-satellite rule compilation
	PhasePublish        = "publish"         // changelog append + payload encoding + snapshot swap
	PhaseShardPartition = "shard_partition" // shard link/flow classification + dirty diff
	PhaseShardSolve     = "shard_solve"     // concurrent per-shard sub-solves
	PhaseShardStitch    = "shard_stitch"    // boundary-flow residual reconciliation
)

// spanSeconds is the histogram family every span records into, partitioned
// by phase label.
const spanSeconds = "sate_span_seconds"

// Span measures one timed phase. It is a value type: starting and ending a
// span performs no heap allocation, so spans may wrap code inside
// 0-allocs/op hot loops. The zero Span (from a nil registry) is a no-op.
//
// Spans nest lexically: a caller that holds an open span and calls into code
// that opens its own records both durations independently — the outer phase
// includes the inner one. The per-phase histograms therefore decompose, not
// partition, wall time (DESIGN.md §9).
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan begins a span for the given phase label. phase should be one of
// the Phase* constants (or any interned string — building the label
// dynamically would allocate on every call).
func (r *Registry) StartSpan(phase string) Span {
	if r == nil {
		return Span{}
	}
	return Span{h: r.HistogramVec(spanSeconds, "phase", DefLatencyBuckets).With(phase), start: time.Now()}
}

// SpanHistogram resolves the per-phase histogram without starting a span —
// for callers that pre-resolve handles or assert on recorded counts.
func (r *Registry) SpanHistogram(phase string) *Histogram {
	if r == nil {
		return nil
	}
	return r.HistogramVec(spanSeconds, "phase", DefLatencyBuckets).With(phase)
}

// StartTimer begins a span that records into an explicit histogram (e.g. a
// vec child resolved once by the caller). A nil histogram yields a no-op
// span.
func StartTimer(h *Histogram) Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, start: time.Now()}
}

// End stops the span and records its duration in seconds. Safe to call on
// the zero Span.
func (s Span) End() {
	if s.h == nil {
		return
	}
	s.h.Observe(time.Since(s.start).Seconds())
}
