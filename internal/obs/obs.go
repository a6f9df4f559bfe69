// Package obs is the repo's observability subsystem: a stdlib-only metrics
// registry (counters, gauges, fixed-bucket histograms), lightweight span
// tracing for the compute phases of the TE pipeline, and Prometheus text
// exposition (prom.go) that controld mounts next to net/http/pprof.
//
// Design constraints (DESIGN.md §9):
//
//   - Zero allocation on the hot path. Recording into an existing metric is
//     a handful of atomic operations; looking a metric up by a constant name
//     (or a vec child by an interned label value) is a lock-free-read map
//     access. The solve and training hot paths stay at 0 allocs/op with a
//     registry attached (TestSolveObsAddsZeroAllocs).
//   - Toggleable. A nil *Registry — and every metric handle obtained from
//     one — is a valid no-op, so instrumented code never branches on an
//     "enabled" flag.
//   - Deterministic snapshots. Exposition sorts families and label values,
//     so two scrapes of the same state render byte-identical output.
//   - No goroutines. Metrics are pulled at scrape time; nothing in this
//     package spawns background work, keeping satelint's no-naked-goroutine
//     invariant intact with no allowlist entry.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. The zero value is not usable; construct with
// NewRegistry. A nil *Registry is a valid no-op sink: every method returns
// nil/zero handles whose methods are themselves no-ops.
type Registry struct {
	mu          sync.RWMutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	hists       map[string]*Histogram
	histVecs    map[string]*HistogramVec
	counterVecs map[string]*CounterVec
	goRuntime   bool
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		hists:       make(map[string]*Histogram),
		histVecs:    make(map[string]*HistogramVec),
		counterVecs: make(map[string]*CounterVec),
	}
}

// CollectGoRuntime makes exposition include Go runtime gauges (heap bytes,
// cumulative allocs, GC cycles, goroutine count) sampled at scrape time.
func (r *Registry) CollectGoRuntime() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.goRuntime = true
	r.mu.Unlock()
}

// Counter returns the registered counter, creating it on first use.
// Returns nil (a no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the registered gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the registered histogram, creating it with the given
// bucket upper bounds on first use (later calls reuse the first bounds).
// Bounds must be sorted ascending; an implicit +Inf bucket is appended.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// HistogramVec returns the registered histogram family partitioned by one
// label, creating it on first use.
func (r *Registry) HistogramVec(name, label string, bounds []float64) *HistogramVec {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	v := r.histVecs[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = r.histVecs[name]; v == nil {
		v = &HistogramVec{label: label, bounds: append([]float64(nil), bounds...), children: make(map[string]*Histogram)}
		r.histVecs[name] = v
	}
	return v
}

// CounterVec returns the registered counter family partitioned by one label,
// creating it on first use.
func (r *Registry) CounterVec(name, label string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	v := r.counterVecs[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = r.counterVecs[name]; v == nil {
		v = &CounterVec{label: label, children: make(map[string]*Counter)}
		r.counterVecs[name] = v
	}
	return v
}

// Counter is a monotonically increasing counter. All methods are safe on a
// nil receiver (no-op) and for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (callers pass non-negative deltas; this is not enforced on the
// hot path).
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (CAS loop; no allocation).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bounds are upper bounds
// (inclusive, Prometheus `le` semantics) with an implicit +Inf bucket.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts here are small (≤ ~16) and the scan is
	// branch-predictable, beating binary search at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// HistogramVec is a histogram family partitioned by one label. With on an
// already-seen label value is a lock-free-read map access — no allocation.
type HistogramVec struct {
	label    string
	bounds   []float64
	mu       sync.RWMutex
	children map[string]*Histogram
}

// With returns the child histogram for the label value, creating it on first
// use. Callers on hot paths pass interned/constant strings so the steady
// state performs no allocation.
func (v *HistogramVec) With(value string) *Histogram {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	h := v.children[value]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.children[value]; h == nil {
		h = newHistogram(v.bounds)
		v.children[value] = h
	}
	return h
}

// CounterVec is a counter family partitioned by one label.
type CounterVec struct {
	label    string
	mu       sync.RWMutex
	children map[string]*Counter
}

// With returns the child counter for the label value, creating it on first
// use.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	c := v.children[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.children[value]; c == nil {
		c = &Counter{}
		v.children[value] = c
	}
	return c
}

// DefLatencyBuckets are the default bounds (seconds) for solve/step latency
// histograms: 100µs to ~2 min, roughly ×3 per bucket — wide enough to span
// SaTE's millisecond inference and an LP solver's tens of seconds.
var DefLatencyBuckets = []float64{
	1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10, 30, 120,
}

// sortedKeys returns map keys in sorted order (snapshot helper).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
