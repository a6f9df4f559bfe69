package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one cycle share its index;
// a root span ("cycle", "controller.recompute") has no parent, every other
// span is a child of its cycle's "cycle" span.
type span struct {
	name    string
	episode int
	cycle   int
	start   time.Duration // since recorder creation
	dur     time.Duration
	root    bool
}

// recorder collects what one run measures: per-stage samples keyed by the
// metric stem they feed ("core.solve_ms", "rules.count", ...) and, on traced
// episodes, the spans themselves. It is kept in memory and only turned into
// metrics (or a trace file) after the measured phase ends.
type recorder struct {
	t0      time.Time
	samples map[string][]float64
	spans   []span

	// traced is set per episode; while false, stage/observe are no-ops so
	// an untraced cycle pays one branch per layer boundary and nothing else.
	traced  bool
	episode int
	cycle   int

	heap [2]metrics.Sample
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now(), samples: make(map[string][]float64)}
	r.heap[0].Name = "/gc/heap/allocs:objects"
	r.heap[1].Name = "/gc/heap/allocs:bytes"
	return r
}

// allocs reads the runtime's cumulative heap-allocation counters. Unlike
// runtime.ReadMemStats it does not stop the world, so bracketing a call with
// it stays well inside the 2 % the harness may add to a traced cycle.
func (r *recorder) allocs() (objects, bytes uint64) {
	metrics.Read(r.heap[:])
	return r.heap[0].Value.Uint64(), r.heap[1].Value.Uint64()
}

// lap brackets a stretch of product work — what the caller of the system
// waits for and pays for — on every episode, traced or not.
type lap struct {
	start time.Time
	bytes uint64
}

func (r *recorder) lap() lap {
	_, b := r.allocs()
	return lap{time.Now(), b}
}

// add closes a lap into the cycle's end-to-end time and allocation volume.
func (o *output) add(r *recorder, l lap) {
	o.ms += ms(time.Since(l.start))
	_, b := r.allocs()
	o.allocMB += float64(b-l.bytes) / 1e6
}

// metered runs fn as a stage and, on traced episodes, also records how many
// objects and bytes it allocated under "<name>_allocs" and "<name>_alloc_mb".
func (r *recorder) metered(name string, fn func()) time.Duration {
	var o0, b0 uint64
	if r.traced {
		o0, b0 = r.allocs()
	}
	t := time.Now()
	fn()
	d := r.stage(name, t)
	if r.traced {
		o1, b1 := r.allocs()
		r.observe(name+"_allocs", float64(o1-o0))
		r.observe(name+"_alloc_mb", float64(b1-b0)/1e6)
	}
	return d
}

// stage closes a span opened at start: on traced episodes it records the
// span and a "<name>_ms" sample. It returns the elapsed time either way so
// callers can sum the product's cycle time without a second clock read.
func (r *recorder) stage(name string, start time.Time) time.Duration {
	d := time.Since(start)
	if r.traced {
		r.spans = append(r.spans, span{name: name, episode: r.episode, cycle: r.cycle, start: start.Sub(r.t0), dur: d})
		r.samples[name+"_ms"] = append(r.samples[name+"_ms"], ms(d))
	}
	return d
}

// root records a parentless span (no sample: callers derive what they need).
func (r *recorder) root(name string, start time.Time, d time.Duration) {
	if r.traced {
		r.spans = append(r.spans, span{name: name, episode: r.episode, cycle: r.cycle, start: start.Sub(r.t0), dur: d, root: true})
	}
}

// observe records a count or size at a layer boundary on traced episodes.
func (r *recorder) observe(key string, v float64) {
	if r.traced {
		r.samples[key] = append(r.samples[key], v)
	}
}

// always records a sample on every episode, traced or not.
func (r *recorder) always(key string, v float64) {
	r.samples[key] = append(r.samples[key], v)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty series so an absent layer reads
// as zero work rather than NaN.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func (r *recorder) p50(key string) float64 { return percentile(r.samples[key], 0.5) }
func (r *recorder) p90(key string) float64 { return percentile(r.samples[key], 0.9) }

func (r *recorder) sum(key string) float64 {
	var s float64
	for _, v := range r.samples[key] {
		s += v
	}
	return s
}

func (r *recorder) max(key string) float64 {
	var m float64
	for _, v := range r.samples[key] {
		m = math.Max(m, v)
	}
	return m
}

// liveHeapMB is the heap occupied by objects (live or not yet swept), read
// without stopping the world.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// traceEvent is one Chrome trace-event ("X" = complete event, µs units).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeTrace writes the recorded spans as Chrome trace-event JSON (load in
// chrome://tracing or Perfetto). Root spans go on tid 0, children on tid 1,
// so a cycle and the stages that partition it stack visibly.
func (r *recorder) writeTrace(path string) error {
	events := make([]traceEvent, 0, len(r.spans))
	for _, s := range r.spans {
		tid := 1
		if s.root {
			tid = 0
		}
		events = append(events, traceEvent{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur.Nanoseconds()) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]int{"episode": s.episode, "cycle": s.cycle},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// partitionGap returns, per traced cycle, the share of the "cycle" span its
// child spans leave unattributed — the harness's own time between stages.
func (r *recorder) partitionGap() (gapMs, frac []float64) {
	type key struct{ episode, cycle int }
	total := map[key]time.Duration{}
	kids := map[key]time.Duration{}
	var order []key
	for _, s := range r.spans {
		k := key{s.episode, s.cycle}
		switch {
		case s.root && s.name == "cycle":
			total[k] = s.dur
			order = append(order, k)
		case !s.root:
			kids[k] += s.dur
		}
	}
	for _, k := range order {
		gap := total[k] - kids[k]
		gapMs = append(gapMs, ms(gap))
		frac = append(frac, float64(gap)/float64(total[k]))
	}
	return gapMs, frac
}
