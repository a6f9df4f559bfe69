package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.CollectGoRuntime()
	r.Counter("c").Inc()
	r.Gauge("g").Set(1)
	r.Gauge("g").Add(1)
	r.Histogram("h", DefLatencyBuckets).Observe(1)
	r.HistogramVec("hv", "l", DefLatencyBuckets).With("x").Observe(1)
	r.CounterVec("cv", "l").With("x").Add(2)
	r.StartSpan(PhaseForward).End()
	StartTimer(r.SpanHistogram(PhaseForward)).End()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry wrote %q", buf.String())
	}
}

func TestCounterGaugeValues(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if c2 := r.Counter("requests_total"); c2 != c {
		t.Fatal("same name returned a different counter")
	}
	g := r.Gauge("temp")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 2, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	if got := h.Sum(); got != 103.5 {
		t.Fatalf("sum = %v, want 103.5", got)
	}
	// le semantics: 0.5 and 1 land in le="1", 2 in le="10", 100 in +Inf.
	want := []uint64{2, 1, 1}
	for i, w := range want {
		if got := h.buckets[i].Load(); got != w {
			t.Fatalf("bucket[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestVecChildInterning(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("solve", "solver", DefLatencyBuckets)
	a := v.With("sate")
	b := v.With("sate")
	if a != b {
		t.Fatal("same label value returned different children")
	}
	cv := r.CounterVec("errs", "kind")
	if cv.With("x") != cv.With("x") {
		t.Fatal("same label value returned different counter children")
	}
}

func TestExpositionFormatAndDeterminism(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total").Add(3)
	r.Gauge("aa_ratio").Set(0.25)
	r.Histogram("mm_seconds", []float64{0.1, 1}).Observe(0.05)
	r.HistogramVec("sate_solve_seconds", "solver", []float64{0.1, 1}).With("lp-exact").Observe(0.5)
	r.HistogramVec("sate_solve_seconds", "solver", []float64{0.1, 1}).With("sate").Observe(0.01)
	r.CounterVec("kinds_total", "kind").With(`we"ird\label`).Inc()

	var b1, b2 bytes.Buffer
	if err := r.WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("two scrapes differ:\n%s\n---\n%s", b1.String(), b2.String())
	}
	out := b1.String()

	// Families sorted by name: aa_ratio < kinds_total < mm_seconds < ...
	order := []string{"# TYPE aa_ratio gauge", "# TYPE kinds_total counter", "# TYPE mm_seconds histogram", "# TYPE sate_solve_seconds histogram", "# TYPE zz_total counter"}
	last := -1
	for _, s := range order {
		i := strings.Index(out, s)
		if i < 0 {
			t.Fatalf("missing %q in:\n%s", s, out)
		}
		if i < last {
			t.Fatalf("%q out of order in:\n%s", s, out)
		}
		last = i
	}

	// Vec children sorted by label value; cumulative buckets; sum/count.
	for _, want := range []string{
		`sate_solve_seconds_bucket{solver="lp-exact",le="0.1"} 0`,
		`sate_solve_seconds_bucket{solver="lp-exact",le="1"} 1`,
		`sate_solve_seconds_bucket{solver="lp-exact",le="+Inf"} 1`,
		`sate_solve_seconds_sum{solver="lp-exact"} 0.5`,
		`sate_solve_seconds_count{solver="lp-exact"} 1`,
		`sate_solve_seconds_bucket{solver="sate",le="0.1"} 1`,
		"mm_seconds_bucket{le=\"0.1\"} 1",
		"mm_seconds_count 1",
		"aa_ratio 0.25",
		"zz_total 3",
		`kinds_total{kind="we\"ird\\label"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Index(out, `solver="lp-exact"`) > strings.Index(out, `solver="sate"`) {
		t.Fatalf("vec children not sorted by label value:\n%s", out)
	}

	// Every line is either a comment or "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
	}
}

func TestGoRuntimeGauges(t *testing.T) {
	r := NewRegistry()
	r.CollectGoRuntime()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"go_heap_alloc_bytes", "go_goroutines", "go_gc_cycles_total"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("missing %q in:\n%s", want, buf.String())
		}
	}
}

func TestSpanObservesIntoPhaseHistogram(t *testing.T) {
	r := NewRegistry()
	r.StartSpan(PhaseForward).End()
	h := r.SpanHistogram(PhaseForward)
	if got := h.Count(); got != 1 {
		t.Fatalf("span count = %d, want 1", got)
	}
	if h.Sum() < 0 {
		t.Fatalf("span sum negative: %v", h.Sum())
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c_total").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h_seconds", DefLatencyBuckets).Observe(0.001)
				r.HistogramVec("hv_seconds", "k", DefLatencyBuckets).With("a").Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 8000 {
		t.Fatalf("gauge = %v, want 8000", got)
	}
	if got := r.Histogram("h_seconds", nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	if got := r.HistogramVec("hv_seconds", "k", nil).With("a").Count(); got != 8000 {
		t.Fatalf("vec histogram count = %d, want 8000", got)
	}
}

func TestRecordingAddsZeroAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("race runtime perturbs alloc accounting (see RaceEnabled)")
	}
	r := NewRegistry()
	c := r.Counter("c_total")
	g := r.Gauge("g")
	h := r.Histogram("h_seconds", DefLatencyBuckets)
	v := r.HistogramVec("hv_seconds", "k", DefLatencyBuckets)
	if allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(2)
		g.Set(1)
		g.Add(0.5)
		h.Observe(0.001)
		v.With("sate").Observe(0.001)
		r.Counter("c_total").Inc() // constant-name lookup
	}); allocs != 0 {
		t.Fatalf("recording allocated %v allocs/op, want 0", allocs)
	}
}
