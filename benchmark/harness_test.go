package main

import (
	"context"
	"regexp"
	"testing"

	"sate/internal/constellation"
	"sate/internal/core"
)

// toy shrinks a catalogue workload to tier-1 size: the same code path on a
// 96-satellite constellation, three timed cycles, an untrained model.
func toy(w *workload) *workload {
	t := *w
	t.p.cons = func() *constellation.Constellation { return constellation.Toy(6, 8) }
	t.p.model = func() (*core.Model, error) { return core.NewModel(core.DefaultConfig()), nil }
	t.p.warmup, t.p.cycles = 1, 3
	t.p.intensity = min(t.p.intensity, 4)
	t.p.horizon /= 10
	if t.p.ring > 0 {
		t.p.ring = 4 // the fourth ring problem is the one that injects failures
	}
	if t.p.failFrac > 0 {
		t.p.failFrac = 0.05
	}
	if t.p.planes > 0 {
		t.p.planes, t.p.spp, t.p.flows, t.p.shards, t.p.failPer, t.p.regionDiv = 8, 8, 24, 2, 1, 4
	}
	return &t
}

// runToy runs two episodes of a toy workload and requires every check to
// pass: outputs, the twin's agreement with the controller on traced
// controller workloads, and the second episode replaying the first.
func runToy(t *testing.T, w *workload, seed int64, traced bool) (*result, *recorder) {
	t.Helper()
	res, rec, err := runWorkload(context.Background(), toy(w), seed, 0, 2, traced)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d: %v", w.name, res.Correct, res.Attempted, res.Failed, res.Errors)
	}
	return res, rec
}

// Same seed, same exact metrics: every run replays its inputs in a second
// episode and runToy fails unless the two agree bit for bit. What is left to
// show is that another seed reaches the inputs and moves them.
func TestExactMetricsAreFunctionsOfSeed(t *testing.T) {
	for _, w := range catalogue() {
		a, _ := runToy(t, w, 1, false)
		b, _ := runToy(t, w, 500, false)
		if sameBits(a.Metrics["satisfied_frac"].Value, b.Metrics["satisfied_frac"].Value) {
			t.Errorf("%s: seed 500 reproduced satisfied_frac of seed 1 (%v); -seed is not reaching the inputs", w.name, a.Metrics["satisfied_frac"].Value)
		}
	}
}

// TestMetricsMatchSpec holds the harness and BENCHMARK.json to each other:
// every workload prints exactly the declared metrics, under legal names,
// with the declared units; the traced run also proves the twin of each
// controller workload saw the controller's inputs (a divergence fails the
// cycle) and that stage spans partition the hand-driven cycle.
func TestMetricsMatchSpec(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	cat := catalogue()
	if len(spec.Workloads) != len(cat) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the catalogue has %d", len(spec.Workloads), len(cat))
	}
	legal := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, w := range cat {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the catalogue %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		for _, traced := range []bool{false, true} {
			res, rec := runToy(t, w, 1, traced)
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: declared metric %s not printed", w.name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s %s: printed unit %q, declared %q", w.name, m.Name, got.Unit, m.Unit)
				}
				if !legal.MatchString(m.Name) {
					t.Errorf("illegal metric name %q", m.Name)
				}
			}
			if !traced {
				continue
			}
			_, frac := rec.partitionGap()
			if len(frac) == 0 {
				t.Errorf("%s: traced run recorded no cycle span", w.name)
			}
			if gap := percentile(frac, 0.5); gap > 0.02 {
				t.Errorf("%s: stage spans leave %.1f%% of the median cycle unattributed, want <= 2%%", w.name, 100*gap)
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	tight := func(med float64) side {
		return side{q1: med * 0.99, med: med, q3: med * 1.01, lo: med * 0.98, hi: med * 1.02}
	}
	wide := func(med float64) side {
		return side{q1: med * 0.8, med: med, q3: med * 1.2, lo: med * 0.7, hi: med * 1.3}
	}
	for _, c := range []struct {
		a, b        side
		lowerBetter bool
		want        string
	}{
		{tight(100), tight(103), true, "same"},
		{tight(100), tight(120), true, "worse"},
		{tight(100), tight(80), true, "better"},
		{tight(100), tight(80), false, "worse"},
		{wide(100), wide(104), true, "unresolved"},
		{wide(100), wide(50), true, "better"},
		{wide(100), wide(200), true, "worse"},
	} {
		if got := verdict(c.a, c.b, c.lowerBetter, 0.1); got != c.want {
			t.Errorf("verdict(%v -> %v, lowerBetter=%v) = %s, want %s", c.a.med, c.b.med, c.lowerBetter, got, c.want)
		}
	}
}
