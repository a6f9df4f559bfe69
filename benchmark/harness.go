package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sate/internal/autodiff"
	"sate/internal/core"
	"sate/internal/par"
	"sate/internal/ruledist"
	"sate/internal/rules"
	"sate/internal/solve"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload. The last line of a run's standard
// output is this object restricted to correct/attempted/failed/metrics;
// result-set files keep the identifying fields too.
type result struct {
	Workload  string            `json:"workload,omitempty"`
	Seed      int64             `json:"seed,omitempty"`
	Trace     bool              `json:"trace,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Errors    []string          `json:"errors,omitempty"`
}

// checkTol is the Mbps slack allowed on capacity and demand constraints:
// solvers trim in floating point, so a strict zero would flag rounding.
const checkTol = 1e-6

// minEpisodes is the fewest set-ups a benchmark run performs whatever
// -seconds says, so that setup_s and heap_retained_mb are medians, never
// single readings.
const minEpisodes = 3

// exact accumulates the metrics that are functions of (seed, code) only.
// Every episode of a run replays the same inputs, so every episode must
// produce the same sums to the last bit; the run reports episode 0's.
type exact struct {
	satisfied, churn float64
	cycles           int
}

type runner struct {
	w      *workload
	seed   int64
	r      *recorder
	first  *exact
	res    result
	bad    bool // the cycle in progress failed a check
	setupS []float64
	heapMB []float64
}

// fail marks the cycle in progress as failed and keeps the first few reasons.
func (rn *runner) fail(format string, args ...any) {
	rn.bad = true
	if len(rn.res.Errors) < 8 {
		rn.res.Errors = append(rn.res.Errors, fmt.Sprintf(format, args...))
	}
}

// runWorkload measures one workload for about `seconds`: whole episodes
// (set-up, warm-up, timed cycles, teardown) repeat until the time is up. In
// a traced run even episodes are traced and odd ones are not, so the same
// process yields the tracing overhead.
func runWorkload(ctx context.Context, w *workload, seed int64, seconds float64, episodes int, traced bool) (*result, *recorder, error) {
	rn := &runner{w: w, seed: seed, r: newRecorder()}
	rn.res = result{Workload: w.name, Seed: seed, Trace: traced}
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	begin := time.Now()
	for ep := 0; ep < episodes || time.Since(begin).Seconds() < seconds; ep++ {
		rn.r.episode = ep
		if err := rn.episode(ctx, traced && ep%2 == 0); err != nil {
			return nil, nil, fmt.Errorf("%s episode %d: %w", w.name, ep, err)
		}
	}
	if traced {
		if err := rn.probes(); err != nil {
			return nil, nil, err
		}
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	rn.res.Correct = len(rn.res.Errors) == 0
	if traced {
		rn.res.Metrics = rn.perLayer(&gc0, &gc1)
	} else {
		rn.res.Metrics = rn.endToEnd()
	}
	return &rn.res, rn.r, nil
}

func (rn *runner) episode(ctx context.Context, traced bool) error {
	w, r := rn.w, rn.r
	t0 := time.Now()
	e, err := w.start(w.p, rn.seed, traced)
	if err != nil {
		return err
	}
	consumer := &rules.RuleSet{}
	for i := 0; i < w.p.warmup; i++ {
		out, err := e.cycle(ctx, i, r)
		if err != nil {
			return fmt.Errorf("warm-up cycle %d: %w", i, err)
		}
		for _, d := range out.deltas {
			consumer = ruledist.Apply(consumer, d)
		}
	}
	rn.setupS = append(rn.setupS, time.Since(t0).Seconds())

	r.traced = traced
	series := "cycle_ms.untraced"
	if traced {
		series = "cycle_ms.traced"
	}
	var ex exact
	var g *core.TEGraph
	heap0 := liveHeapMB()
	for i := w.p.warmup; i < w.p.warmup+w.p.cycles; i++ {
		r.cycle = i
		rn.res.Attempted++
		rn.bad = false
		if out, err := e.cycle(ctx, i, r); err != nil {
			rn.fail("cycle %d: %v", i, err)
		} else {
			r.always(series, out.ms)
			r.always("alloc_mb", out.allocMB)
			consumer = rn.check(out, consumer, i)
			ups, rem := deltaSize(out)
			r.observe("ruledist.upserts", float64(ups))
			r.observe("ruledist.removes", float64(rem))
			ex.satisfied += out.p.SatisfiedDemand(out.a)
			ex.churn += float64(ups+rem) / float64(max(out.rs.NumRules(), 1))
			ex.cycles++
			if traced && w.graph {
				t := time.Now()
				g = core.BuildTEGraphInto(g, out.p)
				r.observe("core.graph_ms", ms(time.Since(t)))
			}
		}
		if rn.bad {
			rn.res.Failed++
		}
	}
	r.observe("core.heap_growth_mb_per_cycle", (liveHeapMB()-heap0)/float64(w.p.cycles))

	// What the episode retains, measured while it is still live (finish, below,
	// is its last use). Two collections: the first only moves sync.Pool
	// contents to the victim cache, the second frees them.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	rn.heapMB = append(rn.heapMB, float64(mem.HeapAlloc)/1e6)
	e.finish(r)
	r.traced = false

	if rn.first == nil {
		rn.first = &ex
	} else if !sameBits(ex.satisfied, rn.first.satisfied) || !sameBits(ex.churn, rn.first.churn) || ex.cycles != rn.first.cycles {
		// Not any one cycle's failure, but the run is not correct.
		rn.fail("episode %d is not a replay of episode 0: satisfied %v vs %v, churn %v vs %v",
			r.episode, ex.satisfied, rn.first.satisfied, ex.churn, rn.first.churn)
	}
	// Nothing of the episode is live past this point: collect it before the
	// next one is set up, so episodes do not inherit each other's heap.
	runtime.GC()
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// deltaSize counts the rule changes a consumer one version behind was served.
func deltaSize(out *output) (upserts, removes int) {
	for _, d := range out.deltas {
		for _, nd := range d.Nodes {
			upserts += len(nd.Upserts)
			removes += len(nd.Removes)
		}
	}
	return upserts, removes
}

// check verifies one timed cycle's outputs and returns the consumer's rule
// set advanced to the cycle's version. A failed check counts the cycle as
// failed; the run then exits nonzero.
func (rn *runner) check(out *output, consumer *rules.RuleSet, i int) *rules.RuleSet {
	r := rn.r
	if v := out.p.Check(out.a); v.Any(checkTol) {
		rn.fail("cycle %d: allocation violates the problem: %+v", i, v)
	}
	t := time.Now()
	for _, d := range out.deltas {
		consumer = ruledist.Apply(consumer, d)
	}
	r.observe("ruledist.apply_ms", ms(time.Since(t)))
	if err := sameRules(consumer, out.rs); err != nil {
		rn.fail("cycle %d: consumer catch-up does not reproduce the published rules: %v", i, err)
		consumer = out.rs
	}
	if pk := out.pkt; pk != nil {
		if pk.Truncated || pk.Injected != pk.Delivered+pk.Dropped() || pk.Injected == 0 {
			rn.fail("cycle %d: packet accounting: injected %d delivered %d dropped %d truncated %v",
				i, pk.Injected, pk.Delivered, pk.Dropped(), pk.Truncated)
		}
		r.always("pktsim.injected", float64(pk.Injected))
		r.always("pktsim.run_s", out.pktSec)
		r.always("pktsim.kpkts_per_s", float64(pk.Injected)/out.pktSec/1e3)
		r.always("pktsim.delivered", float64(pk.Delivered))
		r.always("pktsim.drop_queue", float64(pk.DroppedQueue))
		r.always("pktsim.drop_no_rule", float64(pk.DroppedNoRule))
		r.always("pktsim.drop_down", float64(pk.DroppedDown))
		r.always("pktsim.drop_loop", float64(pk.DroppedLoop))
		r.always("pktsim.max_queue_pkts", float64(pk.MaxQueuePkts))
		if r.traced {
			r.samples["pktsim.lat_ms"] = appendScaled(r.samples["pktsim.lat_ms"], pk.LatenciesSec, 1e3)
		}
	}
	r.observe("rules.count", float64(out.rs.NumRules()))
	r.observe("traffic.flows", float64(len(out.p.Flows)))
	r.observe("te.path_vars", float64(out.p.NumPaths()))
	r.observe("topology.links", float64(len(out.p.Links)))
	return consumer
}

func appendScaled(dst, src []float64, k float64) []float64 {
	for _, v := range src {
		dst = append(dst, v*k)
	}
	return dst
}

// sameRules reports the first difference between two rule sets, comparing
// rates bit for bit.
func sameRules(got, want *rules.RuleSet) error {
	if got.NumRules() != want.NumRules() {
		return fmt.Errorf("%d rules, want %d", got.NumRules(), want.NumRules())
	}
	for node, wt := range want.Tables {
		gt := got.Tables[node]
		if gt == nil {
			if len(wt.Rules) == 0 {
				continue
			}
			return fmt.Errorf("node %d: table missing", node)
		}
		if len(gt.Rules) != len(wt.Rules) {
			return fmt.Errorf("node %d: %d rules, want %d", node, len(gt.Rules), len(wt.Rules))
		}
		for k, wr := range wt.Rules {
			gr := gt.Rules[k]
			if gr.Flow != wr.Flow || gr.Label != wr.Label || gr.Next != wr.Next || !sameBits(gr.RateMbps, wr.RateMbps) {
				return fmt.Errorf("node %d rule %d: %+v, want %+v", node, k, gr, wr)
			}
		}
	}
	return nil
}

// probes measures, once per traced run of a model workload, the layers under
// core that no span reaches from outside: two fixed-shape autodiff kernels
// at the workload's path-node shape, and what the par pool buys a solve.
func (rn *runner) probes() error {
	w, r := rn.w, rn.r
	if !w.graph || w.p.ring == 0 {
		return nil
	}
	ring, err := buildRing(w.p, rn.seed)
	if err != nil {
		return err
	}
	m, err := w.p.model()
	if err != nil {
		return err
	}
	r.traced = true
	defer func() { r.traced = false }()

	g := core.BuildTEGraph(ring[0])
	dim := m.Cfg.EmbedDim
	tp := autodiff.NewInferenceTape()
	x := autodiff.NewTensor(g.NumPaths, dim)
	wt := autodiff.NewTensor(dim, dim)
	score := autodiff.NewTensor(g.NumPaths, 1) // one score per path node, normalised within its flow
	for i := range x.Data {
		x.Data[i] = float64(i%17) * 0.01
	}
	for i := range score.Data {
		score.Data[i] = float64(i%11) * 0.1
	}
	for i := range wt.Data {
		wt.Data[i] = float64(i%13) * 0.02
	}
	for i := 0; i < 32; i++ {
		tp.Reset()
		xv, wv, sv := tp.Const(x), tp.Const(wt), tp.Const(score)
		t := time.Now()
		tp.MatMul(xv, wv)
		r.observe("autodiff.matmul_ms", ms(time.Since(t)))
		t = time.Now()
		tp.SegmentSoftmax(sv, g.VarFlow, g.NumTraffic)
		r.observe("autodiff.segment_softmax_ms", ms(time.Since(t)))
	}

	for _, workers := range []int{1, par.Workers()} {
		cs := &core.CycleState{}
		opts := []solve.Option{solve.WithWarm(cs), solve.WithWorkers(workers)}
		key := "par.solve_ms.w" + strconv.Itoa(workers)
		for i := 0; i < 2*len(ring); i++ {
			p := ring[i%len(ring)]
			t := time.Now()
			if _, err := m.Solve(p, opts...); err != nil {
				return fmt.Errorf("par probe: %w", err)
			}
			if i >= len(ring) { // the first lap warms the pools
				r.observe(key, ms(time.Since(t)))
			}
		}
	}
	return nil
}

func (rn *runner) endToEnd() map[string]metric {
	r, ex := rn.r, rn.first
	n := float64(max(ex.cycles, 1))
	return map[string]metric{
		"setup_s":        {percentile(rn.setupS, 0.5), "s"},
		"cycle_ms_p50":   {r.p50("cycle_ms.untraced"), "ms"},
		"cycle_ms_p90":   {r.p90("cycle_ms.untraced"), "ms"},
		"satisfied_frac": {ex.satisfied / n, "ratio"},
	}
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// perLayer turns the traced episodes' samples into the per-layer metrics. A
// layer the workload never enters reads 0.
func (rn *runner) perLayer(gc0, gc1 *runtime.MemStats) map[string]metric {
	r := rn.r
	out := map[string]metric{}
	p50 := func(name, key, unit string) { out[name] = metric{r.p50(key), unit} }
	for _, stem := range []string{
		"topology.snapshot", "traffic.matrix", "paths.update", "te.build", "core.solve", "core.graph",
		"shard.solve", "rules.compile", "rules.verify", "ruledist.append", "ruledist.apply", "ruledist.delays",
		"controller.recompute", "controller.glue", "controller.deltas_get", "pktsim.run",
		"autodiff.matmul", "autodiff.segment_softmax",
	} {
		p50(stem+"_ms_p50", stem+"_ms", "ms")
	}
	out["core.solve_ms_p90"] = metric{r.p90("core.solve_ms"), "ms"}
	out["shard.solve_ms_p90"] = metric{r.p90("shard.solve_ms"), "ms"}
	out["baselines.ecmpwf_solve_ms_p50"] = metric{r.p50("baselines.solve_ms"), "ms"}
	out["ruledist.since_us_p50"] = metric{r.p50("ruledist.since_ms") * 1e3, "us"}
	p50("controller.status_get_us_p50", "controller.status_get_us", "us")
	p50("controller.rules_body_kb_p50", "controller.rules_body_kb", "KB")
	p50("controller.delta_body_kb_p50", "controller.delta_body_kb", "KB")

	for _, c := range []string{
		"traffic.flows", "paths.dirty_pairs", "te.build_allocs", "te.path_vars", "core.solve_allocs",
		"shard.solve_allocs", "shard.dirty_shards", "rules.count", "ruledist.upserts", "ruledist.removes",
	} {
		p50(c+"_p50", c, "count")
	}
	p50("core.solve_alloc_mb_p50", "core.solve_alloc_mb", "MB")
	p50("core.heap_growth_mb_per_cycle", "core.heap_growth_mb_per_cycle", "MB")
	out["topology.links"] = metric{r.max("topology.links"), "count"}
	out["paths.known_pairs"] = metric{r.max("paths.known_pairs"), "count"}
	out["core.r1_warm_hit_frac"] = metric{ratio(r.sum("core.r1_hits"), r.sum("core.r1_lookups")), "ratio"}
	out["shard.r1_warm_hit_frac"] = metric{ratio(r.sum("shard.r1_hits"), r.sum("shard.r1_lookups")), "ratio"}
	out["shard.boundary_flow_frac"] = metric{ratio(r.sum("shard.boundary_flows"), r.sum("shard.flows")), "ratio"}

	inj := r.sum("pktsim.injected")
	p50("pktsim.kpkts_per_s", "pktsim.kpkts_per_s", "kpkt/s")
	out["pktsim.ns_per_pkt"] = metric{ratio(r.sum("pktsim.run_s")*1e9, inj), "ns"}
	p50("pktsim.allocs_per_run", "pktsim.run_allocs", "count")
	p50("pktsim.alloc_mb_per_run", "pktsim.run_alloc_mb", "MB")
	out["pktsim.max_queue_pkts"] = metric{r.max("pktsim.max_queue_pkts"), "count"}
	out["pktsim.loss_frac"] = metric{ratio(inj-r.sum("pktsim.delivered"), inj), "ratio"}
	for _, c := range []string{"drop_queue", "drop_no_rule", "drop_down", "drop_loop"} {
		out["pktsim."+c+"_frac"] = metric{ratio(r.sum("pktsim."+c), inj), "ratio"}
	}
	out["pktsim.lat_ms_p50"] = metric{r.p50("pktsim.lat_ms"), "ms"}
	out["pktsim.lat_ms_p99"] = metric{percentile(r.samples["pktsim.lat_ms"], 0.99), "ms"}

	workers := par.Workers()
	out["par.workers"] = metric{float64(workers), "count"}
	out["par.solve_speedup"] = metric{ratio(r.p50("par.solve_ms.w1"), r.p50("par.solve_ms.w"+strconv.Itoa(workers))), "ratio"}

	out["ruledist.churn_frac"] = metric{rn.first.churn / float64(max(rn.first.cycles, 1)), "ratio"}
	allocs := r.samples["alloc_mb"]
	spikes, calm := 0, percentile(allocs, 0.25)
	for _, v := range allocs {
		if v > 4*calm {
			spikes++
		}
	}
	out["runtime.alloc_mb_p25"] = metric{calm, "MB"}
	out["runtime.alloc_mb_mean"] = metric{ratio(r.sum("alloc_mb"), float64(len(allocs))), "MB"}
	out["runtime.alloc_spike_frac"] = metric{ratio(float64(spikes), float64(len(allocs))), "ratio"}
	out["runtime.heap_retained_mb"] = metric{percentile(rn.heapMB, 0.5), "MB"}
	out["runtime.peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	out["runtime.gc_count"] = metric{float64(gc1.NumGC - gc0.NumGC), "count"}
	out["runtime.gc_pause_ms"] = metric{float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6, "ms"}

	gap, _ := r.partitionGap()
	out["harness.glue_ms_p50"] = metric{percentile(gap, 0.5), "ms"}
	out["harness.trace_overhead_frac"] = metric{ratio(r.p50("cycle_ms.traced"), r.p50("cycle_ms.untraced")) - 1, "ratio"}
	out["harness.cycles"] = metric{float64(len(r.samples["cycle_ms.traced"])), "count"}
	out["harness.failed_frac"] = metric{ratio(float64(rn.res.Failed), float64(rn.res.Attempted)), "ratio"}
	return out
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM); 0 where
// /proc is not available.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
