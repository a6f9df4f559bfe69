package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"sate/internal/baselines"
	"sate/internal/constellation"
	"sate/internal/controller"
	"sate/internal/core"
	"sate/internal/paths"
	"sate/internal/pktsim"
	"sate/internal/ruledist"
	"sate/internal/rules"
	"sate/internal/shard"
	"sate/internal/sim"
	"sate/internal/solve"
	"sate/internal/te"
	"sate/internal/topology"
	"sate/internal/traffic"
)

// modelGob is the trained SaTE model every full-size workload solves with:
// the quickstart recipe (fitModel) run once and committed, because the model
// is program configuration, not load — and because fitting it (~11 s) inside
// every episode of every run would not fit the benchmark's time budget.
//
//go:embed model.gob
var modelGob []byte

func trainedModel() (*core.Model, error) { return core.Load(bytes.NewReader(modelGob)) }

// fitModel reproduces model.gob (go run ./benchmark -fit-model <file>).
func fitModel(path string) error {
	scen := sim.NewScenario(constellation.Iridium(), sim.ScenarioConfig{
		Mode: topology.CrossShellLasers, Intensity: 8, Seed: 1, MinElevDeg: 10, FlowDurationScale: 0.05,
	})
	m := core.NewModel(core.DefaultConfig())
	var samples []*core.Sample
	for i := 0; i < 4; i++ {
		p, _, _, err := scen.ProblemAt(120 + float64(i)*97)
		if err != nil {
			return err
		}
		ref, err := baselines.LPAuto{}.Solve(p)
		if err != nil {
			return err
		}
		samples = append(samples, core.NewSample(p, ref))
	}
	tc := core.DefaultTrainConfig()
	tc.Epochs = 30
	if _, err := core.Train(m, samples, tc); err != nil {
		return err
	}
	return m.SaveFile(path)
}

// params sizes one workload. The catalogue's values define the benchmark;
// harness_test.go substitutes toy values so the same code runs in tier-1.
type params struct {
	cons      func() *constellation.Constellation
	model     func() (*core.Model, error)
	intensity float64
	durScale  float64 // ScenarioConfig.FlowDurationScale; 0 keeps Table-2 durations
	// Cycle i runs at simulated time t0 + seedStep*(seed mod 1000) + i*dt: the
	// seed slides the replay window along one fixed arrival process.
	t0, dt, seedStep float64
	warmup           int // untimed cycles per episode, counted in setup_s
	cycles           int // timed cycles per episode

	// dataplane: simulated seconds of packets per cycle. The burst covers
	// [0.2, 0.6) of it and the rule push starts at its middle.
	horizon float64

	ring     int     // problems (or topologies) built in set-up and replayed in order
	failFrac float64 // solve-ring: every 4th ring problem fails this share of links

	planes, spp, flows int // shard-regional: Walker shell and region-local flow count
	shards             int
	failPer            int // ISLs failed per ring topology
	regionDiv          int // failures fall among the first numSats/regionDiv nodes
}

// output is what one cycle published, handed to the harness for checking.
type output struct {
	ms      float64 // the product's share of the cycle: what a caller waited for
	p       *te.Problem
	a       *te.Allocation
	rs      *rules.RuleSet
	deltas  []ruledist.Delta // what a consumer one version behind was served
	pkt     *pktsim.Result   // nil unless the workload executes packets
	pktSec  float64          // host seconds inside pktsim.Run
	allocMB float64          // heap the product allocated during the cycle
}

// episode is one set-up of a workload: a closed loop of one caller, cycle
// i+1 starting when cycle i returns.
type episode interface {
	cycle(ctx context.Context, i int, r *recorder) (*output, error)
	// finish records end-of-episode layer counters.
	finish(r *recorder)
}

type workload struct {
	name string
	why  string
	p    params
	// graph marks workloads whose solver is the SaTE model, so the traced run
	// also times core.BuildTEGraphInto on each cycle's problem.
	graph bool
	// start builds the fixtures of one episode. twin asks a controller
	// workload to also build the hand-driven twin the traced run needs.
	start func(p params, seed int64, twin bool) (episode, error)
}

func catalogue() []*workload {
	return []*workload{
		{
			name: "controld-drift-66",
			why:  "product path with traffic and topology drifting every cycle: core's shape-miss path, publish/encode and delta size are in the cycle",
			p: params{
				cons: constellation.Iridium, model: trainedModel,
				intensity: 60, durScale: 0.05, t0: 400, dt: 1, seedStep: 0.025, warmup: 4, cycles: 12,
			},
			graph: true,
			start: func(p params, seed int64, twin bool) (episode, error) { return startControl(p, seed, twin, false) },
		},
		{
			name: "solve-ring-396",
			why:  "finite shape set so every pool hits and memory is flat: GNN forward dominates, build/paths/traffic idle; kernel, dtype, dedup and par work shows here",
			p: params{
				cons: constellation.MidSize1, model: trainedModel,
				intensity: 25, t0: 30, dt: 0.5, seedStep: 0.002, warmup: 8, cycles: 24, ring: 8, failFrac: 0.01,
			},
			graph: true,
			start: startRing,
		},
		{
			name: "shard-regional-7936",
			why:  "scale: shard partition, dirty set, boundary stitching and te.Build do most of the work while each sub-solve's GNN is small",
			p: params{
				model: trainedModel, warmup: 8, cycles: 16, ring: 8,
				planes: 128, spp: 62, flows: 512, shards: 4, failPer: 4, regionDiv: 16,
			},
			start: startShard,
		},
		{
			name: "dataplane-66",
			why:  "bypasses core/autodiff/shard: the packet engine is ~95 % of the cycle and rules/ruledist/publish are the rest",
			p: params{
				cons: constellation.Iridium, intensity: 8, durScale: 0.05, t0: 400, dt: 1, seedStep: 0.025, warmup: 2, cycles: 8, horizon: 0.5,
			},
			start: func(p params, seed int64, twin bool) (episode, error) { return startControl(p, seed, twin, true) },
		},
	}
}

// scenarioSeed fixes the ground segment and the arrival process of every
// scenario, and -seed slides the replayed window along it (params.seedStep)
// besides seeding failures, fixtures and packets. Seeding the scenario itself
// gives a different workload per seed, not noise: geography decides how many
// satellite pairs carry traffic (Iridium problems ranged from 156 to 263
// flows, the cycle from 40 to 66 ms), and even on one geography independent
// draws of the heavy-tailed Table-2 classes move satisfied demand by 15 %.
// All scenario workloads replay the stationary regime (durations scaled by
// 0.05, t >= 400 s), so sliding the window changes which flows are live but
// not how many.
const scenarioSeed = 1

func newScenario(p params) *sim.Scenario {
	return sim.NewScenario(p.cons(), sim.ScenarioConfig{
		Mode: topology.CrossShellLasers, Intensity: p.intensity, Seed: scenarioSeed,
		MinElevDeg: 10, FlowDurationScale: p.durScale,
	})
}

// at is the simulated time of cycle i.
func (p params) at(seed int64, i int) float64 {
	return p.t0 + p.seedStep*float64((seed%1000+1000)%1000) + p.dt*float64(i)
}

// publisher is the tail every hand-driven cycle shares: solve, compile the
// allocation into rules, verify them, append to the changelog, and read back
// what a consumer one version behind would be served.
type publisher struct {
	solver sim.Allocator
	opts   []solve.Option
	span   string // core.solve, shard.solve or baselines.solve
	log    *ruledist.Changelog
}

func newPublisher(solver sim.Allocator, span string, opts ...solve.Option) publisher {
	return publisher{solver: solver, opts: opts, span: span, log: ruledist.NewChangelog(0)}
}

// publish returns the cycle's outputs (time and allocation not yet filled
// in) and the time spent in its stages up to and including the changelog
// append: the part a controller cycle also does.
func (pb *publisher) publish(p *te.Problem, r *recorder) (*output, time.Duration, error) {
	var a *te.Allocation
	var err error
	d := r.metered(pb.span, func() { a, err = pb.solver.Solve(p, pb.opts...) })
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", pb.span, err)
	}
	t := time.Now()
	rs := rules.Compile(p, a)
	d += r.stage("rules.compile", t)
	t = time.Now()
	err = rules.Verify(p, a, rs)
	d += r.stage("rules.verify", t)
	if err != nil {
		return nil, 0, fmt.Errorf("rules.verify: %w", err)
	}
	t = time.Now()
	v := pb.log.Append(rs)
	d += r.stage("ruledist.append", t)
	t = time.Now()
	cu := pb.log.Since(v - 1)
	r.stage("ruledist.since", t)
	if cu.FullSync {
		return nil, 0, fmt.Errorf("ruledist: version %d already compacted out of the changelog", v-1)
	}
	return &output{p: p, a: a, rs: rs, deltas: cu.Deltas}, d, nil
}

func buildProblem(snap *topology.Snapshot, m *traffic.Matrix, db *paths.DB, cfg te.BuildConfig, r *recorder) (*te.Problem, time.Duration, error) {
	var p *te.Problem
	var err error
	d := r.metered("te.build", func() { p, err = te.Build(snap, m, db, cfg) })
	if err != nil {
		return nil, 0, fmt.Errorf("te.build: %w", err)
	}
	return p, d, nil
}

// pipeline drives a whole controller cycle by hand on a scenario: what
// sim.Scenario.ProblemAt does, one public call per span, then the publisher.
type pipeline struct {
	scen *sim.Scenario
	last *topology.Snapshot
	pub  publisher
}

// cycle also returns the summed stage time that controller.RecomputeContext
// spends on the same work, so the caller can price the controller's glue.
func (pl *pipeline) cycle(tSec float64, r *recorder) (*topology.Snapshot, *output, time.Duration, error) {
	s := pl.scen
	t := time.Now()
	snap := s.TopoGen.Snapshot(tSec)
	d := r.stage("topology.snapshot", t)

	t = time.Now()
	dirty := 0
	if s.PathDB == nil {
		s.PathDB = paths.NewDB(s.Cons, snap, s.Build.K)
	} else if pl.last == nil || !pl.last.SameTopology(snap) {
		dirty = s.PathDB.Update(snap)
	}
	pl.last = snap
	d += r.stage("paths.update", t)
	r.observe("paths.dirty_pairs", float64(dirty))

	t = time.Now()
	m := s.MatrixAt(tSec, snap)
	d += r.stage("traffic.matrix", t)

	p, bd, err := buildProblem(snap, m, s.PathDB, s.Build, r)
	if err != nil {
		return nil, nil, 0, err
	}
	out, pd, err := pl.pub.publish(p, r)
	if err != nil {
		return nil, nil, 0, err
	}
	return snap, out, d + bd + pd, nil
}

// bodyWriter is the response sink for handler calls: it keeps the body so
// the harness can decode what a consumer would have received.
type bodyWriter struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (w *bodyWriter) Header() http.Header         { return w.hdr }
func (w *bodyWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }
func (w *bodyWriter) WriteHeader(code int)        { w.status = code }

// controlEp drives the product from outside: controller.RecomputeContext and
// the HTTP handler. With packets set it then executes each update window
// prev -> cur in the packet engine (dataplane-66).
type controlEp struct {
	p       params
	seed    int64
	scen    *sim.Scenario
	srv     *controller.Server
	handler http.Handler
	w       bodyWriter
	cs      *core.CycleState // nil when the solver is a baseline
	twin    *pipeline        // traced episodes only
	packets bool

	prevP *te.Problem // the previous cycle's published state: the stale side
	prevA *te.Allocation
}

func startControl(p params, seed int64, twin, packets bool) (episode, error) {
	e := &controlEp{p: p, seed: seed, scen: newScenario(p), packets: packets}
	e.w.hdr = make(http.Header, 4)
	solver, span, opts, cs, err := controlSolver(p, packets)
	if err != nil {
		return nil, err
	}
	e.cs = cs
	e.srv = controller.New(e.scen, solver, controller.WithSolverOptions(opts...))
	e.handler = e.srv.Handler()
	if twin {
		// The same scenario seed, so the twin sees the inputs the controller
		// sees; its own model and warm state, so neither warms the other's.
		tsolver, _, topts, _, err := controlSolver(p, packets)
		if err != nil {
			return nil, err
		}
		e.twin = &pipeline{scen: newScenario(p), pub: newPublisher(tsolver, span, topts...)}
	}
	return e, nil
}

func controlSolver(p params, packets bool) (sim.Allocator, string, []solve.Option, *core.CycleState, error) {
	if packets {
		return baselines.ECMPWF{}, "baselines.solve", nil, nil, nil
	}
	m, err := p.model()
	if err != nil {
		return nil, "", nil, nil, err
	}
	cs := &core.CycleState{}
	return m, "core.solve", []solve.Option{solve.WithWarm(cs)}, cs, nil
}

func (e *controlEp) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	e.w.status = 0
	e.w.buf.Reset()
	e.handler.ServeHTTP(&e.w, req)
	if e.w.status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, e.w.status)
	}
	return e.w.buf.Bytes(), nil
}

func (e *controlEp) cycle(ctx context.Context, i int, r *recorder) (*output, error) {
	tSec := e.p.at(e.seed, i)
	deltasURL := fmt.Sprintf("/v1/deltas?since=%d", e.srv.Changelog().Latest())
	out := &output{}

	l := r.lap()
	if err := e.srv.RecomputeContext(ctx, tSec); err != nil {
		return nil, err
	}
	recompute := time.Since(l.start)
	body, err := e.get(ctx, deltasURL)
	if err != nil {
		return nil, err
	}
	out.add(r, l)
	r.root("controller.recompute", l.start, recompute)

	sn := e.srv.Current()
	var resp controller.DeltasResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding /v1/deltas: %w", err)
	}
	if resp.FullSync || resp.Latest != sn.RulesVersion {
		return nil, fmt.Errorf("/v1/deltas: full_sync=%v latest=%d, published rules version %d", resp.FullSync, resp.Latest, sn.RulesVersion)
	}
	out.p, out.a, out.rs, out.deltas = sn.Problem, sn.Alloc, sn.Rules, resp.Deltas
	if r.traced {
		r.observe("controller.recompute_ms", ms(recompute))
		r.observe("controller.deltas_get_ms", out.ms-ms(recompute))
		r.observe("controller.delta_body_kb", float64(len(body))/1024)
		r.observe("controller.rules_body_kb", float64(len(sn.RulesBody()))/1024)
		t := time.Now()
		if _, err := e.get(ctx, "/v1/status"); err != nil {
			return nil, err
		}
		r.observe("controller.status_get_us", ms(time.Since(t))*1e3)
	}

	// The hand-driven cycle: the twin's stages, then (dataplane) the packet
	// stages. Untraced, only the packet stages run, on the controller's own
	// outputs and a snapshot regenerated for the engine's geometry.
	start := time.Now()
	var snap *topology.Snapshot
	cur := out
	if e.twin != nil {
		tsnap, tout, staged, err := e.twin.cycle(tSec, r)
		if err != nil {
			return nil, fmt.Errorf("twin: %w", err)
		}
		if !sameBits(tout.p.SatisfiedDemand(tout.a), out.p.SatisfiedDemand(out.a)) || tout.rs.NumRules() != out.rs.NumRules() {
			return nil, fmt.Errorf("twin diverged from the controller: satisfied %v vs %v, rules %d vs %d",
				tout.p.SatisfiedDemand(tout.a), out.p.SatisfiedDemand(out.a), tout.rs.NumRules(), out.rs.NumRules())
		}
		r.observe("controller.glue_ms", ms(recompute-staged))
		snap, cur = tsnap, tout
	} else if e.packets {
		snap = e.scen.TopoGen.Snapshot(tSec)
		start = time.Now()
	}
	if e.packets {
		if err := e.runPackets(snap, cur, out, i, r); err != nil {
			return nil, err
		}
	}
	r.root("cycle", start, time.Since(start))
	e.prevP, e.prevA = cur.p, cur.a
	return out, nil
}

// runPackets executes the update window prev -> cur: the network starts on
// the previous cycle's rules and each satellite switches when its rule push
// arrives (real ruledist delays), under a burst, delay spikes and a handover.
func (e *controlEp) runPackets(snap *topology.Snapshot, cur, out *output, i int, r *recorder) error {
	l := r.lap()
	spec := &pktsim.RunSpec{Snap: snap, Problem: cur.p, Alloc: cur.a}
	if e.prevP != nil {
		t := time.Now()
		delays := ruledist.RuleDistributionDelays(snap, ruledist.HoustonSite, e.scen.MinElevRad)
		r.stage("ruledist.delays", t)
		spec.Update = &pktsim.RuleUpdate{PrevProblem: e.prevP, PrevAlloc: e.prevA, AtSec: 0.5 * e.p.horizon, DelaysSec: delays}
	}
	cfg := pktsim.Config{
		Seed: e.seed + int64(i), HorizonSec: e.p.horizon, JitterFrac: 0.03, Spikes: 2, Handovers: 1,
		Burst: &pktsim.Burst{StartSec: 0.2 * e.p.horizon, DurSec: 0.4 * e.p.horizon, Factor: 3},
		// The engine splits MaxPackets evenly over streams; this leaves each
		// stream room for a saturated link under the burst, so no run truncates.
		MaxPackets: 1 << 28,
	}
	var err error
	run := r.metered("pktsim.run", func() { out.pkt, err = pktsim.Run(spec, cfg) })
	if err != nil {
		return fmt.Errorf("pktsim.run: %w", err)
	}
	out.pktSec = run.Seconds()
	out.add(r, l)
	return nil
}

func (e *controlEp) finish(r *recorder) {
	if e.cs != nil {
		observeR1(r, "core.r1", e.cs.R1Stats)
	}
	r.observe("paths.known_pairs", float64(e.scen.PathDB.KnownPairs()))
}

func observeR1(r *recorder, key string, stats func() (hits, misses uint64)) {
	hits, misses := stats()
	r.observe(key+"_hits", float64(hits))
	r.observe(key+"_lookups", float64(hits+misses))
}

// ringEp replays a ring of problems built in set-up through the model:
// Solve -> rules.Compile -> rules.Verify -> Changelog.Append.
type ringEp struct {
	ring []*te.Problem
	cs   *core.CycleState
	pub  publisher
}

func startRing(p params, seed int64, _ bool) (episode, error) {
	m, err := p.model()
	if err != nil {
		return nil, err
	}
	e := &ringEp{cs: &core.CycleState{}}
	e.pub = newPublisher(m, "core.solve", solve.WithWarm(e.cs))
	e.ring, err = buildRing(p, seed)
	return e, err
}

// buildRing builds the ring's problems: successive instants of one scenario,
// every fourth with a seeded share of its links failed (paths stay
// configured for the intact topology).
func buildRing(p params, seed int64) ([]*te.Problem, error) {
	scen := newScenario(p)
	var ring []*te.Problem
	for i := 0; i < p.ring; i++ {
		tSec := p.at(seed, i)
		var prob *te.Problem
		var err error
		if i%4 == 3 {
			prob, _, err = scen.ProblemWithFailures(tSec, p.failFrac, rand.New(rand.NewSource(seed+int64(i))))
		} else {
			prob, _, _, err = scen.ProblemAt(tSec)
		}
		if err != nil {
			return nil, fmt.Errorf("ring problem %d: %w", i, err)
		}
		ring = append(ring, prob)
	}
	return ring, nil
}

func (e *ringEp) cycle(_ context.Context, i int, r *recorder) (*output, error) {
	l := r.lap()
	out, _, err := e.pub.publish(e.ring[i%len(e.ring)], r)
	if err != nil {
		return nil, err
	}
	out.add(r, l)
	r.root("cycle", l.start, time.Since(l.start))
	return out, nil
}

func (e *ringEp) finish(r *recorder) { observeR1(r, "core.r1", e.cs.R1Stats) }

// shardEp rebuilds the problem each cycle over a ring of regionally failed
// topologies and solves it sharded: te.Build -> shard.Solve -> Compile ->
// Verify -> Append.
type shardEp struct {
	snaps []*topology.Snapshot
	tm    *traffic.Matrix
	db    *paths.DB
	cfg   te.BuildConfig
	sh    *shard.Solver
	pub   publisher
}

func startShard(p params, seed int64, _ bool) (episode, error) {
	m, err := p.model()
	if err != nil {
		return nil, err
	}
	numSats := p.planes * p.spp
	cons, err := constellation.New(fmt.Sprintf("walker-%d", numSats), []constellation.Shell{{
		Name: "shell", AltitudeKm: 550, InclinationDeg: 53,
		Planes: p.planes, SatsPerPlane: p.spp, PhaseFactor: 17, RAANSpanDeg: 360,
	}})
	if err != nil {
		return nil, err
	}
	snap := topology.NewGenerator(cons, topology.DefaultConfig(topology.CrossShellNone)).Snapshot(0)
	rng := rand.New(rand.NewSource(seed))
	// Region-local traffic: each flow stays within two adjacent planes and a
	// few slots of its source, so most flows are internal to one shard.
	tm := &traffic.Matrix{NumSats: numSats}
	seen := make(map[paths.Pair]bool, p.flows)
	for len(tm.Entries) < p.flows {
		sp := rng.Intn(p.planes)
		dp := min(sp+rng.Intn(2), p.planes-1)
		ss := rng.Intn(p.spp)
		ds := (ss + 1 + rng.Intn(6)) % p.spp
		src, dst := constellation.SatID(sp*p.spp+ss), constellation.SatID(dp*p.spp+ds)
		if pair := (paths.Pair{Src: src, Dst: dst}); src != dst && !seen[pair] {
			seen[pair] = true // a matrix holds one entry per pair, as traffic.BuildMatrix guarantees
			tm.Entries = append(tm.Entries, traffic.Demand{Src: src, Dst: dst, DemandMbps: 20})
		}
	}
	// A regional failure domain: every ring topology fails its own disjoint
	// handful of ISLs inside the first plane band, so one shard is dirty per
	// cycle. Paths stay configured for the intact grid.
	region := topology.NodeID(numSats / p.regionDiv)
	var regional []int
	for li, l := range snap.Links {
		if l.B < region {
			regional = append(regional, li)
		}
	}
	if len(regional) < p.ring*p.failPer {
		return nil, fmt.Errorf("region has %d links, need %d", len(regional), p.ring*p.failPer)
	}
	rng.Shuffle(len(regional), func(i, j int) { regional[i], regional[j] = regional[j], regional[i] })
	e := &shardEp{
		tm: tm, db: paths.NewDB(cons, snap, 10), cfg: te.BuildConfig{LinkCapMbps: 200, K: 10},
		sh: shard.New(m, p.shards),
	}
	e.pub = newPublisher(e.sh, "shard.solve")
	for c := 0; c < p.ring; c++ {
		failed := make(map[int]bool, p.failPer)
		for _, li := range regional[c*p.failPer : (c+1)*p.failPer] {
			failed[li] = true
		}
		fs := &topology.Snapshot{TimeSec: snap.TimeSec, NumSats: snap.NumSats, NumNodes: snap.NumNodes, Pos: snap.Pos}
		for li, l := range snap.Links {
			if !failed[li] {
				fs.Links = append(fs.Links, l)
			}
		}
		fs.Finalize()
		e.snaps = append(e.snaps, fs)
	}
	return e, nil
}

func (e *shardEp) cycle(_ context.Context, i int, r *recorder) (*output, error) {
	l := r.lap()
	p, _, err := buildProblem(e.snaps[i%len(e.snaps)], e.tm, e.db, e.cfg, r)
	if err != nil {
		return nil, err
	}
	out, _, err := e.pub.publish(p, r)
	if err != nil {
		return nil, err
	}
	out.add(r, l)
	r.root("cycle", l.start, time.Since(l.start))
	st := e.sh.Stats
	r.observe("shard.dirty_shards", float64(st.DirtyShards))
	r.observe("shard.boundary_flows", float64(st.BoundaryFlows))
	r.observe("shard.flows", float64(st.BoundaryFlows+st.InternalFlows))
	return out, nil
}

func (e *shardEp) finish(r *recorder) {
	observeR1(r, "shard.r1", e.sh.R1Stats)
	r.observe("paths.known_pairs", float64(e.db.KnownPairs()))
}
