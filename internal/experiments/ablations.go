package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"sate/internal/baselines"
	"sate/internal/constellation"
	"sate/internal/core"
	"sate/internal/graphembed"
	"sate/internal/sim"
	"sate/internal/te"
	"sate/internal/topology"
)

func init() {
	register("abl-graph", AblationGraphReduction)
	register("abl-prune", AblationPruning)
	register("abl-dpp", AblationDPPvsRandom)
	register("abl-attn", AblationAttention)
	register("abl-mwu", AblationMWUEpsilon)
	register("abl-loss", AblationLoss)
}

// AblationGraphReduction measures what the graph reduction of Sec. 3.2 saves:
// relation counts and inference latency of the reduced R1/R2/R3 model vs a
// model that also processes the redundant "access" relation of Fig. 6 (a).
func AblationGraphReduction(opt Options) (*Report, error) {
	r := &Report{
		ID:     "abl-graph",
		Title:  "Graph reduction ablation: reduced (Fig 6b) vs with access relation (Fig 6a)",
		Header: []string{"scale", "relations reduced", "relations full", "latency reduced", "latency full"},
	}
	for _, sc := range scales(opt) {
		s := newScenario(sc, topology.CrossShellLasers, 0, opt.Seed+131)
		p, _, _, err := s.ProblemAt(ciTrainStart)
		if err != nil {
			return nil, err
		}
		reduced, full := core.FullGraphRelations(p)

		mReduced := core.NewModel(core.DefaultConfig())
		cfgFull := core.DefaultConfig()
		cfgFull.AccessRelation = true
		mFull := core.NewModel(cfgFull)

		// Warm up, then take the best of three runs (one-shot wall times on a
		// shared core are noisy).
		if _, err := mReduced.Solve(p); err != nil {
			return nil, err
		}
		if _, err := mFull.Solve(p); err != nil {
			return nil, err
		}
		dR, err := bestOf3(mReduced, p)
		if err != nil {
			return nil, err
		}
		dF, err := bestOf3(mFull, p)
		if err != nil {
			return nil, err
		}
		r.AddRow(sc.name, fmt.Sprintf("%d", reduced), fmt.Sprintf("%d", full), ms(dR), ms(dF))
	}
	r.Note("the reduction removes ~40%% of graph relations; at CI scale the redundant access module costs little wall time (its edges are few), while at paper scale every extra relation type is another full message-passing module (Sec. 3.2)")
	return r, nil
}

// bestOf3 returns the fastest of three timed solves.
func bestOf3(al sim.Allocator, p *te.Problem) (time.Duration, error) {
	best := time.Duration(1<<62 - 1)
	for i := 0; i < 3; i++ {
		d, err := solveLatency(al, p)
		if err != nil {
			return 0, err
		}
		if d < best {
			best = d
		}
	}
	return best, nil
}

// AblationPruning measures traffic/path pruning: inference latency and graph
// size with the sparse (pruned) input vs a dense input that carries every
// source-destination pair including zero-demand ones.
func AblationPruning(opt Options) (*Report, error) {
	r := &Report{
		ID:     "abl-prune",
		Title:  "Traffic/path pruning ablation: sparse vs dense (zero-demand pairs kept)",
		Header: []string{"scale", "flows pruned", "flows dense", "latency pruned", "latency dense"},
	}
	sc := scales(opt)[0]
	s := newScenario(sc, topology.CrossShellLasers, 0, opt.Seed+141)
	p, snap, _, err := s.ProblemAt(ciTrainStart)
	if err != nil {
		return nil, err
	}
	// Dense problem: add zero-demand flows for absent pairs, with candidate
	// paths, up to a budget (the full N^2 is exactly what pruning avoids).
	dense := &te.Problem{
		NumNodes: p.NumNodes,
		Links:    p.Links,
		LinkCap:  p.LinkCap,
		Flows:    append([]te.FlowDemand(nil), p.Flows...),
	}
	have := make(map[[2]topology.NodeID]bool)
	for _, f := range p.Flows {
		have[[2]topology.NodeID{f.Src, f.Dst}] = true
	}
	budget := 6 * len(p.Flows)
	if budget < 200 {
		budget = 200
	}
	added := 0
outer:
	for a := 0; a < snap.NumSats && added < budget; a++ {
		for b := a + 1; b < snap.NumSats; b++ {
			if added >= budget {
				break outer
			}
			k := [2]topology.NodeID{topology.NodeID(a), topology.NodeID(b)}
			if have[k] {
				continue
			}
			ps := s.PathDB.Paths(constellation.SatID(a), constellation.SatID(b))
			if len(ps) == 0 {
				continue
			}
			dense.Flows = append(dense.Flows, te.FlowDemand{
				Src: k[0], Dst: k[1], DemandMbps: 0, Paths: ps,
			})
			added++
		}
	}
	if err := dense.Finalize(); err != nil {
		return nil, err
	}
	m := core.NewModel(core.DefaultConfig())
	if _, err := m.Solve(p); err != nil {
		return nil, err
	}
	dSparse, err := bestOf3(m, p)
	if err != nil {
		return nil, err
	}
	dDense, err := bestOf3(m, dense)
	if err != nil {
		return nil, err
	}
	r.AddRow(sc.name, fmt.Sprintf("%d", len(p.Flows)), fmt.Sprintf("%d", len(dense.Flows)), ms(dSparse), ms(dDense))
	r.Note("dense input capped at a budget; at Starlink scale the unpruned input is 4236^2 pairs (335 GB, Table 1) — unrunnable by construction")
	return r, nil
}

// AblationDPPvsRandom compares DPP topology selection against uniform random
// selection at equal budget (Appendix E's justification).
func AblationDPPvsRandom(opt Options) (*Report, error) {
	r := &Report{
		ID:     "abl-dpp",
		Title:  "Topology selection: DPP vs random at equal budget",
		Header: []string{"budget", "dpp satisfied", "random satisfied"},
	}
	sc := scales(opt)[0]
	// Each pass embeds, trains or scores on a fresh scenario of one seed.
	scen := func() *sim.Scenario { return newScenario(sc, topology.CrossShellLasers, 0, opt.Seed+151) }
	poolSize, k, epochs := 16, 3, 10
	if opt.Full {
		poolSize, k, epochs = 80, 16, 20
	}
	pool := sim.Instants(ciTrainStart, 41, poolSize)
	embedScen := scen()
	var vecs [][]float64
	for _, t := range pool {
		vecs = append(vecs, graphembed.Embed(embedScen.SnapshotAt(t), 64, 3))
	}
	trainEval := func(sel []int) (*sim.OnlineResult, error) {
		m := newModel(opt.Seed)
		if _, err := scen().Fit(m, sim.Recipe{Instants: pick(pool, sel), TrainConfig: core.TrainConfig{Epochs: epochs}}); err != nil {
			return nil, err
		}
		return scen().RunOffline(m, ciTrainStart+float64(poolSize)*41+100, evalStride, 3)
	}
	dpp, err := trainEval(graphembed.DPPSelect(vecs, k))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed + 152))
	random, err := trainEval(graphembed.RandomSelect(poolSize, k, rng))
	if err != nil {
		return nil, err
	}
	r.AddRow(fmt.Sprintf("%d", k), pct(dpp.SatisfiedMean), pct(random.SatisfiedMean))
	r.Note("DPP picks structurally diverse topologies; expected >= random at small budgets")
	return r, nil
}

// AblationAttention compares learned attention against mean aggregation in
// all GNN modules (Sec. 3.3's choice of attention-enabled GNN).
func AblationAttention(opt Options) (*Report, error) {
	r := &Report{
		ID:     "abl-attn",
		Title:  "Attention vs mean aggregation",
		Header: []string{"variant", "satisfied (unseen)", "train loss"},
	}
	sc := scales(opt)[0]
	// Each pass trains or scores on a fresh scenario of one seed.
	scen := func() *sim.Scenario { return newScenario(sc, topology.CrossShellLasers, 0, opt.Seed+161) }
	for _, variant := range []struct {
		name    string
		uniform bool
	}{{"attention", false}, {"mean-agg", true}} {
		cfg := core.DefaultConfig()
		cfg.Seed = opt.Seed
		cfg.UniformAttention = variant.uniform
		m := core.NewModel(cfg)
		res, err := scen().Fit(m, sim.Recipe{Instants: trainInstants(3), TrainConfig: core.TrainConfig{Epochs: 12}})
		if err != nil {
			return nil, err
		}
		eval, err := scen().RunOffline(m, ciEvalStart, evalStride, 3)
		if err != nil {
			return nil, err
		}
		r.AddRow(variant.name, pct(eval.SatisfiedMean), f3(res.FinalLoss))
	}
	return r, nil
}

// AblationMWUEpsilon sweeps the Garg-Könemann epsilon: solution quality vs
// latency trade-off of the scalable solver.
func AblationMWUEpsilon(opt Options) (*Report, error) {
	r := &Report{
		ID:     "abl-mwu",
		Title:  "GK packing-solver epsilon sweep (quality vs latency)",
		Header: []string{"epsilon", "throughput vs exact", "latency"},
	}
	sc := scales(opt)[0]
	s := newScenario(sc, topology.CrossShellLasers, 0, opt.Seed+171)
	p, _, _, err := s.ProblemAt(ciTrainStart)
	if err != nil {
		return nil, err
	}
	exact, err := (baselines.LPExact{}).Solve(p)
	if err != nil {
		return nil, err
	}
	optT := exact.Throughput()
	for _, eps := range []float64{0.3, 0.1, 0.05, 0.02} {
		c := sim.Cycle{Problem: p}
		if err := c.Solve(baselines.GK{Epsilon: eps}); err != nil {
			return nil, err
		}
		ratio := 0.0
		if optT > 0 {
			ratio = c.Alloc.Throughput() / optT
		}
		r.AddRow(fmt.Sprintf("%.2f", eps), pct(ratio), ms(c.Stages.Solve))
	}
	return r, nil
}

// AblationLoss compares the pure-supervised training recipe against the
// Eq. 4 mixed (supervised + penalized-optimization) loss on a lightly and a
// heavily loaded scenario. On CPU-scale instances the mixed loss helps
// slightly when load is moderate but its Mbps-scale penalty gradient can
// crash the demand-normalised model under heavy overload — the reason
// DefaultTrainConfig warm-starts fully supervised (the paper grid-searched
// these hyperparameters for its GPU-scale setting, Appendix B).
func AblationLoss(opt Options) (*Report, error) {
	r := &Report{
		ID:     "abl-loss",
		Title:  "Training loss ablation: supervised-only vs mixed (Eq. 4)",
		Header: []string{"scenario", "supervised-only", "mixed loss", "optimal (ref)"},
	}
	sc := scales(opt)[0]
	for _, load := range []struct {
		name      string
		intensity float64
	}{{"light load", 0}, {"heavy load (2x)", 2 * sc.spec.Intensity}} {
		trainEval := func(warm float64) (*sim.OnlineResult, error) {
			s := newScenario(sc, topology.CrossShellLasers, load.intensity, opt.Seed+181)
			m := newModel(opt.Seed)
			if _, err := s.Fit(m, sim.Recipe{Instants: trainInstants(3), TrainConfig: core.TrainConfig{WarmupFrac: warm}}); err != nil {
				return nil, err
			}
			return s.RunOffline(m, ciEvalStart, evalStride, 3)
		}
		sup, err := trainEval(1.0)
		if err != nil {
			return nil, err
		}
		mixed, err := trainEval(0.75)
		if err != nil {
			return nil, err
		}
		refScen := newScenario(sc, topology.CrossShellLasers, load.intensity, opt.Seed+181)
		ref, err := refScen.RunOffline(labelSolver(), ciEvalStart, evalStride, 3)
		if err != nil {
			return nil, err
		}
		r.AddRow(load.name, pct(sup.SatisfiedMean), pct(mixed.SatisfiedMean), pct(ref.SatisfiedMean))
	}
	return r, nil
}
