package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"sate/internal/constellation"
	"sate/internal/core"
	"sate/internal/groundnet"
	"sate/internal/orbit"
	"sate/internal/paths"
	"sate/internal/sim"
	"sate/internal/topology"
)

func init() {
	register("fig12", Fig12PathDelay)
	register("appc-paths", AppCIncrementalPaths)
	register("disc-finetune", DiscussionFineTune)
}

// frankfurt and singapore are the two example users of Appendix C (Fig. 12).
var (
	frankfurt = groundnet.Site{LatDeg: 50.11, LonDeg: 8.68}
	singapore = groundnet.Site{LatDeg: 1.35, LonDeg: 103.82}
)

// Fig12PathDelay reproduces Fig. 12 / Appendix C: end-to-end path delay for a
// Frankfurt-Singapore connection under two access strategies — (1) each user
// accesses any visible satellite, (2) both endpoints access satellites of the
// same orbital shell. Same-shell access yields stabler path delays.
func Fig12PathDelay(opt Options) (*Report, error) {
	cons := constellation.StarlinkPhase1()
	gen := topology.NewGenerator(cons, topology.DefaultConfig(topology.CrossShellLasers))
	steps := 20
	if opt.Full {
		steps = 120
	}

	// bestInShell returns the highest-elevation satellite of one shell (or of
	// all shells when shell < 0) for a site, given positions.
	bestInShell := func(site groundnet.Site, shell int, snap *topology.Snapshot) (constellation.SatID, bool) {
		sp := site.ECEF()
		best := constellation.SatID(-1)
		bestE := orbit.Deg(25)
		var sats []constellation.Satellite
		if shell < 0 {
			sats = cons.Sats
		} else {
			sats = cons.ShellSats(shell)
		}
		for i := range sats {
			id := sats[i].ID
			if e := orbit.ElevationAngle(sp, snap.Pos[id]); e > bestE {
				best, bestE = id, e
			}
		}
		return best, best >= 0
	}

	delayFor := func(snap *topology.Snapshot, g *paths.Graph, a, b constellation.SatID, site1, site2 groundnet.Site) (float64, bool) {
		access := orbit.PropagationDelaySec(site1.ECEF(), snap.Pos[a]) +
			orbit.PropagationDelaySec(snap.Pos[b], site2.ECEF())
		if a == b {
			return access, true
		}
		// Delay-optimal route: Dijkstra over geometric link lengths.
		_, km, ok := g.ShortestPathByDistance(topology.NodeID(a), topology.NodeID(b), snap.Pos)
		if !ok {
			return 0, false
		}
		return km/orbit.SpeedOfLightKmS + access, true
	}

	var anyDelays, sameDelays []float64
	for i := 0; i < steps; i++ {
		t := float64(i) * 15
		snap := gen.Snapshot(t)
		g := paths.GraphFrom(snap)
		// Strategy 1: any visible satellite.
		a1, ok1 := bestInShell(frankfurt, -1, snap)
		b1, ok2 := bestInShell(singapore, -1, snap)
		if ok1 && ok2 {
			if d, ok := delayFor(snap, g, a1, b1, frankfurt, singapore); ok {
				anyDelays = append(anyDelays, d*1000)
			}
		}
		// Strategy 2: both endpoints in shell 0 (540 km, densest).
		a2, ok1 := bestInShell(frankfurt, 0, snap)
		b2, ok2 := bestInShell(singapore, 0, snap)
		if ok1 && ok2 {
			if d, ok := delayFor(snap, g, a2, b2, frankfurt, singapore); ok {
				sameDelays = append(sameDelays, d*1000)
			}
		}
	}
	r := &Report{
		ID:     "fig12",
		Title:  "Frankfurt-Singapore path delay by access strategy (Starlink)",
		Header: []string{"strategy", "samples", "mean", "stddev", "CV"},
	}
	row := func(name string, d []float64) {
		if len(d) == 0 {
			r.AddRow(name, "0", "-", "-", "-")
			return
		}
		var mean float64
		for _, v := range d {
			mean += v
		}
		mean /= float64(len(d))
		var varSum float64
		for _, v := range d {
			varSum += (v - mean) * (v - mean)
		}
		sd := math.Sqrt(varSum / float64(len(d)))
		r.AddRow(name, fmt.Sprintf("%d", len(d)),
			fmt.Sprintf("%.1f ms", mean), fmt.Sprintf("%.1f ms", sd), f3(sd/mean))
	}
	row("any visible satellite", anyDelays)
	row("same shell (shell 1)", sameDelays)
	r.Note("paper: same-shell access promotes stabler path delays for the connection")
	return r, nil
}

// AppCIncrementalPaths reproduces the Appendix C / Sec. 4 claim about
// incremental path maintenance: as topology changes, fewer than 2%% of
// configured paths need recomputation per second, far cheaper than full
// recomputation (56 ms average at Starlink scale on the paper's hardware).
func AppCIncrementalPaths(opt Options) (*Report, error) {
	cons := constellation.MidSize1()
	nPairs := 300
	steps := 30
	if opt.Full {
		cons = constellation.StarlinkPhase1()
		nPairs = 1500
		steps = 60
	}
	gen := topology.NewGenerator(cons, topology.DefaultConfig(topology.CrossShellLasers))
	s0 := gen.Snapshot(0)
	db := paths.NewDB(cons, s0, 10)
	rng := rand.New(rand.NewSource(opt.Seed + 201))
	var pairs []paths.Pair
	for len(pairs) < nPairs {
		a := constellation.SatID(rng.Intn(cons.Size()))
		b := constellation.SatID(rng.Intn(cons.Size()))
		if a == b {
			continue
		}
		pairs = append(pairs, paths.Pair{Src: a, Dst: b})
	}
	db.Precompute(pairs) // parallel fan-out across the worker pool

	var totalRecomputed int
	var totalUpdate time.Duration
	changedSteps := 0
	for i := 1; i <= steps; i++ {
		snap := gen.Snapshot(float64(i))
		start := time.Now()
		rec := db.Update(snap)
		totalUpdate += time.Since(start)
		totalRecomputed += rec
		if rec > 0 {
			changedSteps++
		}
	}
	// Full-recomputation reference: rebuild every pair against the final
	// snapshot.
	finalSnap := gen.Snapshot(float64(steps))
	router := paths.NewGridRouter(cons, finalSnap)
	start := time.Now()
	for _, pr := range pairs {
		router.KShortest(pr.Src, pr.Dst, 10)
	}
	fullTime := time.Since(start)

	fracPerSec := float64(totalRecomputed) / float64(len(pairs)) / float64(steps)
	r := &Report{
		ID:     "appc-paths",
		Title:  "Incremental path maintenance vs full recomputation",
		Header: []string{"metric", "value"},
	}
	r.AddRow("configured pairs", fmt.Sprintf("%d", len(pairs)))
	r.AddRow("seconds simulated", fmt.Sprintf("%d", steps))
	r.AddRow("pairs recomputed/s", pct(fracPerSec))
	r.AddRow("steps with changes", fmt.Sprintf("%d/%d", changedSteps, steps))
	r.AddRow("mean incremental update", ms(totalUpdate/time.Duration(steps)))
	r.AddRow("full recomputation", ms(fullTime))
	r.Note("paper: <2%% of paths re-computed per second; incremental updates average 56 ms at Starlink scale")
	return r, nil
}

// DiscussionFineTune reproduces the Sec. 7 fine-tuning discussion: a model
// transferred to a different constellation scale recovers performance after
// brief fine-tuning on a few samples from the target scale (the curriculum
// direction the paper suggests for gradually expanding constellations).
func DiscussionFineTune(opt Options) (*Report, error) {
	scs := scales(opt)
	srcScale, dstScale := scs[0], scs[1]

	srcScen := newScenario(srcScale, topology.CrossShellLasers, 0, opt.Seed+211)
	model, _, err := trainSaTE(srcScen, 3, 30, opt.Seed)
	if err != nil {
		return nil, err
	}

	// Each evaluation scores the same unseen instants on a fresh scenario.
	evalDst := func(al sim.Allocator) (*sim.OnlineResult, error) {
		return newScenario(dstScale, topology.CrossShellLasers, 0, opt.Seed+212).RunOffline(al, ciEvalStart, evalStride, 3)
	}
	optimum, err := evalDst(labelSolver())
	if err != nil {
		return nil, err
	}
	before, err := evalDst(model)
	if err != nil {
		return nil, err
	}

	// Fine-tune on a few target-scale samples (fresh traffic seed), with
	// gentler steps than from scratch: adapt, do not forget.
	ftScen := newScenario(dstScale, topology.CrossShellLasers, 0, opt.Seed+213)
	if _, err := ftScen.Fit(model, sim.Recipe{Instants: trainInstants(3), TrainConfig: core.TrainConfig{Epochs: 15, LR: 2e-3}}); err != nil {
		return nil, err
	}
	after, err := evalDst(model)
	if err != nil {
		return nil, err
	}

	r := &Report{
		ID:     "disc-finetune",
		Title:  fmt.Sprintf("Fine-tuning a %s-trained model for %s", srcScale.name, dstScale.name),
		Header: []string{"stage", "satisfied", "vs offline optimum"},
	}
	optSat := optimum.SatisfiedMean
	ratio := func(x float64) string {
		if optSat <= 0 {
			return "-"
		}
		return pct(x / optSat)
	}
	r.AddRow("transferred (no tuning)", pct(before.SatisfiedMean), ratio(before.SatisfiedMean))
	r.AddRow("after fine-tuning", pct(after.SatisfiedMean), ratio(after.SatisfiedMean))
	r.AddRow("offline optimum", pct(optSat), "100.0%")
	r.Note("Sec. 7: fine-tuning targets cross-scale transfer losses; at CI scale the transfer gap is already small, so gains are marginal — the headroom appears at gaps like the paper's 396 -> 4236")
	return r, nil
}
