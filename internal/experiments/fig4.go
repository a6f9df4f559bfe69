package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"sate/internal/baselines"
	"sate/internal/constellation"
	"sate/internal/groundnet"
	"sate/internal/orbit"
	"sate/internal/par"
	"sate/internal/paths"
	"sate/internal/ruledist"
	"sate/internal/topology"
)

func init() {
	register("fig4a", Fig4aTHT)
	register("fig4b", Fig4bPathObsolescence)
	register("fig4c", Fig4cLinkExclusion)
	register("fig13", Fig13RuleDistribution)
}

// thtConstellation picks the analysis constellation and sample count: the
// real Starlink shells in both modes; Full extends the window to the paper's
// 40,000 snapshots.
func thtConstellation(opt Options) (*constellation.Constellation, int) {
	if opt.Full {
		return constellation.StarlinkPhase1(), 40000
	}
	// CI uses the real Starlink constellation over a shorter window: a 15 s
	// sample already reproduces the paper's sub-100 ms mean THT.
	return constellation.StarlinkPhase1(), 1200
}

// Fig4aTHT reproduces Fig. 4 (a): the CDF of topology holding time, sampled
// every 12.5 ms, for both cross-shell link types.
func Fig4aTHT(opt Options) (*Report, error) {
	cons, nSnaps := thtConstellation(opt)
	r := &Report{
		ID:     "fig4a",
		Title:  "Topology holding time (CDF), 12.5 ms sampling",
		Header: []string{"cross-shell", "samples", "mean THT", "p50", "p90", "max"},
	}
	grid := groundnet.SyntheticPopulation(opt.Seed + 1)
	relays := groundnet.PlaceSites(222, grid.Probabilities(0), rand.New(rand.NewSource(opt.Seed+2)))
	for _, mode := range []topology.CrossShellMode{topology.CrossShellLasers, topology.CrossShellGroundRelays} {
		cfg := topology.DefaultConfig(mode)
		if mode == topology.CrossShellGroundRelays {
			cfg.Relays = relays
		}
		gen := topology.NewGenerator(cons, cfg)
		const dt = 0.0125
		// Snapshots are generated in parallel batches (Series fans out across
		// the worker pool); the THT fold over consecutive snapshots stays
		// serial. Batching bounds memory at Starlink scale.
		const batch = 256
		var prev *topology.Snapshot
		var holds []float64
		run := 0
		for start := 0; start < nSnaps; start += batch {
			n := nSnaps - start
			if n > batch {
				n = batch
			}
			for _, s := range gen.Series(dt*float64(start), dt, n) {
				if prev == nil {
					prev, run = s, 1
					continue
				}
				if s.SameTopology(prev) {
					run++
				} else {
					holds = append(holds, float64(run)*dt)
					run = 1
				}
				prev = s
			}
		}
		holds = append(holds, float64(run)*dt)
		res := topology.THTResult{SampleIntervalSec: dt, HoldTimesSec: holds}
		r.AddRow(mode.String(),
			fmt.Sprintf("%d", nSnaps),
			fmt.Sprintf("%.1f ms", res.Mean()*1000),
			fmt.Sprintf("%.1f ms", percentile(holds, 0.5)*1000),
			fmt.Sprintf("%.1f ms", percentile(holds, 0.9)*1000),
			fmt.Sprintf("%.1f ms", res.Max()*1000))
	}
	r.Note("paper (Starlink, 4236 sats): mean ~70 ms, max ~700 ms; cross-shell type has little effect")
	return r, nil
}

// Fig4bPathObsolescence reproduces Fig. 4 (b): configured shortest paths
// become obsolete as ISLs change; the paper reports >56%% of 14,941 paths
// obsolete within 150 s.
func Fig4bPathObsolescence(opt Options) (*Report, error) {
	cons, _ := thtConstellation(opt)
	nPairs := 300
	if opt.Full {
		nPairs = 1500
	}
	gen := topology.NewGenerator(cons, topology.DefaultConfig(topology.CrossShellLasers))
	s0 := gen.Snapshot(0)
	router := paths.NewGridRouter(cons, s0)
	// Draw the pair sample serially (the rng sequence fixes it), then fan the
	// independent k-shortest searches out across the worker pool.
	rng := rand.New(rand.NewSource(opt.Seed + 3))
	var pairs []paths.Pair
	for i := 0; i < nPairs; i++ {
		a := constellation.SatID(rng.Intn(cons.Size()))
		b := constellation.SatID(rng.Intn(cons.Size()))
		if a == b {
			continue
		}
		pairs = append(pairs, paths.Pair{Src: a, Dst: b})
	}
	routed := make([][]paths.Path, len(pairs))
	par.For(len(pairs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			routed[i] = router.KShortest(pairs[i].Src, pairs[i].Dst, 10)
		}
	})
	var configured []paths.Path
	for _, ps := range routed {
		configured = append(configured, ps...)
	}
	r := &Report{
		ID:     "fig4b",
		Title:  fmt.Sprintf("Configured-path obsolescence over time (%d paths)", len(configured)),
		Header: []string{"elapsed", "obsolete paths"},
	}
	for _, tm := range []float64{1, 5, 10, 30, 60, 90, 120, 150} {
		st := gen.Snapshot(tm)
		r.AddRow(fmt.Sprintf("%.0f s", tm), pct(paths.ObsoleteFraction(configured, st)))
	}
	r.Note("paper: >56%% of 14,941 configured Starlink paths obsolete within 150 s")
	return r, nil
}

// Fig4cLinkExclusion reproduces Fig. 4 (c): the fraction of changeable ISLs
// that must be excluded when TE computation spans a given interval.
func Fig4cLinkExclusion(opt Options) (*Report, error) {
	cons, _ := thtConstellation(opt)
	gen := topology.NewGenerator(cons, topology.DefaultConfig(topology.CrossShellLasers))
	// Snapshots every 0.5 s over 250 s: interval sweep from sub-second to
	// 250 s (the paper sweeps 12.5 ms - 250 s at 12.5 ms sampling).
	dt := 0.5
	n := 500
	if opt.Full {
		dt = 0.1
		n = 2500
	}
	snaps := gen.Series(0, dt, n)
	r := &Report{
		ID:     "fig4c",
		Title:  "Excluded changeable ISLs vs TE interval",
		Header: []string{"interval", "excluded links"},
	}
	for _, steps := range []int{1, 2, 10, 20, 60, 120, 240, n} {
		if steps > n {
			continue
		}
		r.AddRow(fmt.Sprintf("%.1f s", float64(steps)*dt), pct(topology.LinkExclusion(snaps, steps)))
	}
	r.Note("paper: exclusion grows from ~0 at 12.5 ms to a large fraction at 250 s")
	return r, nil
}

// Fig13RuleDistribution reproduces Fig. 13 / Appendix D: propagation delay of
// traffic-rule distribution from a Houston control centre to every satellite.
func Fig13RuleDistribution(opt Options) (*Report, error) {
	cons := constellation.StarlinkPhase1() // cheap even in CI: one snapshot
	gen := topology.NewGenerator(cons, topology.DefaultConfig(topology.CrossShellLasers))
	snap := gen.Snapshot(0)
	delays := ruledist.RuleDistributionDelays(snap, ruledist.HoustonSite, orbit.Deg(25))
	var finite []float64
	for _, d := range delays {
		if d < 10 {
			finite = append(finite, d)
		}
	}
	st := ruledist.SummarizeDelays(delays)
	r := &Report{
		ID:     "fig13",
		Title:  "Rule-distribution propagation delay, Houston -> 4236 Starlink satellites",
		Header: []string{"stat", "delay"},
	}
	r.AddRow("min", fmt.Sprintf("%.1f ms", st.MinSec*1000))
	r.AddRow("p50", fmt.Sprintf("%.1f ms", percentile(finite, 0.5)*1000))
	r.AddRow("p90", fmt.Sprintf("%.1f ms", percentile(finite, 0.9)*1000))
	r.AddRow("max", fmt.Sprintf("%.1f ms", st.MaxSec*1000))
	r.AddRow("reachable", fmt.Sprintf("%d/%d", st.Reachable, snap.NumSats))
	frac, err := ruleOverhead(opt.Seed)
	if err != nil {
		return nil, err
	}
	r.AddRow("rule overhead", fmt.Sprintf("%.4f%%", 100*frac))
	r.Note("paper: 2.3 ms minimum, 174 ms maximum")
	r.Note("rule overhead: ecmp-wf's compiled rules on the CI iridium-66 problem, 64 B each per 1 s interval, over total ISL capacity (Appendix D: < 5%%)")
	return r, nil
}

// ruleOverhead is Appendix D's control-message overhead for the CI-scale
// iridium-66 cycle (lasers, at ciTrainStart) under ECMP-WF: its compiled
// rules, 64 bytes each, distributed once per 1 s TE interval, as a fraction
// of the interval's total ISL capacity.
func ruleOverhead(seed int64) (float64, error) {
	s := newScenario(ciScales()[1], topology.CrossShellLasers, 0, seed)
	c, err := s.RunCycle(context.Background(), baselines.ECMPWF{}, ciTrainStart)
	if err != nil {
		return 0, err
	}
	if err := c.Compile(); err != nil {
		return 0, err
	}
	return ruledist.RuleOverheadFraction(c.Problem, c.Rules, 64, 1), nil
}
