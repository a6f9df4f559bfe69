package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"sate/internal/baselines"
	"sate/internal/core"
	"sate/internal/sim"
	"sate/internal/solve"
	"sate/internal/te"
	"sate/internal/topology"
)

func init() {
	register("fig15a", Fig15aMLU)
	register("fig15b", Fig15bLinkFailures)
	register("fig16", Fig16FlowLevel)
}

// Fig15aMLU reproduces Fig. 15 (a) / Appendix H.2: SaTE retrained for the
// minimise-MLU objective, compared with POP and the MLU-specialised HARP.
func Fig15aMLU(opt Options) (*Report, error) {
	r := &Report{
		ID:     "fig15a",
		Title:  "Max link utilisation (lower is better; satisfied demand shown for context)",
		Header: []string{"intensity", "sate-mlu", "pop", "harp"},
	}
	sc := scales(opt)[0]
	epochs := 12
	// MLU minimisation presumes demand is routable well below saturation;
	// sweep lighter loads than the throughput experiments.
	intensities := []float64{1, 2, 4}
	if opt.Full {
		intensities = []float64{60, 125, 250}
	}
	for _, intensity := range intensities {
		// Train SaTE-MLU and HARP self-supervised on the same training
		// problems, each read from its own scenario of one seed.
		trainScen := func() *sim.Scenario { return newScenario(sc, topology.CrossShellLasers, intensity, opt.Seed+101) }
		trainProblems, err := problemsAt(trainScen(), trainInstants(3))
		if err != nil {
			return nil, err
		}
		if len(trainProblems) == 0 {
			continue
		}
		sate := newModel(opt.Seed)
		mlu := core.TrainConfig{Epochs: epochs, Objective: solve.MLU}
		if _, err := trainScen().Fit(sate, sim.Recipe{Instants: trainInstants(3), TrainConfig: mlu}); err != nil {
			return nil, err
		}
		harp, err := trainHarp(trainProblems, epochs, opt.Seed)
		if err != nil {
			return nil, err
		}
		// Evaluate MLU on unseen problems, each method on a fresh scenario.
		// All methods route what they can; MLU is measured on the feasible
		// allocation.
		evalMLU := func(solveFn func(*te.Problem, ...solve.Option) (*te.Allocation, error)) string {
			evalScen := newScenario(sc, topology.CrossShellLasers, intensity, opt.Seed+102)
			var mluSum, satSum float64
			n := 0
			for i := 0; i < 3; i++ {
				p, _, _, err := evalScen.ProblemAt(ciEvalStart + float64(i)*29)
				if err != nil || len(p.Flows) == 0 {
					continue
				}
				a, err := solveFn(p)
				if err != nil {
					continue
				}
				mluSum += p.MLU(a)
				satSum += p.SatisfiedDemand(a)
				n++
			}
			if n == 0 {
				return "n/a"
			}
			return fmt.Sprintf("%.3f (%.0f%% routed)", mluSum/float64(n), 100*satSum/float64(n))
		}
		pop := &baselines.POP{K: 4, Seed: opt.Seed}
		sateMLU := func(p *te.Problem, opts ...solve.Option) (*te.Allocation, error) {
			return sate.Solve(p, append([]solve.Option{solve.WithObjective(solve.MLU)}, opts...)...)
		}
		r.AddRow(fmt.Sprintf("%.0f", intensity),
			evalMLU(sateMLU),
			evalMLU(pop.Solve),
			evalMLU(harp.Solve))
	}
	r.Note("paper: SaTE-MLU beats POP by 24.5%% (lasers) / 9.3%% (relays) but trails the MLU-specialised HARP by 13-16%%")
	return r, nil
}

// Fig15bLinkFailures reproduces Fig. 15 (b) / Appendix H.3: loss in satisfied
// demand under sudden random link failures, without retraining or rerouting.
// The "stale alloc" column is the degraded-controller view: the allocation
// computed on the pre-failure topology, re-scored honestly against the failed
// link set (sim.Cycle.Satisfied) — what sate-controld's /v1/status reports while a
// failed cycle keeps it serving the last good allocation.
func Fig15bLinkFailures(opt Options) (*Report, error) {
	r := &Report{
		ID:     "fig15b",
		Title:  "Satisfied-demand loss under random link failures (no retraining)",
		Header: []string{"failure rate", "satisfied", "loss vs no-failure", "stale alloc"},
	}
	sc := scales(opt)[0]
	trainScen := newScenario(sc, topology.CrossShellLasers, 0, opt.Seed+111)
	model, _, err := trainSaTE(trainScen, 3, 30, opt.Seed)
	if err != nil {
		return nil, err
	}
	// Each pass over the eval instants reads them from a fresh scenario.
	rng := rand.New(rand.NewSource(opt.Seed + 113))

	// Last-good cycles: solve each eval instant on the intact topology and
	// keep the cycle to re-score per instant.
	nEval := 3
	lastGood := make([]*sim.Cycle, nEval)
	intact := newScenario(sc, topology.CrossShellLasers, 0, opt.Seed+112)
	for i := 0; i < nEval; i++ {
		p0, snap0, _, err := intact.ProblemAt(ciEvalStart + float64(i)*evalStride)
		if err != nil {
			return nil, err
		}
		if len(p0.Flows) == 0 {
			continue
		}
		lastGood[i] = &sim.Cycle{Snap: snap0, Problem: p0}
		if err := lastGood[i].Solve(model); err != nil {
			return nil, err
		}
	}

	baseline := math.NaN()
	for _, rate := range []float64{0, 0.001, 0.01, 0.05} {
		var sum, staleSum float64
		n := 0
		failed := newScenario(sc, topology.CrossShellLasers, 0, opt.Seed+112)
		for i := 0; i < nEval; i++ {
			p, _, err := failed.ProblemWithFailures(ciEvalStart+float64(i)*evalStride, rate, rng)
			if err != nil {
				return nil, err
			}
			if len(p.Flows) == 0 || lastGood[i] == nil {
				continue
			}
			a, err := model.Solve(p)
			if err != nil {
				return nil, err
			}
			sum += p.SatisfiedDemand(a)
			staleSum += lastGood[i].Satisfied(p, p.LinkSet())
			n++
		}
		if n == 0 {
			continue
		}
		sat := sum / float64(n)
		stale := staleSum / float64(n)
		if rate == 0 {
			baseline = sat
			r.AddRow("none", pct(sat), "-", pct(stale))
			continue
		}
		loss := 0.0
		if baseline > 0 {
			loss = (baseline - sat) / baseline
		}
		r.AddRow(pct(rate), pct(sat), pct(loss), pct(stale))
	}
	r.Note("paper: <5.2%% loss at up to 1%% failures without rerouting; 5%% failures degrade further")
	r.Note("stale alloc: last-good allocation re-scored against the failed topology (degraded-mode fallback)")
	return r, nil
}

// Fig16FlowLevel reproduces Fig. 16 / Appendix H.4: the distribution of
// flow-level satisfied demand and its stability over time (coefficient of
// variation across windows).
func Fig16FlowLevel(opt Options) (*Report, error) {
	r := &Report{
		ID:     "fig16",
		Title:  "Flow-level satisfied demand (CDF buckets) and CV over time",
		Header: []string{"stat", "value"},
	}
	sc := scales(opt)[0]
	intensity := onlineIntensities(opt)[0]
	trainScen := newScenario(sc, topology.CrossShellLasers, intensity, opt.Seed+121)
	model, _, err := trainSaTE(trainScen, 3, 30, opt.Seed)
	if err != nil {
		return nil, err
	}
	evalScen := newScenario(sc, topology.CrossShellLasers, intensity, opt.Seed+122)

	// Collect per-flow ratios across several instants; also track per-pair
	// ratios over time for the CV analysis.
	type pairKey struct{ s, d topology.NodeID }
	ratiosByPair := make(map[pairKey][]float64)
	var all []float64
	err = evalScen.SolveEach(model, sim.Instants(ciEvalStart, 17, 5), func(c *sim.Cycle) error {
		for fi, ratio := range c.Problem.FlowStats(c.Alloc) {
			all = append(all, ratio)
			k := pairKey{c.Problem.Flows[fi].Src, c.Problem.Flows[fi].Dst}
			ratiosByPair[k] = append(ratiosByPair[k], ratio)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("fig16: no flows evaluated")
	}
	// The gated decoder's soft clamp caps per-flow satisfaction near 0.98 by
	// construction, so ">= 95% satisfied" is the practical analogue of the
	// paper's "fully satisfied" bucket.
	fully := 0
	for _, v := range all {
		if v >= 0.95 {
			fully++
		}
	}
	r.AddRow("flows observed", fmt.Sprintf("%d", len(all)))
	r.AddRow(">=95% satisfied", pct(float64(fully)/float64(len(all))))
	r.AddRow("p10", f3(percentile(all, 0.1)))
	r.AddRow("p50", f3(percentile(all, 0.5)))
	r.AddRow("p90", f3(percentile(all, 0.9)))

	// CV of per-pair satisfaction across time windows.
	var cvs []float64
	for _, series := range ratiosByPair {
		if len(series) < 2 {
			continue
		}
		var mean float64
		for _, v := range series {
			mean += v
		}
		mean /= float64(len(series))
		if mean <= 0 {
			continue
		}
		var varSum float64
		for _, v := range series {
			varSum += (v - mean) * (v - mean)
		}
		cvs = append(cvs, math.Sqrt(varSum/float64(len(series)))/mean)
	}
	if len(cvs) > 0 {
		r.AddRow("median CV across time", f3(percentile(cvs, 0.5)))
	}
	r.Note("paper: >30%% of pairs fully satisfied; median CV < 0.12 (stable service)")
	return r, nil
}
