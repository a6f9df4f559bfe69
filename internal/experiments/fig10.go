package experiments

import (
	"fmt"

	"sate/internal/baselines"
	"sate/internal/par"
	"sate/internal/sim"
	"sate/internal/topology"
)

func init() {
	register("fig10ab", Fig10abOnline)
	register("fig10c", Fig10cTealComparison)
	register("fig10d", Fig10dGeneralization)
	register("fig14", Fig14Offline)
}

// onlineIntensities returns the traffic-intensity sweep.
func onlineIntensities(opt Options) []float64 {
	if opt.Full {
		return []float64{125, 250, 375, 500}
	}
	// CI intensities are calibrated against the CI constellations' capacity
	// at the steady-state load of the scaled flow durations.
	return []float64{3, 6, 12}
}

// Fig10abOnline reproduces Fig. 10 (a & b): online satisfied demand vs
// traffic intensity for SaTE and the baselines, under both cross-shell link
// types. The online metric accounts for computation latency: each method's
// allocation stays in effect (and goes stale) for a recomputation interval
// set to its measured solve latency.
func Fig10abOnline(opt Options) (*Report, error) {
	r := &Report{
		ID:     "fig10ab",
		Title:  "Online satisfied demand vs traffic intensity",
		Header: []string{"mode", "intensity", "sate", "lp (gurobi role)", "pop", "ecmp-wf", "backpressure"},
	}
	sc := scales(opt)[0]
	if opt.Full {
		sc = scales(opt)[1]
	}
	horizon := 40
	if opt.Full {
		horizon = 120
	}
	// Every (mode, intensity) cell is independent — its own seeded training
	// scenario, model, and evaluation runs — so the grid fans out across the
	// worker pool. Rows are collected per cell and appended in grid order, so
	// the report is identical to the serial sweep.
	type cellSpec struct {
		mode      topology.CrossShellMode
		intensity float64
	}
	var cells []cellSpec
	for _, mode := range []topology.CrossShellMode{topology.CrossShellLasers, topology.CrossShellGroundRelays} {
		for _, intensity := range onlineIntensities(opt) {
			cells = append(cells, cellSpec{mode, intensity})
		}
	}
	rows := make([][]string, len(cells))
	errs := make([]error, len(cells))
	par.For(len(cells), 1, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			rows[ci], errs[ci] = fig10abCell(opt, sc, horizon, cells[ci].mode, cells[ci].intensity)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	r.Rows = append(r.Rows, rows...)
	r.Note("paper: SaTE best online at every intensity; +23.5%% (lasers) / +46.6%% (relays) vs best baseline; satisfied demand falls as load rises")
	return r, nil
}

// fig10abCell trains and evaluates one (mode, intensity) cell of Fig. 10 a/b.
func fig10abCell(opt Options, sc scaleSpec, horizon int, mode topology.CrossShellMode, intensity float64) ([]string, error) {
	// Train SaTE on this scenario class (separate seed for training).
	trainScen := newScenario(sc, mode, intensity, opt.Seed+61)
	model, _, err := trainSaTE(trainScen, 3, 30, opt.Seed)
	if err != nil {
		return nil, err
	}
	run := func(al sim.Allocator, interval float64) string {
		s := newScenario(sc, mode, intensity, opt.Seed+62) // unseen traffic
		res, err := s.RunOnline(al, sim.OnlineConfig{
			HorizonSec:  horizon,
			StartSec:    ciEvalStart, // steady-state window
			IntervalSec: interval,
			StepSec:     2,
		})
		if err != nil {
			return "err"
		}
		return pct(res.SatisfiedMean)
	}
	// Recomputation intervals follow the paper's protocol (Sec. 5.4):
	// each method recomputes at its Starlink-scale average latency, the
	// solver table's interval (Gurobi 47 s, POP 25 s, ECMP-WF 54 s), and
	// SaTE every step (17 ms << 1 s). Fixed intervals keep the CI-scale run
	// faithful to the mega-constellation deployment the paper models.
	row := []string{mode.String(), fmt.Sprintf("%.0f", intensity), run(model, 2)}
	for _, name := range []string{"lp", "pop", "ecmp-wf"} {
		al, err := sim.Spec{Solver: name, ScenarioConfig: sim.ScenarioConfig{Seed: opt.Seed}}.NewSolver()
		if err != nil {
			return nil, err
		}
		row = append(row, run(al, sim.RecomputeIntervalSec(name)))
	}
	// Backpressure: distributed, no central computation; evaluated by
	// queue simulation on sampled instants.
	bpScen := newScenario(sc, mode, intensity, opt.Seed+62)
	var bpSum float64
	bpN := 0
	for i := 0; i < 3; i++ {
		p, _, _, err := bpScen.ProblemAt(ciEvalStart + float64(i*15))
		if err != nil {
			return nil, err
		}
		if len(p.Flows) == 0 {
			continue
		}
		bpSum += baselines.Backpressure{}.Evaluate(p)
		bpN++
	}
	bpCell := "n/a"
	if bpN > 0 {
		bpCell = pct(bpSum / float64(bpN))
	}
	return append(row, bpCell), nil
}

// Fig10cTealComparison reproduces Fig. 10 (c): SaTE vs Teal online at a scale
// Teal can handle.
func Fig10cTealComparison(opt Options) (*Report, error) {
	r := &Report{
		ID:     "fig10c",
		Title:  "SaTE vs Teal, online satisfied demand (Teal-feasible scale)",
		Header: []string{"mode", "intensity", "sate", "teal"},
	}
	sc := scales(opt)[0]
	horizon := 30
	for _, mode := range []topology.CrossShellMode{topology.CrossShellLasers, topology.CrossShellGroundRelays} {
		intensity := onlineIntensities(opt)[0]
		trainScen := newScenario(sc, mode, intensity, opt.Seed+71)
		model, _, err := trainSaTE(trainScen, 3, 30, opt.Seed)
		if err != nil {
			return nil, err
		}
		// Teal is bound to (and trained on) a topology from the TRAINING
		// scenario; at evaluation time the topology has drifted and Teal's
		// frozen pair/path layout is stale — the effect the paper measures.
		tealScen := newScenario(sc, mode, intensity, opt.Seed+71)
		p0, _, _, err := tealScen.ProblemAt(ciTrainStart)
		if err != nil {
			return nil, err
		}
		teal := trainedTeal(tealScen, p0)
		run := func(al sim.Allocator) string {
			s := newScenario(sc, mode, intensity, opt.Seed+72)
			res, err := s.RunOnline(al, sim.OnlineConfig{
				HorizonSec: horizon, StartSec: ciEvalStart, IntervalSec: 2, StepSec: 2,
			})
			if err != nil {
				return "err"
			}
			return pct(res.SatisfiedMean)
		}
		tealCell := "OOM"
		if teal != nil {
			tealCell = run(teal)
		}
		r.AddRow(mode.String(), fmt.Sprintf("%.0f", intensity), run(model), tealCell)
	}
	r.Note("paper (396 sats): SaTE beats Teal by 17.4%% (lasers) and 19.8%% (relays) — Teal's frozen pair/path layout goes stale")
	return r, nil
}

// Fig10dGeneralization reproduces Fig. 10 (d): a model trained on one scale
// applied to other scales, measured as the ratio of its satisfied demand to
// the offline optimum, compared with models trained natively on each scale.
func Fig10dGeneralization(opt Options) (*Report, error) {
	r := &Report{
		ID:     "fig10d",
		Title:  "Cross-scale generalization (ratio to offline optimum)",
		Header: []string{"test scale", "native model", "transferred model"},
	}
	scs := scales(opt)
	trainScale := scs[0]
	if len(scs) > 1 {
		trainScale = scs[1] // train on the middle scale, as the paper trains on 396
	}
	trainScen := newScenario(trainScale, topology.CrossShellLasers, 0, opt.Seed+81)
	transferred, _, err := trainSaTE(trainScen, 3, 30, opt.Seed)
	if err != nil {
		return nil, err
	}
	for _, sc := range scs {
		native, _, err := trainSaTE(newScenario(sc, topology.CrossShellLasers, 0, opt.Seed+83), 3, 30, opt.Seed)
		if err != nil {
			return nil, err
		}
		// Each evaluation scores the same unseen instants on a fresh scenario.
		eval := func(al sim.Allocator) (*sim.OnlineResult, error) {
			return newScenario(sc, topology.CrossShellLasers, 0, opt.Seed+82).RunOffline(al, ciEvalStart, evalStride, 3)
		}
		optimum, err := eval(labelSolver())
		if err != nil {
			return nil, err
		}
		nat, err := eval(native)
		if err != nil {
			return nil, err
		}
		xfer, err := eval(transferred)
		if err != nil {
			return nil, err
		}
		optSat := optimum.SatisfiedMean
		if optSat <= 0 {
			continue
		}
		r.AddRow(sc.name, pct(nat.SatisfiedMean/optSat), pct(xfer.SatisfiedMean/optSat))
	}
	r.Note("paper: native models >80%% of optimum; the 396-trained model transfers with 6-18%% degradation yet still beats the baselines at Starlink")
	return r, nil
}

// Fig14Offline reproduces Fig. 14 / Appendix H.1: offline satisfied demand
// (no latency accounting). The LP reference is the upper bound; SaTE should
// be second, close behind.
func Fig14Offline(opt Options) (*Report, error) {
	r := &Report{
		ID:     "fig14",
		Title:  "Offline satisfied demand vs intensity (no computation delay)",
		Header: []string{"intensity", "optimal (lp)", "sate", "pop", "ecmp-wf"},
	}
	sc := scales(opt)[0]
	// Per-intensity fan-out: each intensity trains and evaluates
	// independently; rows are appended in sweep order.
	intensities := onlineIntensities(opt)
	rows := make([][]string, len(intensities))
	errs := make([]error, len(intensities))
	par.For(len(intensities), 1, func(lo, hi int) {
		for ii := lo; ii < hi; ii++ {
			intensity := intensities[ii]
			trainScen := newScenario(sc, topology.CrossShellLasers, intensity, opt.Seed+91)
			model, _, err := trainSaTE(trainScen, 3, 30, opt.Seed)
			if err != nil {
				errs[ii] = err
				continue
			}
			eval := func(al sim.Allocator) string {
				s := newScenario(sc, topology.CrossShellLasers, intensity, opt.Seed+92)
				res, err := s.RunOffline(al, ciEvalStart, evalStride, 3)
				if err != nil {
					return "err"
				}
				return pct(res.SatisfiedMean)
			}
			rows[ii] = []string{fmt.Sprintf("%.0f", intensity),
				eval(baselines.LPAuto{}),
				eval(model),
				eval(&baselines.POP{K: 4, Seed: opt.Seed}),
				eval(baselines.ECMPWF{})}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	r.Rows = append(r.Rows, rows...)
	r.Note("paper: offline SaTE is second best, 12.8%% (lasers) / 12.3%% (relays) below the Gurobi upper bound")
	return r, nil
}
