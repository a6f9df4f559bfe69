package experiments

import (
	"fmt"
	"time"

	"sate/internal/autodiff"
	"sate/internal/baselines"
	"sate/internal/graphembed"
	"sate/internal/sim"
	"sate/internal/topology"
)

func init() {
	register("fig9a", Fig9aTrainingTime)
	register("fig9b", Fig9bTopologyPruning)
}

// Fig9aTrainingTime reproduces Fig. 9 (a): wall-clock training time of SaTE
// vs the learned baselines across scales, same hardware, same data budget.
func Fig9aTrainingTime(opt Options) (*Report, error) {
	r := &Report{
		ID:     "fig9a",
		Title:  "Training time vs scale (same data budget)",
		Header: []string{"scale", "sate", "teal", "harp"},
	}
	nSamples, epochs := 2, 5
	if opt.Full {
		nSamples, epochs = 6, 15
	}
	scs := scales(opt)
	if opt.Full {
		scs = scs[:2] // learned-baseline training above 396 sats is days on 1 core
	}
	for _, sc := range scs {
		s := newScenario(sc, topology.CrossShellLasers, 0, opt.Seed+41)

		_, sateTime, err := trainSaTE(s, nSamples, epochs, opt.Seed)
		if err != nil {
			return nil, err
		}

		// Teal: trained per topology on the same sample count.
		tealCell := "OOM"
		p0, _, _, err := s.ProblemAt(ciTrainStart)
		if err != nil {
			return nil, err
		}
		if teal := tealFor(s, p0, 512<<20); teal != nil {
			ref, err := labelSolver().Solve(p0)
			if err != nil {
				return nil, err
			}
			opt2 := autodiff.NewAdam(3e-3, teal.Params()...)
			start := time.Now()
			for e := 0; e < epochs*nSamples; e++ {
				if _, err := teal.TrainStep(p0, ref, opt2); err != nil {
					return nil, err
				}
			}
			tealCell = ms(time.Since(start))
		}

		// HARP: self-supervised MLU training on the same problems.
		harp := baselines.NewHarp(16, opt.Seed)
		hOpt := autodiff.NewAdam(3e-3, harp.Params()...)
		hOpt.ClipNorm = 5
		start := time.Now()
		for e := 0; e < epochs; e++ {
			for i := 0; i < nSamples; i++ {
				p, _, _, err := s.ProblemAt(ciTrainStart + float64(i)*97)
				if err != nil {
					return nil, err
				}
				if len(p.Flows) == 0 {
					continue
				}
				if _, err := harp.TrainStep(p, hOpt); err != nil {
					return nil, err
				}
			}
		}
		harpTime := time.Since(start)

		r.AddRow(sc.name, ms(sateTime), tealCell, ms(harpTime))
	}
	r.Note("paper: SaTE 0.268 h at 66 sats (1.06x vs Teal), 2.25 h at 396 (2.8x), 5.1 h at Starlink (1.7x vs HARP)")
	r.Note("reproduced shape: SaTE grows slowest; Teal cost explodes with scale and is per-topology")
	return r, nil
}

// Fig9bTopologyPruning reproduces Fig. 9 (b): satisfied demand of models
// trained on DPP-selected representative topology sets of growing size,
// evaluated on unseen topologies and traffic. Performance should rise and
// saturate well below the full pool size.
func Fig9bTopologyPruning(opt Options) (*Report, error) {
	sc := scales(opt)[0]
	s := newScenario(sc, topology.CrossShellLasers, 0, opt.Seed+51)

	// Pool of candidate training instants; embed their topologies.
	poolSize := 24
	sizes := []int{1, 2, 4, 8}
	epochs := 10
	if opt.Full {
		poolSize = 120
		sizes = []int{4, 16, 64}
		epochs = 20
	}
	pool := sim.Instants(ciTrainStart, 41, poolSize)
	var vecs [][]float64
	for _, t := range pool {
		vecs = append(vecs, graphembed.Embed(s.SnapshotAt(t), 64, 3))
	}
	// Shared held-out evaluation on later, unseen instants.
	evalStart := ciTrainStart + float64(poolSize)*41 + 100

	r := &Report{
		ID:     "fig9b",
		Title:  "Satisfied demand vs #representative topologies (DPP pruning)",
		Header: []string{"#topologies", "satisfied (unseen)"},
	}
	for _, k := range sizes {
		samples, err := s.Samples(labelSolver(), pick(pool, graphembed.DPPSelect(vecs, k)))
		if err != nil {
			return nil, err
		}
		if len(samples) == 0 {
			continue
		}
		m, _, err := trainOn(samples, epochs, opt.Seed)
		if err != nil {
			return nil, err
		}
		res, err := s.RunOffline(m, evalStart, evalStride, 4)
		if err != nil {
			return nil, err
		}
		r.AddRow(fmt.Sprintf("%d", k), pct(res.SatisfiedMean))
	}
	// Reference: the offline optimum on the same held-out instants.
	if ref, err := s.RunOffline(labelSolver(), evalStart, evalStride, 4); err == nil {
		r.AddRow("optimal (ref)", pct(ref.SatisfiedMean))
	}
	r.Note("paper: strong by 128 topologies; 512 reaches >99%% of a model trained on 8000 random topologies")
	return r, nil
}

// pick returns the pool instants at the selected indices, in selection order.
func pick(pool []float64, sel []int) []float64 {
	out := make([]float64, len(sel))
	for i, idx := range sel {
		out[i] = pool[idx]
	}
	return out
}
