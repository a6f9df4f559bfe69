package baselines

import (
	"sate/internal/te"
	"sate/internal/topology"
)

// Backpressure implements distributed backpressure satellite routing [56,64]:
// a time-slotted queue simulation in which every link serves the commodity
// (destination) with the largest queue differential. It has no centralized
// controller and no preconfigured paths; the paper compares only its
// performance (not computational latency), which this type exposes through
// Evaluate: the fraction of injected demand delivered over a horizon.
type Backpressure struct{}

// The queue simulation's slot and horizon. They are typed so the slot count
// horizon/slot folds to the float64 quotient a runtime division gives.
const (
	backpressureSlotSec    float64 = 0.1
	backpressureHorizonSec float64 = 10
)

// Name identifies the scheme.
func (Backpressure) Name() string { return "backpressure" }

// Evaluate runs the queue simulation against a problem's links and demands
// and returns the satisfied-demand fraction (delivered / injected).
func (Backpressure) Evaluate(p *te.Problem) float64 {
	const slot = backpressureSlotSec
	const steps = int(backpressureHorizonSec / backpressureSlotSec)

	// Commodities: distinct destinations.
	dstIdx := make(map[topology.NodeID]int)
	for _, f := range p.Flows {
		if _, ok := dstIdx[f.Dst]; !ok {
			dstIdx[f.Dst] = len(dstIdx)
		}
	}
	nc := len(dstIdx)
	if nc == 0 {
		return 1
	}
	n := p.NumNodes
	// queues[node*nc + commodity] in Mbit.
	queues := make([]float64, n*nc)

	injectedPerSlot := make([]float64, n*nc)
	var totalInjectRate float64
	for _, f := range p.Flows {
		ci := dstIdx[f.Dst]
		injectedPerSlot[int(f.Src)*nc+ci] += f.DemandMbps * slot
		totalInjectRate += f.DemandMbps
	}
	if totalInjectRate == 0 {
		return 1
	}

	var delivered float64
	for s := 0; s < steps; s++ {
		// Inject.
		for i, v := range injectedPerSlot {
			queues[i] += v
		}
		// Serve each link: pick the commodity with max differential and move
		// up to cap*slot in the beneficial direction. Each link decides
		// independently on the queue state at slot start (distributed).
		for li, l := range p.Links {
			cap := p.LinkCap[li] * slot
			bestC, bestDiff, bestDir := -1, 0.0, 0
			for c := 0; c < nc; c++ {
				qa := queues[int(l.A)*nc+c]
				qb := queues[int(l.B)*nc+c]
				if d := qa - qb; d > bestDiff {
					bestDiff, bestC, bestDir = d, c, 0
				}
				if d := qb - qa; d > bestDiff {
					bestDiff, bestC, bestDir = d, c, 1
				}
			}
			if bestC < 0 {
				continue
			}
			from, to := int(l.A), int(l.B)
			if bestDir == 1 {
				from, to = to, from
			}
			amt := queues[from*nc+bestC]
			if amt > cap {
				amt = cap
			}
			queues[from*nc+bestC] -= amt
			queues[to*nc+bestC] += amt
		}
		// Drain commodities that reached their destination.
		for dst, c := range dstIdx {
			i := int(dst)*nc + c
			delivered += queues[i]
			queues[i] = 0
		}
	}
	injected := totalInjectRate * slot * float64(steps)
	frac := delivered / injected
	if frac > 1 {
		frac = 1
	}
	return frac
}
