package core

import (
	"fmt"
	"math"

	"sate/internal/autodiff"
	"sate/internal/obs"
	"sate/internal/solve"
	"sate/internal/te"
)

// TrainMLU fits the model for the minimise-max-link-utilisation objective of
// Appendix H.2. Training is self-supervised: the allocation must route all
// demand (the MLU problem's convention — gates are ignored, the softmax
// split carries full demand) and the loss is a smooth-max (scaled
// sum-exp) surrogate of MLU over link utilisations.
//
// The paper notes SaTE's MLU variant "directly repurposes the
// throughput-maximizing GNN's objective", retaining components not perfectly
// suited to MLU — reproduced here by keeping the architecture identical and
// swapping only the loss. Problems with no path variables are skipped; a set
// with none left is an error.
func TrainMLU(m *Model, problems []*te.Problem, epochs int, lr float64) ([]float64, error) {
	const beta = 8.0

	// Static per-problem state (graph, demand, inverse capacity) is built
	// once; the epoch loop only runs forward/backward passes on a reused
	// tape, reading the incidence from the problem.
	type mluUnit struct {
		p              *te.Problem
		g              *TEGraph
		demand, invCap []float64
	}
	var units []mluUnit
	for _, p := range problems {
		if vars, _ := p.Incidence(); len(vars) == 0 {
			continue
		}
		g := BuildTEGraph(p)
		u := mluUnit{p: p, g: g, demand: make([]float64, g.NumPaths)}
		for j, fi := range g.VarFlow {
			u.demand[j] = p.Flows[fi].DemandMbps
		}
		u.invCap = make([]float64, len(p.Links))
		for i, c := range p.LinkCap {
			if c > 0 {
				u.invCap[i] = 1 / c
			}
		}
		units = append(units, u)
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("core: no training problems with path variables")
	}

	opt := autodiff.NewAdam(lr, m.Params()...)
	opt.ClipNorm = clipNorm
	var perEpoch []float64
	tp := autodiff.NewTape()
	for ep := 0; ep < epochs; ep++ {
		var sum float64
		for _, u := range units {
			g, p := u.g, u.p
			tp.Reset()
			scores, _ := m.Forward(tp, g)
			alpha := tp.SegmentSoftmax(scores, g.VarFlow, g.NumTraffic)
			x := tp.Mul(alpha, tp.Const(tp.TensorFrom(g.NumPaths, 1, u.demand)))
			vars, links := p.Incidence()
			loads := tp.ScatterAddRows(tp.Gather(x, vars), links, len(p.Links))
			util := tp.Mul(loads, tp.Const(tp.TensorFrom(len(p.Links), 1, u.invCap)))
			loss := tp.Scale(tp.SumAll(tp.Exp(tp.Scale(util, beta))), 1/beta)
			opt.ZeroGrad()
			tp.Backward(loss)
			opt.Step()
			lv := loss.Val.Data[0]
			if math.IsNaN(lv) || math.IsInf(lv, 0) {
				return nil, fmt.Errorf("core: MLU loss diverged at epoch %d", ep)
			}
			sum += lv
		}
		mean := sum / float64(len(units))
		perEpoch = append(perEpoch, mean)
		m.InvalidateWeightCaches()
	}
	return perEpoch, nil
}

// solveMLU is the MLU inference path of Solve: full demand is routed via
// the softmax split (no gating), then trimmed for feasibility. It always
// computes in float64: the MLU head is rarely latency-critical and a
// solve.Float32 request falls back here silently (DESIGN.md §11).
func (m *Model) solveMLU(cs *CycleState, p *te.Problem, o solve.Options) (*te.Allocation, error) {
	a := solve.Begin(o, "sate-mlu")
	defer a.End()
	sp := o.Registry.StartSpan(obs.PhaseGraphBuild)
	topo := p.TopoFingerprint()
	g := cs.graph(p, topo)
	sp.End()
	alloc := te.NewAllocation(p)
	if g.NumPaths == 0 {
		return alloc, nil
	}
	sp = o.Registry.StartSpan(obs.PhaseForward)
	tp := &cs.f64.tape
	tp.Reset()
	scores, _ := m.forward(tp, g, cs.f64.satEmbeddings(cs, &m.netOf, g, topo))
	alpha := tp.SegmentSoftmax(scores, g.VarFlow, g.NumTraffic)
	sp.End()
	sp = o.Registry.StartSpan(obs.PhaseDecode)
	j := 0
	for fi, row := range alloc.X {
		for pi := range row {
			row[pi] = alpha.Val.Data[j] * p.Flows[fi].DemandMbps
			j++
		}
	}
	p.Trim(alloc)
	sp.End()
	return alloc, nil
}
