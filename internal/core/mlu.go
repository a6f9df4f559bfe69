package core

import (
	"sate/internal/autodiff"
	"sate/internal/obs"
	"sate/internal/solve"
	"sate/internal/te"
)

// mluLoss is the self-supervised loss of the minimise-MLU objective of
// Appendix H.2: the allocation routes all demand (gates ignored, the softmax
// split carries full demand) and the loss is a smooth-max (scaled sum-exp)
// of link utilisations. The paper's MLU variant "directly repurposes the
// throughput-maximizing GNN's objective"; here the architecture and the
// training loop stay identical and only the loss is swapped.
func mluLoss(tp *autodiff.Tape, m *Model, s *Sample) *autodiff.Value {
	const beta = 8.0
	g, p := s.Graph, s.Problem
	demand := tp.Zeros(g.NumPaths, 1)
	for j, fi := range g.VarFlow {
		demand.Data[j] = p.Flows[fi].DemandMbps
	}
	invCap := tp.Zeros(len(p.Links), 1)
	for i, c := range p.LinkCap {
		if c > 0 {
			invCap.Data[i] = 1 / c
		}
	}
	scores, _ := m.Forward(tp, g)
	alpha := tp.SegmentSoftmax(scores, g.VarFlow, g.NumTraffic)
	x := tp.Mul(alpha, tp.Const(demand))
	vars, links := p.Incidence()
	loads := tp.ScatterAddRows(tp.Gather(x, vars), links, len(p.Links))
	util := tp.Mul(loads, tp.Const(invCap))
	return tp.Scale(tp.SumAll(tp.Exp(tp.Scale(util, beta))), 1/beta)
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
