package baselines

import (
	"math"
	"math/rand"

	"sate/internal/autodiff"
	"sate/internal/gnn"
	"sate/internal/solve"
	"sate/internal/te"
)

// Harp reproduces the architecture class of HARP [AlQiam et al.,
// SIGCOMM'24] as characterised in Secs. 4-5: a GNN-based TE model that
// transfers across changing topologies and is designed for MLU minimisation
// rather than throughput maximisation. Its distinguishing cost is an
// edge-path embedding transformer: every candidate path attends over ALL
// edge embeddings of the network, so per-inference complexity grows with
// network size (the paper measures ~4x SaTE latency and slower training).
//
// Allocation is a per-flow softmax over candidate paths (all demand routed —
// the MLU problem's convention), trained self-supervised by minimising a
// differentiable soft-MLU; in throughput experiments the routed demand is
// trimmed to capacity, which is why HARP trails throughput-objective methods
// there ("not inherently adaptable to throughput maximization").
type Harp struct {
	EmbedDim int

	gnnStack *gnn.Stack
	query    *autodiff.Value // EmbedDim x EmbedDim path->edge attention
	decoder  *gnn.MLP
	params   []*autodiff.Value

	solveTapes tapePool
	trainTape  *autodiff.Tape // reused across TrainStep calls (training is serial)
}

// NewHarp builds a HARP-like model.
func NewHarp(embedDim int, seed int64) *Harp {
	rng := rand.New(rand.NewSource(seed))
	h := &Harp{EmbedDim: embedDim}
	h.gnnStack = gnn.NewStack(rng, 2, embedDim, embedDim, 1)
	h.query = autodiff.Param(autodiff.NewTensor(embedDim, embedDim).Randn(rng, math.Sqrt(1/float64(embedDim))))
	h.decoder = gnn.NewMLP(rng, embedDim, 2*embedDim, 1)
	h.params = append(h.params, h.gnnStack.Params()...)
	h.params = append(h.params, h.query)
	h.params = append(h.params, h.decoder.Params()...)
	return h
}

// Params returns the trainable parameters.
func (h *Harp) Params() []*autodiff.Value { return h.params }

// Name implements solve.Solver.
func (h *Harp) Name() string { return "harp" }

// forward returns per-variable path scores. The edge-path transformer:
// path embedding = attention(query=mean node emb of path, keys/values=ALL
// link embeddings) — the O(paths x links) term that scales with network size.
func (h *Harp) forward(tp *autodiff.Tape, p *te.Problem) (*autodiff.Value, []int) {
	n := p.NumNodes
	deg := make([]float64, n)
	rel := gnn.EdgeList{}
	for _, l := range p.Links {
		rel.Src = append(rel.Src, int(l.A), int(l.B))
		rel.Dst = append(rel.Dst, int(l.B), int(l.A))
		deg[l.A]++
		deg[l.B]++
	}
	nodeIn := tp.Zeros(n, h.EmbedDim)
	for i := 0; i < n; i++ {
		nodeIn.Set(i, 0, deg[i]*0.25)
	}
	edgeIn := tp.Zeros(rel.Len(), h.EmbedDim)
	for i := 0; i < rel.Len(); i++ {
		edgeIn.Set(i, 0, 1)
	}
	nodeEmb := h.gnnStack.Forward(tp, tp.Const(nodeIn), tp.Const(edgeIn), rel)

	// Link embeddings: mean of endpoint node embeddings.
	var aIdx, bIdx []int
	for _, l := range p.Links {
		aIdx = append(aIdx, int(l.A))
		bIdx = append(bIdx, int(l.B))
	}
	if len(aIdx) == 0 {
		return nil, nil
	}
	linkEmb := tp.Scale(tp.Add(tp.Gather(nodeEmb, aIdx), tp.Gather(nodeEmb, bIdx)), 0.5)

	// Path queries: mean node embedding along each path.
	var varFlow []int
	var pathRows [][]int
	for fi := range p.Flows {
		for pi := range p.Flows[fi].Paths {
			var nodes []int
			for _, nd := range p.Flows[fi].Paths[pi].Nodes {
				nodes = append(nodes, int(nd))
			}
			pathRows = append(pathRows, nodes)
			varFlow = append(varFlow, fi)
		}
	}
	if len(pathRows) == 0 {
		return nil, nil
	}
	// Mean over path nodes via gather + scatter.
	var gIdx, sIdx []int
	for pi, nodes := range pathRows {
		for _, nd := range nodes {
			gIdx = append(gIdx, nd)
			sIdx = append(sIdx, pi)
		}
	}
	gathered := tp.Gather(nodeEmb, gIdx)
	sums := tp.ScatterAddRows(gathered, sIdx, len(pathRows))
	invLen := tp.Zeros(len(pathRows), 1)
	for pi, nodes := range pathRows {
		invLen.Data[pi] = 1 / float64(len(nodes))
	}
	pathQuery := tp.MulColBroadcast(sums, tp.Const(invLen))

	// Edge-path transformer: every path attends over ALL link embeddings —
	// the dense P x E attention whose compute cost scales with network size.
	q := tp.MatMul(pathQuery, h.query) // P x d
	dots := tp.MatMulT(q, linkEmb)     // P x E
	attn := tp.RowSoftmax(tp.Scale(dots, 1/math.Sqrt(float64(h.EmbedDim))))
	pathEmb := tp.MatMul(attn, linkEmb) // P x d

	scores := h.decoder.Forward(tp, pathEmb)
	return scores, varFlow
}

// Solve implements solve.Solver: full-demand softmax routing then trim.
func (h *Harp) Solve(p *te.Problem, opts ...solve.Option) (*te.Allocation, error) {
	defer solve.Begin(solve.Build(opts...), "harp").End()
	tp := h.solveTapes.get()
	defer h.solveTapes.put(tp)
	scores, varFlow := h.forward(tp, p)
	if scores == nil {
		alloc := te.NewAllocation(p)
		p.Trim(alloc)
		return alloc, nil
	}
	alloc := allocFromSoftmax(p, tp.SegmentSoftmax(scores, varFlow, len(p.Flows)))
	p.Trim(alloc)
	return alloc, nil
}

// TrainStep minimises a differentiable soft-MLU (log-sum-exp over link
// utilisations of the softmax-routed demand). Self-supervised: no labels
// needed, as in HARP's MLU objective.
func (h *Harp) TrainStep(p *te.Problem, opt *autodiff.Adam) (float64, error) {
	if h.trainTape == nil {
		h.trainTape = autodiff.NewTape()
	}
	tp := h.trainTape
	tp.Reset()
	scores, varFlow := h.forward(tp, p)
	if scores == nil {
		return 0, nil
	}
	alpha := tp.SegmentSoftmax(scores, varFlow, len(p.Flows))
	demands := tp.Zeros(len(varFlow), 1)
	for j, fi := range varFlow {
		demands.Data[j] = p.Flows[fi].DemandMbps
	}
	vars, links := p.Incidence()
	x := tp.Mul(alpha, tp.Const(demands))
	if len(vars) == 0 {
		return 0, nil
	}
	loads := tp.ScatterAddRows(tp.Gather(x, vars), links, len(p.Links))
	invCap := tp.Zeros(len(p.Links), 1)
	for i, c := range p.LinkCap {
		if c > 0 {
			invCap.Data[i] = 1 / c
		}
	}
	util := tp.Mul(loads, tp.Const(invCap))
	// soft-MLU: (1/beta) log sum exp(beta * util).
	const beta = 8.0
	softMax := tp.Scale(tp.SumAll(tp.Exp(tp.Scale(util, beta))), 1)
	// log via a 1x1 trick: loss = log(sum)/beta. Implement log through
	// monotone surrogate: minimise sum exp(beta*util) directly (same argmin).
	loss := tp.Scale(softMax, 1/beta)
	opt.ZeroGrad()
	tp.Backward(loss)
	opt.Step()
	return p.MLU(allocFromSoftmax(p, alpha)), nil
}

func allocFromSoftmax(p *te.Problem, alpha *autodiff.Value) *te.Allocation {
	alloc := te.NewAllocation(p)
	j := 0
	for fi := range p.Flows {
		for pi := range p.Flows[fi].Paths {
			alloc.X[fi][pi] = alpha.Val.Data[j] * p.Flows[fi].DemandMbps
			j++
		}
	}
	return alloc
}
