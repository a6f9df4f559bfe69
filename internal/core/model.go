package core

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"sate/internal/autodiff"
	"sate/internal/gnn"
	"sate/internal/obs"
	"sate/internal/solve"
	"sate/internal/te"
)

// Config holds the SaTE model hyperparameters.
type Config struct {
	// EmbedDim is the node/edge embedding dimension. The paper uses 768 on
	// an A100; the CPU default here is 32 — the architecture is unchanged
	// and the dimension is a knob (see DESIGN.md substitutions).
	EmbedDim int
	// Heads is the number of attention heads per GAT layer.
	Heads int
	// LayersR1, LayersR2, LayersR3 are the message-passing depths of the
	// three GNN modules (Appendix B: chosen as the minimum without
	// performance degradation, favouring inference latency).
	LayersR1, LayersR2, LayersR3 int
	// DecoderHidden is the decoder MLP hidden width.
	DecoderHidden int
	Seed          int64
	// AccessRelation re-adds the redundant satellite-traffic "access"
	// relation that SaTE's graph reduction removes (Sec. 3.2). Used only by
	// the graph-reduction ablation to measure the latency the reduction
	// saves; leave false for the SaTE model proper.
	AccessRelation bool
	// UniformAttention replaces learned attention with mean aggregation in
	// every GAT layer (the attention ablation). Leave false for SaTE proper.
	UniformAttention bool
}

// DefaultConfig returns the CPU-scale defaults.
func DefaultConfig() Config {
	return Config{
		EmbedDim: 32, Heads: 2,
		LayersR1: 2, LayersR2: 2, LayersR3: 1,
		DecoderHidden: 64,
		Seed:          1,
	}
}

// netOf holds the SaTE GNN weights (Fig. 7) at one element type and owns the
// dtype-generic forward/allocate passes. Model embeds the float64
// instantiation (training and default inference); the float32 instantiation
// is a derived read-only copy built by convertNet for the low-precision
// inference path.
type netOf[T autodiff.Float] struct {
	// Embedding-initialisation weight matrices (the W of Fig. 7's table):
	// scalar feature x (1 x d) learnable row.
	wNE1, wNE2, wNE3 *autodiff.ValueOf[T]
	wEE1, wEE2, wEE3 *autodiff.ValueOf[T]

	r1 *gnn.StackOf[T] // satellite <-> satellite
	// R2: satellite and path embeddings updated concurrently per layer.
	r2SatToPath []*gnn.GATLayerOf[T]
	r2PathToSat []*gnn.GATLayerOf[T]
	// R3: path and traffic embeddings refined together.
	r3TrafficToPath []*gnn.GATLayerOf[T]
	r3PathToTraffic []*gnn.GATLayerOf[T]
	// Ablation-only redundant access relation (nil in the SaTE model).
	accessSatToTraffic *gnn.GATLayerOf[T]
	accessTrafficToSat *gnn.GATLayerOf[T]

	decoder *gnn.MLPOf[T]

	params []*autodiff.ValueOf[T]
}

// Model is the SaTE GNN (Fig. 7): three sequential attention modules over
// R1, R2, R3 plus an MLP decoder producing the traffic allocation.
type Model struct {
	Cfg Config

	netOf[float64]

	// wsFree holds the workspaces lent to Solve calls that bring none of
	// their own (see CycleState); it grows to the peak number of concurrent
	// solves.
	wsMu   sync.Mutex
	wsFree []*CycleState

	// weightGen counts weight mutations (training epochs, loads). The
	// float32 weight copy and every workspace's R1 cache embed the
	// generation, so they invalidate automatically when the float64 weights
	// move.
	weightGen atomic.Uint64

	f32mu  sync.Mutex
	f32    *netOf[float32]
	f32gen uint64
}

// NewModel builds a SaTE model.
func NewModel(cfg Config) *Model {
	if cfg.EmbedDim == 0 {
		cfg = DefaultConfig()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := cfg.EmbedDim
	m := &Model{Cfg: cfg}

	mkW := func() *autodiff.Value {
		return autodiff.Param(autodiff.NewTensor(1, d).Randn(rng, 0.5))
	}
	m.wNE1, m.wNE2, m.wNE3 = mkW(), mkW(), mkW()
	m.wEE1, m.wEE2, m.wEE3 = mkW(), mkW(), mkW()

	m.r1 = gnn.NewStack(rng, cfg.LayersR1, d, d, cfg.Heads)
	for i := 0; i < cfg.LayersR2; i++ {
		m.r2SatToPath = append(m.r2SatToPath, gnn.NewGATLayer(rng, d, d, d, cfg.Heads, d/cfg.Heads))
		m.r2PathToSat = append(m.r2PathToSat, gnn.NewGATLayer(rng, d, d, d, cfg.Heads, d/cfg.Heads))
	}
	for i := 0; i < cfg.LayersR3; i++ {
		m.r3TrafficToPath = append(m.r3TrafficToPath, gnn.NewGATLayer(rng, d, d, d, cfg.Heads, d/cfg.Heads))
		m.r3PathToTraffic = append(m.r3PathToTraffic, gnn.NewGATLayer(rng, d, d, d, cfg.Heads, d/cfg.Heads))
	}
	if cfg.AccessRelation {
		m.accessSatToTraffic = gnn.NewGATLayer(rng, d, d, d, cfg.Heads, d/cfg.Heads)
		m.accessTrafficToSat = gnn.NewGATLayer(rng, d, d, d, cfg.Heads, d/cfg.Heads)
	}
	m.decoder = gnn.NewMLP(rng, 2*d, cfg.DecoderHidden, 2)
	// Start the gate (decoder column 1) well inside the sigmoid's active
	// region: under heavy overload the penalty term pushes gates down hard,
	// and a gate that saturates at zero early stops learning entirely.
	m.decoder.SetOutputBias(1, 1.5)

	m.params = []*autodiff.Value{m.wNE1, m.wNE2, m.wNE3, m.wEE1, m.wEE2, m.wEE3}
	m.params = append(m.params, m.r1.Params()...)
	for i := range m.r2SatToPath {
		m.params = append(m.params, m.r2SatToPath[i].Params()...)
		m.params = append(m.params, m.r2PathToSat[i].Params()...)
	}
	for i := range m.r3TrafficToPath {
		m.params = append(m.params, m.r3TrafficToPath[i].Params()...)
		m.params = append(m.params, m.r3PathToTraffic[i].Params()...)
	}
	if m.accessSatToTraffic != nil {
		m.params = append(m.params, m.accessSatToTraffic.Params()...)
		m.params = append(m.params, m.accessTrafficToSat.Params()...)
	}
	m.params = append(m.params, m.decoder.Params()...)
	if cfg.UniformAttention {
		for _, l := range m.r1.Layers {
			l.Uniform = true
		}
		for i := range m.r2SatToPath {
			m.r2SatToPath[i].Uniform = true
			m.r2PathToSat[i].Uniform = true
		}
		for i := range m.r3TrafficToPath {
			m.r3TrafficToPath[i].Uniform = true
			m.r3PathToTraffic[i].Uniform = true
		}
	}
	return m
}

// Params returns all trainable parameters.
func (m *Model) Params() []*autodiff.Value { return m.params }

// NumParams returns the count of scalar parameters.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.params {
		n += len(p.Val.Data)
	}
	return n
}

// InvalidateWeightCaches must be called after mutating the float64 weights
// directly (training and Load call it implicitly): it retires the cached
// float32 weight copy and every workspace's R1 embeddings derived from the
// previous weights.
func (m *Model) InvalidateWeightCaches() { m.weightGen.Add(1) }

// convParam32 copies a float64 parameter into a float32 one.
func convParam32(v *autodiff.Value) *autodiff.ValueOf[float32] {
	t := autodiff.NewTensorOf[float32](v.Val.Rows, v.Val.Cols)
	for i, x := range v.Val.Data {
		t.Data[i] = float32(x)
	}
	return autodiff.Param(t)
}

// convertNet builds the float32 inference copy of the trained weights. The
// float32 net has no params slice — it is never trained or serialized.
func convertNet(n *netOf[float64]) *netOf[float32] {
	c := &netOf[float32]{
		wNE1:    convParam32(n.wNE1),
		wNE2:    convParam32(n.wNE2),
		wNE3:    convParam32(n.wNE3),
		wEE1:    convParam32(n.wEE1),
		wEE2:    convParam32(n.wEE2),
		wEE3:    convParam32(n.wEE3),
		r1:      gnn.ConvertStack[float32](n.r1),
		decoder: gnn.ConvertMLP[float32](n.decoder),
	}
	for i := range n.r2SatToPath {
		c.r2SatToPath = append(c.r2SatToPath, gnn.ConvertGATLayer[float32](n.r2SatToPath[i]))
		c.r2PathToSat = append(c.r2PathToSat, gnn.ConvertGATLayer[float32](n.r2PathToSat[i]))
	}
	for i := range n.r3TrafficToPath {
		c.r3TrafficToPath = append(c.r3TrafficToPath, gnn.ConvertGATLayer[float32](n.r3TrafficToPath[i]))
		c.r3PathToTraffic = append(c.r3PathToTraffic, gnn.ConvertGATLayer[float32](n.r3PathToTraffic[i]))
	}
	if n.accessSatToTraffic != nil {
		c.accessSatToTraffic = gnn.ConvertGATLayer[float32](n.accessSatToTraffic)
		c.accessTrafficToSat = gnn.ConvertGATLayer[float32](n.accessTrafficToSat)
	}
	return c
}

// float32Net returns the cached float32 weight copy, rebuilding it when the
// float64 weights have moved since the last build.
func (m *Model) float32Net() *netOf[float32] {
	gen := m.weightGen.Load()
	m.f32mu.Lock()
	defer m.f32mu.Unlock()
	if m.f32 == nil || m.f32gen != gen {
		m.f32 = convertNet(&m.netOf)
		m.f32gen = gen
	}
	return m.f32
}

// embedOf initialises an embedding matrix from a scalar feature column:
// rows x 1 feature times 1 x d learnable weight (Fig. 7 table). The feature
// column is staged in an arena tensor — no per-pass heap copy.
func embedOf[T autodiff.Float](tp *autodiff.TapeOf[T], feat []float64, w *autodiff.ValueOf[T]) *autodiff.ValueOf[T] {
	tp.Watch(w)
	col := tp.TensorFromFloat64(len(feat), 1, feat)
	return tp.MatMul(tp.Const(col), w)
}

// r1Embed runs embedding initialisation and the R1 module (Fig. 7, module
// 1): the post-R1 satellite embeddings, a function of topology and weights
// only.
func (n *netOf[T]) r1Embed(tp *autodiff.TapeOf[T], g *TEGraph) *autodiff.ValueOf[T] {
	sat := embedOf(tp, g.SatFeat, n.wNE1)
	ee1 := embedOf(tp, g.R1Feat, n.wEE1)
	return n.r1.Forward(tp, sat, ee1, g.R1)
}

// forward runs the R2 and R3 modules and the decoder on top of the post-R1
// satellite embeddings sat (r1Embed's output, or a workspace's cached copy
// of it), returning the raw per-variable outputs: scores (for the per-flow
// softmax) and gates. Both are NumPaths x 1.
func (n *netOf[T]) forward(tp *autodiff.TapeOf[T], g *TEGraph, sat *autodiff.ValueOf[T]) (scores, gates *autodiff.ValueOf[T]) {
	// Embedding initialisation (Fig. 7). On inference tapes the R2/R3 edge
	// embeddings use the deduplicated feature view: the scalar features have
	// a few dozen distinct values across tens of thousands of edges, so the
	// per-edge Θe·e projections inside each layer shrink from E rows to U
	// rows (bitwise identically — see ForwardDedup). Training keeps the
	// per-edge form so gradient accumulation order is unchanged.
	path := embedOf(tp, g.PathFeat, n.wNE2)
	trf := embedOf(tp, g.TrafficFeat, n.wNE3)
	dedup := tp.NoGrad() && len(g.R2FeatIx) == len(g.R2Feat) && len(g.R3FeatIx) == len(g.R3Feat)
	var ee2, ee3 *autodiff.ValueOf[T]
	if dedup {
		ee2 = embedOf(tp, g.R2FeatU, n.wEE2)
		ee3 = embedOf(tp, g.R3FeatU, n.wEE3)
	} else {
		ee2 = embedOf(tp, g.R2Feat, n.wEE2)
		ee3 = embedOf(tp, g.R3Feat, n.wEE3)
	}

	// Ablation-only: process the redundant access relation the way the full
	// graph of Fig. 6 (a) requires — an extra message-passing module whose
	// cost the reduction eliminates.
	if n.accessSatToTraffic != nil && g.Access.Len() > 0 {
		eeA := embedOf(tp, g.AccessFeat, n.wEE1)
		newTrf := n.accessSatToTraffic.Forward(tp, trf, sat, eeA, g.Access)
		newSat := n.accessTrafficToSat.Forward(tp, sat, trf, eeA, g.Access.Reverse())
		trf = tp.Add(newTrf, trf)
		sat = tp.Add(newSat, sat)
	}

	// Module 2: GNN for R2 — satellite and path embeddings concurrently.
	for i := range n.r2SatToPath {
		var newPath, newSat *autodiff.ValueOf[T]
		if dedup {
			newPath = n.r2SatToPath[i].ForwardDedup(tp, path, sat, ee2, g.R2FeatIx, g.R2)
			newSat = n.r2PathToSat[i].ForwardDedup(tp, sat, path, ee2, g.R2FeatIx, g.R2.Reverse())
		} else {
			newPath = n.r2SatToPath[i].Forward(tp, path, sat, ee2, g.R2)
			newSat = n.r2PathToSat[i].Forward(tp, sat, path, ee2, g.R2.Reverse())
		}
		path = tp.Add(newPath, path) // residual
		sat = tp.Add(newSat, sat)
	}

	// Module 3: GNN for R3 — path and traffic embeddings together.
	for i := range n.r3TrafficToPath {
		var newPath, newTrf *autodiff.ValueOf[T]
		if dedup {
			newPath = n.r3TrafficToPath[i].ForwardDedup(tp, path, trf, ee3, g.R3FeatIx, g.R3)
			newTrf = n.r3PathToTraffic[i].ForwardDedup(tp, trf, path, ee3, g.R3FeatIx, g.R3.Reverse())
		} else {
			newPath = n.r3TrafficToPath[i].Forward(tp, path, trf, ee3, g.R3)
			newTrf = n.r3PathToTraffic[i].Forward(tp, trf, path, ee3, g.R3.Reverse())
		}
		path = tp.Add(newPath, path)
		trf = tp.Add(newTrf, trf)
	}

	// Decoder: per path variable, concat(path embedding, its flow's traffic
	// embedding) -> [score, gate].
	if g.NumPaths == 0 {
		zero := tp.Const(tp.Zeros(0, 1))
		return zero, zero
	}
	trfPerVar := tp.Gather(trf, g.VarFlow)
	dec := n.decoder.Forward(tp, tp.Concat(path, trfPerVar)) // NumPaths x 2
	return tp.Col(dec, 0), tp.Col(dec, 1)
}

// Forward runs the float64 model (training surface).
func (m *Model) Forward(tp *autodiff.Tape, g *TEGraph) (scores, gates *autodiff.Value) {
	return m.forward(tp, g, m.r1Embed(tp, g))
}

// allocate runs the model and converts scores/gates into an allocation:
// x_fp = demand_f * sigmoid(gate_fp) * softmax_p(score_fp). The form makes
// the demand constraint (2.e) hold by construction; link and access caps are
// enforced afterwards by trimming (Sec. 3.3, correction step).
func (n *netOf[T]) allocate(tp *autodiff.TapeOf[T], g *TEGraph, p *te.Problem, sat *autodiff.ValueOf[T]) *autodiff.ValueOf[T] {
	scores, gates := n.forward(tp, g, sat)
	if g.NumPaths == 0 {
		return scores
	}
	alpha := tp.SegmentSoftmax(scores, g.VarFlow, g.NumTraffic)
	// Soft-clamped gate pre-activations: under heavy overload the penalty
	// term drives gates far negative; the clamp keeps them inside the
	// sigmoid's responsive band so they can recover when load drops.
	gate := tp.Sigmoid(tp.SoftClamp(gates, -4, 4, 0.25))
	mix := tp.Mul(alpha, gate)
	demand := tp.Zeros(g.NumPaths, 1)
	for j, fi := range g.VarFlow {
		demand.Data[j] = T(p.Flows[fi].DemandMbps)
	}
	return tp.Mul(mix, tp.Const(demand))
}

// Allocate runs the float64 model end to end (training surface).
func (m *Model) Allocate(tp *autodiff.Tape, g *TEGraph, p *te.Problem) *autodiff.Value {
	return m.allocate(tp, g, p, m.r1Embed(tp, g))
}

// inferThroughput is the model half of a throughput solve: graph construction
// into the workspace and GNN inference on its tape. It returns the
// allocation column (one entry per path variable of p, before the
// feasibility correction), valid until the next solve through cs. In a
// workspace the caller attached, the problem the previous solve at this
// dtype was for, with its topology, flows and the weight generation all
// unchanged since, is not inferred again: the column that solve retained is
// returned as it is. A replay loop that re-solves unchanged inputs keeps its
// problem in place (the shard solver compacts each sub-problem into retained
// storage every cycle); a different problem value is a different instant,
// inferred even when it happens to be equal, so a ring of problems through
// one workspace keeps timing inferences.
func inferThroughput[T autodiff.Float](net *netOf[T], cs *CycleState, ds *dtypeState[T], p *te.Problem, o solve.Options) []T {
	topo := p.TopoFingerprint()
	var key replayKey
	if !cs.pooled {
		key = replayKey{p, topo, p.FlowFingerprint(), cs.model.weightGen.Load()}
		if x, ok := ds.fwd.get(key); ok {
			cs.replayHits++
			cs.r1Hits++ // R1 did not run either
			return x
		}
		cs.replayMisses++
	}
	sp := o.Registry.StartSpan(obs.PhaseGraphBuild)
	g := cs.graph(p, topo)
	sp.End()
	sp = o.Registry.StartSpan(obs.PhaseForward)
	tp := &ds.tape
	tp.Reset()
	x := net.allocate(tp, g, p, ds.satEmbeddings(cs, net, g, topo))
	if !cs.pooled {
		ds.fwd.put(key, x.Val)
	}
	sp.End()
	return x.Val.Data
}

// solveThroughput is the dtype-generic throughput inference path:
// inferThroughput, decoding, and the feasibility correction. Decoding and
// the correction always run on the live problem: they are the only readers
// of its access capacities.
func solveThroughput[T autodiff.Float](net *netOf[T], cs *CycleState, ds *dtypeState[T], p *te.Problem, o solve.Options, name string) (*te.Allocation, error) {
	a := solve.Begin(o, name)
	defer a.End()
	xd := inferThroughput(net, cs, ds, p, o)
	sp := o.Registry.StartSpan(obs.PhaseDecode)
	alloc := te.NewAllocation(p)
	j := 0
	for _, row := range alloc.X { // path variables are numbered flow-major
		for pi := range row {
			row[pi] = autodiff.ToFloat64(xd[j])
			j++
		}
	}
	p.Trim(alloc)
	sp.End()
	return alloc, nil
}

// Solve implements solve.Solver: graph construction,
// GNN inference, decoding, and the feasibility correction, all inside one
// workspace — the CycleState attached with solve.WithWarm, or one borrowed
// from the model for the call, so concurrent Solve calls are safe. Options
// select the objective (solve.MLU routes to the MLU head), the element type
// (solve.Float32 runs inference on the cached float32 weight copy; MLU
// ignores the request and stays float64), attach an obs registry (per-solve
// latency under solver="sate", "sate-f32" or "sate-mlu", plus
// graph-build/forward/decode phase spans) or override the worker budget.
// Instrumentation adds zero heap allocations to the solve path
// (TestSolveObsAddsZeroAllocs).
func (m *Model) Solve(p *te.Problem, opts ...solve.Option) (*te.Allocation, error) {
	o := solve.Build(opts...)
	cs := m.workspace(o.Warm)
	defer m.release(cs)
	switch {
	case o.Objective == solve.MLU:
		return m.solveMLU(cs, p, o)
	case o.Dtype == solve.Float32:
		return solveThroughput(m.float32Net(), cs, &cs.f32, p, o, "sate-f32")
	}
	return solveThroughput(&m.netOf, cs, &cs.f64, p, o, "sate")
}

// Name implements solve.Solver.
func (m *Model) Name() string { return "sate" }
