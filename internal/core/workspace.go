package core

import (
	"sate/internal/autodiff"
	"sate/internal/te"
)

// CycleState is SaTE's solve workspace: everything one Model.Solve call
// needs beyond the problem and the weights, kept so the next call through
// the same value starts from it instead of from the heap.
//
//   - TE-graph storage: the graph is rebuilt into the previous solve's
//     slices, and its topology-derived R1 side is kept as-is when the
//     problem's te.Problem.TopoFingerprint has not moved.
//   - One inference tape per dtype: its arena rewinds between solves
//     (DESIGN.md §8), so a solve allocates only when it outgrows every
//     earlier one.
//   - The R1 cache: the post-R1 satellite embeddings are a function of the
//     topology fingerprint's inputs and the weights only. When both match the
//     cached solve — the common case, since topology holds still for seconds
//     while traffic changes every cycle — the R1 module is skipped and the
//     cached output replayed, bit for bit what recomputing would give.
//
// Every Solve runs through one: the caller's when solve.WithWarm passes it,
// otherwise one borrowed from the model's own pool for the duration of the
// call. A replay loop that owns a CycleState therefore gets the same results
// as one that does not, only without rebuilding what held still; a fresh
// &CycleState{} is the cold reference. The zero value is ready to use. One
// value must not be in two solves at once, and it binds to the first model
// that solves with it; other models ignore it.
type CycleState struct {
	model  *Model
	pooled bool // borrowed from model's pool rather than owned by a caller

	g       TEGraph
	topo    uint64 // fingerprint the R1 side of g was built from
	hasTopo bool

	r1Hits, r1Misses uint64

	f64 dtypeState[float64]
	f32 dtypeState[float32]
}

// dtypeState is the per-element-type half of a workspace: the inference tape
// and the post-R1 embeddings cached from the last solve at this dtype, keyed
// by the topology fingerprint and weight generation they were computed at.
type dtypeState[T autodiff.Float] struct {
	tape autodiff.TapeOf[T]

	r1Topo uint64
	r1Gen  uint64
	r1Out  *autodiff.TensorOf[T]
}

// R1Stats reports how many solves through this state replayed the cached
// post-R1 embeddings (hits) versus recomputed them (misses). The warm-hit
// ratio hits/(hits+misses) is the temporal-coherence yield of a replay loop.
func (cs *CycleState) R1Stats() (hits, misses uint64) { return cs.r1Hits, cs.r1Misses }

// graph rebuilds the workspace's TE graph for p and returns it with p's
// topology fingerprint. The R1 side is rebuilt only when the fingerprint
// moved since the previous build.
func (cs *CycleState) graph(p *te.Problem) (*TEGraph, uint64) {
	topo := p.TopoFingerprint()
	buildTEGraphInto(&cs.g, p, cs.hasTopo && cs.topo == topo)
	cs.topo, cs.hasTopo = topo, true
	return &cs.g, topo
}

// satEmbeddings returns the post-R1 satellite embeddings for g on the
// workspace tape: the cached tensor when it was computed from this topology
// at the model's current weight generation, a fresh R1 pass (retained for
// the next solve) otherwise.
func (ds *dtypeState[T]) satEmbeddings(cs *CycleState, net *netOf[T], g *TEGraph, topo uint64) *autodiff.ValueOf[T] {
	tp := &ds.tape
	gen := cs.model.weightGen.Load()
	if ds.r1Out != nil && ds.r1Topo == topo && ds.r1Gen == gen {
		cs.r1Hits++
		return tp.Const(tp.TensorFrom(ds.r1Out.Rows, ds.r1Out.Cols, ds.r1Out.Data))
	}
	cs.r1Misses++
	sat := net.r1Embed(tp, g)
	if ds.r1Out == nil || !ds.r1Out.SameShape(sat.Val) {
		ds.r1Out = sat.Val.Clone()
	} else {
		sat.Val.CopyInto(ds.r1Out)
	}
	ds.r1Topo, ds.r1Gen = topo, gen
	return sat
}

// workspace resolves the Warm option to the workspace this solve runs
// through: the caller's CycleState when it is one and is not bound to a
// different model, otherwise one borrowed from the model's pool until
// release.
func (m *Model) workspace(w any) *CycleState {
	if cs, ok := w.(*CycleState); ok && cs != nil {
		if cs.model == nil {
			cs.model = m
		}
		if cs.model == m {
			return cs
		}
	}
	m.wsMu.Lock()
	defer m.wsMu.Unlock()
	if n := len(m.wsFree); n > 0 {
		cs := m.wsFree[n-1]
		m.wsFree = m.wsFree[:n-1]
		return cs
	}
	return &CycleState{model: m, pooled: true}
}

// release ends a solve's use of its workspace: a borrowed one goes back to
// the model's pool, a caller's own stays with the caller.
func (m *Model) release(cs *CycleState) {
	if !cs.pooled {
		return
	}
	m.wsMu.Lock()
	m.wsFree = append(m.wsFree, cs)
	m.wsMu.Unlock()
}
