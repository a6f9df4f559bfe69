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
//   - The forward cache, in a workspace the caller attached only: the
//     throughput forward's allocation column is a function of the topology
//     and te.Problem.FlowFingerprint's inputs and the weights. When the
//     caller solves the same problem value again and all three still match
//     the previous solve at that dtype, graph construction and the whole
//     forward are skipped and the retained column is decoded again.
//
// Every Solve runs through one: the caller's when solve.WithWarm passes it,
// otherwise one borrowed from the model's own pool for the duration of the
// call. A replay loop that owns a CycleState therefore gets the same results
// as one that does not, only without rebuilding what held still; a fresh
// &CycleState{} is the cold reference. A borrowed workspace keeps no forward
// cache, so repeated Solve(p) calls without one time an inference each. The
// zero value is ready to use. One value must not be in two solves at once,
// and it binds to the first model that solves with it; other models ignore
// it.
type CycleState struct {
	model  *Model
	pooled bool // borrowed from model's pool rather than owned by a caller

	g       TEGraph
	topo    uint64 // fingerprint the R1 side of g was built from
	hasTopo bool

	r1Hits, r1Misses         uint64
	replayHits, replayMisses uint64

	f64 dtypeState[float64]
	f32 dtypeState[float32]
}

// dtypeState is the per-element-type half of a workspace: the inference tape
// and the outputs retained from the last solve at this dtype — the post-R1
// embeddings and, in an attached workspace, the forward's allocation column.
type dtypeState[T autodiff.Float] struct {
	tape autodiff.TapeOf[T]

	r1, fwd replaySlot[T]
}

// replayKey is what a retained output was computed from: the problem's
// topology and flow fingerprints and the model's weight generation. The
// forward's key also names the problem value it was computed for; R1 reads
// no flow and leaves prob and flow zero.
type replayKey struct {
	prob            *te.Problem
	topo, flow, gen uint64
}

// replaySlot retains one tensor computed on a workspace tape and the key it
// was computed at. Its storage is reused by capacity and grows by append, so
// refreshing a slot allocates only when the tensor outgrows every earlier
// one, and a slowly growing shape does not reallocate every solve.
type replaySlot[T autodiff.Float] struct {
	key        replayKey
	ok         bool
	rows, cols int
	data       []T
}

// get returns the retained tensor's elements if they were computed at k.
func (s *replaySlot[T]) get(k replayKey) ([]T, bool) {
	if !s.ok || s.key != k {
		return nil, false
	}
	return s.data, true
}

// put retains a copy of t, computed at k.
func (s *replaySlot[T]) put(k replayKey, t *autodiff.TensorOf[T]) {
	s.data = append(s.data[:0], t.Data...)
	s.key, s.ok, s.rows, s.cols = k, true, t.Rows, t.Cols
}

// R1Stats reports how many solves through this state replayed the cached
// post-R1 embeddings (hits) versus recomputed them (misses). The warm-hit
// ratio hits/(hits+misses) is the temporal-coherence yield of a replay loop.
// A forward replay (ReplayStats) counts as a hit: R1 did not run.
func (cs *CycleState) R1Stats() (hits, misses uint64) { return cs.r1Hits, cs.r1Misses }

// ReplayStats reports how many throughput solves through this state returned
// the previous solve's retained forward output (hits) versus ran the forward
// (misses). Only a workspace the caller attached counts either; a borrowed
// one never replays.
func (cs *CycleState) ReplayStats() (hits, misses uint64) { return cs.replayHits, cs.replayMisses }

// graph rebuilds the workspace's TE graph for p, whose topology fingerprint
// is topo. The R1 side is rebuilt only when the fingerprint moved since the
// previous build.
func (cs *CycleState) graph(p *te.Problem, topo uint64) *TEGraph {
	buildTEGraphInto(&cs.g, p, cs.hasTopo && cs.topo == topo)
	cs.topo, cs.hasTopo = topo, true
	return &cs.g
}

// satEmbeddings returns the post-R1 satellite embeddings for g on the
// workspace tape: the cached tensor when it was computed from this topology
// at the model's current weight generation, a fresh R1 pass (retained for
// the next solve) otherwise.
func (ds *dtypeState[T]) satEmbeddings(cs *CycleState, net *netOf[T], g *TEGraph, topo uint64) *autodiff.ValueOf[T] {
	tp := &ds.tape
	k := replayKey{topo: topo, gen: cs.model.weightGen.Load()}
	if data, ok := ds.r1.get(k); ok {
		cs.r1Hits++
		return tp.Const(tp.TensorFrom(ds.r1.rows, ds.r1.cols, data))
	}
	cs.r1Misses++
	sat := net.r1Embed(tp, g)
	ds.r1.put(k, sat.Val)
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
