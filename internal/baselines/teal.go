package baselines

import (
	"fmt"
	"math/rand"

	"sate/internal/autodiff"
	"sate/internal/gnn"
	"sate/internal/solve"
	"sate/internal/te"
	"sate/internal/topology"
)

// Teal reproduces the architecture class of Teal [Xu et al., SIGCOMM'23] as
// characterised in Sec. 2.4: a GNN over the physical topology (capturing only
// link connectivity) feeding DNN layers whose input layout is FIXED at build
// time — one slot per source-destination pair of the topology with k path
// positions each. The consequences the paper evaluates follow directly:
//
//   - The dense pair layout means input size grows with N^2 and cannot be
//     pruned (Sec. 3.4: "DNNs require fixed-size and position-specific input
//     structures"). Build refuses when the data-point estimate exceeds
//     MemoryLimitBytes, reproducing "Teal cannot fit into GPU memory when
//     scaling to Starlink".
//   - The DNN is tied to the path set captured at build time: when topology
//     changes, stale paths degrade quality, and a different topology needs a
//     new model (re-training).
type Teal struct {
	NumNodes int
	K        int
	EmbedDim int
	// MemoryLimitBytes models the accelerator memory ceiling (default 2 GiB
	// for CPU-scale runs; the paper's A100 has 80 GB).
	MemoryLimitBytes int64

	pairIndex map[[2]topology.NodeID]int // fixed pair slots
	pairPaths [][][]int                  // per pair, per path: link indices (frozen)
	refLinks  []topology.Link
	gnnStack  *gnn.Stack
	decoder   *gnn.MLP // per (pair, path): [demand, mean link emb] -> score
	params    []*autodiff.Value

	solveTapes tapePool
	trainTape  *autodiff.Tape // reused across TrainStep calls (training is serial)
}

// TealDataPointBytes estimates the dense data-point volume Teal requires:
// an N x N float traffic matrix plus N^2 x K path slots of maxHops node IDs
// (the fixed-position layout its DNN consumes).
func TealDataPointBytes(n, k, maxHops int) int64 {
	nn := int64(n) * int64(n)
	return nn*8 + nn*int64(k)*int64(maxHops)*4
}

// NewTeal builds a Teal model bound to one topology snapshot and its
// preconfigured paths. It returns an error when the dense representation
// exceeds the memory limit — the Starlink-scale failure mode of Sec. 5.1.
func NewTeal(snap *topology.Snapshot, pathsPerPair map[[2]topology.NodeID][][]topology.NodeID, k, embedDim int, memLimit int64, seed int64) (*Teal, error) {
	if memLimit == 0 {
		memLimit = 2 << 30
	}
	const maxHops = 32
	if need := TealDataPointBytes(snap.NumNodes, k, maxHops); need > memLimit {
		return nil, fmt.Errorf("teal: data point needs %d bytes (limit %d): dense pair layout cannot be pruned", need, memLimit)
	}
	rng := rand.New(rand.NewSource(seed))
	t := &Teal{
		NumNodes:         snap.NumNodes,
		K:                k,
		EmbedDim:         embedDim,
		MemoryLimitBytes: memLimit,
		pairIndex:        make(map[[2]topology.NodeID]int),
		refLinks:         append([]topology.Link(nil), snap.Links...),
	}
	linkIdx := make(map[uint64]int, len(snap.Links))
	for i, l := range snap.Links {
		linkIdx[l.Key()] = i
	}
	for pair, ps := range pathsPerPair {
		slot := len(t.pairPaths)
		t.pairIndex[pair] = slot
		var perPath [][]int
		for pi, nodes := range ps {
			if pi >= k {
				break
			}
			var lis []int
			ok := true
			for i := 0; i+1 < len(nodes); i++ {
				l := topology.MakeLink(nodes[i], nodes[i+1], topology.IntraOrbit)
				li, found := linkIdx[l.Key()]
				if !found {
					ok = false
					break
				}
				lis = append(lis, li)
			}
			if ok {
				perPath = append(perPath, lis)
			}
		}
		t.pairPaths = append(t.pairPaths, perPath)
	}
	t.gnnStack = gnn.NewStack(rng, 2, embedDim, embedDim, 1)
	t.decoder = gnn.NewMLP(rng, 1+embedDim, 2*embedDim, 1)
	t.params = append(t.params, t.gnnStack.Params()...)
	t.params = append(t.params, t.decoder.Params()...)
	return t, nil
}

// Params returns the trainable parameters.
func (t *Teal) Params() []*autodiff.Value { return t.params }

// Name implements solve.Solver.
func (t *Teal) Name() string { return "teal" }

// forward computes per-(flow, path) scores for the problem using the frozen
// pair layout. Flows whose pair slot or frozen paths are missing get no
// allocation (the stale-path degradation of changing topologies).
func (t *Teal) forward(tp *autodiff.Tape, p *te.Problem) (scores *autodiff.Value, varFlow []int, varPath []int) {
	// Node embeddings from degree, refined over the *reference* topology.
	deg := make([]float64, t.NumNodes)
	rel := gnn.EdgeList{}
	var eFeat []float64
	for _, l := range t.refLinks {
		rel.Src = append(rel.Src, int(l.A), int(l.B))
		rel.Dst = append(rel.Dst, int(l.B), int(l.A))
		eFeat = append(eFeat, 1, 1)
		deg[l.A]++
		deg[l.B]++
	}
	// Position-specific inputs: Teal's DNN layout assigns every node a fixed
	// slot, so nodes carry a fixed positional encoding alongside degree.
	// (Without it, a vertex-transitive grid makes all embeddings identical.)
	nodeIn := tp.Zeros(t.NumNodes, t.EmbedDim)
	for i := 0; i < t.NumNodes; i++ {
		nodeIn.Set(i, 0, deg[i]*0.25)
		h := uint64(i)
		for c := 1; c < t.EmbedDim && c < 9; c++ {
			h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
			nodeIn.Set(i, c, float64(int64(h%1000))/1000-0.5)
		}
	}
	edgeIn := tp.Zeros(rel.Len(), t.EmbedDim)
	for i := range eFeat {
		edgeIn.Set(i, 0, eFeat[i])
	}
	nodeEmb := t.gnnStack.Forward(tp, tp.Const(nodeIn), tp.Const(edgeIn), rel)

	// The DNN consumes its FIXED dense layout: one input row for every
	// (source-destination pair, path slot) of the topology — N^2 * K rows —
	// with zero features in inactive slots. This is the position-specific
	// structure of Sec. 2.4 that prevents pruning: compute and memory grow
	// with N^2 regardless of how sparse the live demand is.
	denseRows := t.NumNodes * t.NumNodes * t.K
	input := tp.Zeros(denseRows, 1+t.EmbedDim)
	var activeRows []int
	for fi := range p.Flows {
		f := &p.Flows[fi]
		slot, ok := t.pairIndex[[2]topology.NodeID{f.Src, f.Dst}]
		if !ok {
			continue
		}
		base := (int(f.Src)*t.NumNodes + int(f.Dst)) * t.K
		for pi := range t.pairPaths[slot] {
			if pi >= len(f.Paths) || pi >= t.K {
				break
			}
			varFlow = append(varFlow, fi)
			varPath = append(varPath, pi)
			row := base + pi
			activeRows = append(activeRows, row)
			// Fixed-position features: demand plus the embedding of the
			// frozen path's representative (mid-link) node.
			input.Set(row, 0, f.DemandMbps*0.02)
			lis := t.pairPaths[slot][pi]
			rep := int(f.Src)
			if len(lis) > 0 {
				rep = int(t.refLinks[lis[len(lis)/2]].A)
			}
			for c := 0; c < t.EmbedDim; c++ {
				input.Set(row, 1+c, nodeEmb.Val.At(rep, c))
			}
		}
	}
	if len(activeRows) == 0 {
		return nil, nil, nil
	}
	// Note: copying node embeddings into the dense block detaches them from
	// the GNN gradient — matching Teal's two-stage design where the flow DNN
	// dominates; the positional inputs keep the decoder trainable.
	allScores := t.decoder.Forward(tp, tp.Const(input)) // N^2*K x 1
	scores = tp.Gather(allScores, activeRows)
	return scores, varFlow, varPath
}

// Solve implements solve.Solver: per-flow softmax over frozen path slots scaled by
// demand, then trim.
func (t *Teal) Solve(p *te.Problem, opts ...solve.Option) (*te.Allocation, error) {
	defer solve.Begin(solve.Build(opts...), "teal").End()
	alloc := te.NewAllocation(p)
	tp := t.solveTapes.get()
	defer t.solveTapes.put(tp)
	scores, varFlow, varPath := t.forward(tp, p)
	if scores == nil {
		p.Trim(alloc)
		return alloc, nil
	}
	alpha := tp.SegmentSoftmax(scores, varFlow, len(p.Flows))
	for j := range varFlow {
		fi, pi := varFlow[j], varPath[j]
		alloc.X[fi][pi] = alpha.Val.Data[j] * p.Flows[fi].DemandMbps
	}
	p.Trim(alloc)
	return alloc, nil
}

// TrainStep performs one supervised step toward reference allocations,
// returning the loss. Teal trains per fixed topology (its models are "tied to
// a single topology").
func (t *Teal) TrainStep(p *te.Problem, ref *te.Allocation, opt *autodiff.Adam) (float64, error) {
	if t.trainTape == nil {
		t.trainTape = autodiff.NewTape()
	}
	tp := t.trainTape
	tp.Reset()
	scores, varFlow, varPath := t.forward(tp, p)
	if scores == nil {
		return 0, nil
	}
	alpha := tp.SegmentSoftmax(scores, varFlow, len(p.Flows))
	target := tp.Zeros(len(varFlow), 1)
	for j := range varFlow {
		fi, pi := varFlow[j], varPath[j]
		tot := ref.FlowThroughput(fi)
		if tot > 0 {
			target.Data[j] = ref.X[fi][pi] / tot
		} else {
			target.Data[j] = 1 / float64(len(p.Flows[fi].Paths))
		}
	}
	loss := tp.MSE(alpha, tp.Const(target))
	opt.ZeroGrad()
	tp.Backward(loss)
	opt.Step()
	return loss.Val.Data[0], nil
}
