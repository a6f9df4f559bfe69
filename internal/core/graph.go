// Package core implements SaTE itself: the heterogeneous satellite TE graph
// of Fig. 6 (a), its reduction to the three relation types R1/R2/R3 of
// Fig. 6 (b), the embedding initialisation of Fig. 7, the three sequential
// attention-GNN modules with MLP decoder, the constraint-violation
// correction, the mixed supervised + penalty loss of Appendix B (Eq. 4-5),
// the training loop, and the traffic/path pruning volume accounting of
// Sec. 3.4 (Table 1).
package core

import (
	"sate/internal/gnn"
	"sate/internal/te"
)

// TEGraph is the reduced satellite TE graph (Fig. 6 b) extracted from a TE
// problem instance. Node universes:
//
//	satellites: the problem's nodes (satellites plus ground relays)
//	paths:      one node per (flow, path) candidate
//	traffic:    one node per flow (non-zero traffic-matrix entry)
//
// Relations (each stored with both directions where both sides are updated):
//
//	R1 connect:    satellite <-> satellite, edge feature = link capacity
//	R2 crosses:    satellite <-> path, edge feature = position within path
//	R3 transports: traffic  <-> path, edge feature = #candidate paths
//
// The pruning of Sec. 3.4 is inherent: only non-zero traffic entries and
// their candidate paths appear, so graph size scales with live demand, not
// with N^2.
type TEGraph struct {
	NumSats    int
	NumPaths   int
	NumTraffic int

	// Raw scalar features for embedding initialisation (Fig. 7).
	SatFeat     []float64 // NE1 input: #neighbors
	PathFeat    []float64 // NE2 input: path length (hops)
	TrafficFeat []float64 // NE3 input: traffic demand

	R1 gnn.EdgeList // sat -> sat (directed both ways)
	R2 gnn.EdgeList // sat -> path (use Reverse() for path -> sat)
	R3 gnn.EdgeList // traffic -> path (use Reverse() for path -> traffic)

	R1Feat []float64 // EE1 input per R1 edge: link capacity
	R2Feat []float64 // EE2 input per R2 edge: node's position in path
	R3Feat []float64 // EE3 input per R3 edge: #candidate paths of the flow

	// Access is the redundant satellite->traffic "access" relation of the
	// full graph (Fig. 6 a). SaTE's reduction removes it — it is kept here
	// only so the graph-reduction ablation can measure its cost; the default
	// model ignores it.
	Access     gnn.EdgeList
	AccessFeat []float64

	// VarFlow maps each path node to its flow index. Path node j is the
	// problem's path variable j (te numbers them flow-major), so decoders
	// and labels walk the flows' paths in order with one running index.
	VarFlow []int

	// Deduplicated views of the scalar R2/R3 edge features. The raw features
	// have tiny cardinality (R2Feat is a position fraction i/(len-1), R3Feat a
	// scaled candidate count), so the per-edge edge embedding Θe·e — by far
	// the widest matmul of a forward pass — can be computed once per distinct
	// value and gathered back per edge, bitwise identically. R2FeatU holds the
	// distinct values in first-occurrence order and R2FeatIx[e] indexes edge
	// e's value in it; likewise for R3.
	R2FeatU  []float64
	R2FeatIx []int
	R3FeatU  []float64
	R3FeatIx []int

	// featSeen is the dedup scratch map, retained across rebuilds.
	featSeen map[float64]int
}

// Feature scales keep raw inputs O(1) for the neural network. They are fixed
// constants (not fitted), documented here so that saved models remain valid.
const (
	featDegreeScale   = 0.25  // satellite degree ~4
	featHopsScale     = 0.1   // path length ~10 hops
	featDemandScale   = 0.02  // demands ~50 Mbps
	featCapacityScale = 0.005 // link capacity ~200 Mbps
	featPathsScale    = 0.1   // ~10 candidate paths
)

// reuseInts returns s emptied with capacity for at least n elements,
// reallocating only when the retained capacity is too small.
func reuseInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:0]
	}
	return make([]int, 0, n)
}

func reuseFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:0]
	}
	return make([]float64, 0, n)
}

// BuildTEGraph extracts the reduced TE graph from a problem.
func BuildTEGraph(p *te.Problem) *TEGraph { return BuildTEGraphInto(nil, p) }

// BuildTEGraphInto extracts the reduced TE graph from a problem, rebuilding
// into g's retained storage (g may be nil or a zero value). Across the
// low-churn cycles of a replay loop the slices reach a high-water capacity
// after a few cycles and graph construction stops allocating. The caller
// owns g exclusively; the returned graph is g (or a fresh one when nil) and
// aliases its storage, so it must not be retained past the next rebuild.
func BuildTEGraphInto(g *TEGraph, p *te.Problem) *TEGraph {
	if g == nil {
		g = &TEGraph{}
	}
	buildTEGraphInto(g, p, false)
	return g
}

// buildTEGraphInto rebuilds g for p. With keepR1 the R1 side (edge list,
// capacity features, degree features) is left as the previous build wrote
// it and only the traffic-dependent side (R2/R3, path and traffic nodes) is
// rebuilt; the caller passes it only when p's TopoFingerprint — node count,
// link endpoints, capacities: everything the R1 side is derived from —
// equals that of the problem g was last built for.
func buildTEGraphInto(g *TEGraph, p *te.Problem, keepR1 bool) {
	g.NumSats = p.NumNodes
	g.NumPaths = 0
	g.NumTraffic = 0

	// Pre-size every slice exactly: a graph is built per Solve call, so
	// incremental append growth would be steady-state garbage.
	nR1 := 2 * len(p.Links)
	nPaths, nR2 := 0, 0
	for fi := range p.Flows {
		for pi := range p.Flows[fi].Paths {
			nR2 += len(p.Flows[fi].Paths[pi].Nodes)
		}
		nPaths += len(p.Flows[fi].Paths)
	}
	if !keepR1 {
		g.R1 = gnn.EdgeList{Src: reuseInts(g.R1.Src, nR1), Dst: reuseInts(g.R1.Dst, nR1)}
		g.R1Feat = reuseFloats(g.R1Feat, nR1)
	}
	g.TrafficFeat = reuseFloats(g.TrafficFeat, len(p.Flows))
	g.PathFeat = reuseFloats(g.PathFeat, nPaths)
	g.VarFlow = reuseInts(g.VarFlow, nPaths)
	g.R2 = gnn.EdgeList{Src: reuseInts(g.R2.Src, nR2), Dst: reuseInts(g.R2.Dst, nR2)}
	g.R2Feat = reuseFloats(g.R2Feat, nR2)
	g.R3 = gnn.EdgeList{Src: reuseInts(g.R3.Src, nPaths), Dst: reuseInts(g.R3.Dst, nPaths)}
	g.R3Feat = reuseFloats(g.R3Feat, nPaths)
	g.Access = gnn.EdgeList{Src: reuseInts(g.Access.Src, 2*len(p.Flows)), Dst: reuseInts(g.Access.Dst, 2*len(p.Flows))}
	g.AccessFeat = reuseFloats(g.AccessFeat, 2*len(p.Flows))

	// R1: satellite interconnection, both directions, capacity feature.
	// Degrees accumulate directly into SatFeat (exact small integers), then
	// scale in place — same values as a separate degree pass.
	if !keepR1 {
		g.SatFeat = reuseFloats(g.SatFeat, p.NumNodes)[:p.NumNodes]
		clear(g.SatFeat)
		for li, l := range p.Links {
			a, b := int(l.A), int(l.B)
			cap := p.LinkCap[li] * featCapacityScale
			g.R1.Src = append(g.R1.Src, a, b)
			g.R1.Dst = append(g.R1.Dst, b, a)
			g.R1Feat = append(g.R1Feat, cap, cap)
			g.SatFeat[a]++
			g.SatFeat[b]++
		}
		for i, d := range g.SatFeat {
			g.SatFeat[i] = d * featDegreeScale
		}
	}

	// Path and traffic nodes; R2 and R3.
	for fi := range p.Flows {
		f := &p.Flows[fi]
		ti := g.NumTraffic
		g.NumTraffic++
		g.TrafficFeat = append(g.TrafficFeat, f.DemandMbps*featDemandScale)
		nCand := float64(len(f.Paths)) * featPathsScale
		for pi := range f.Paths {
			pn := g.NumPaths
			g.NumPaths++
			path := f.Paths[pi]
			g.PathFeat = append(g.PathFeat, float64(path.Hops())*featHopsScale)
			g.VarFlow = append(g.VarFlow, fi)
			// R2: each satellite the path crosses.
			n := len(path.Nodes)
			for i, node := range path.Nodes {
				pos := 0.0
				if n > 1 {
					pos = float64(i) / float64(n-1)
				}
				g.R2.Src = append(g.R2.Src, int(node))
				g.R2.Dst = append(g.R2.Dst, pn)
				g.R2Feat = append(g.R2Feat, pos)
			}
			// R3: the flow's traffic node transports over this path.
			g.R3.Src = append(g.R3.Src, ti)
			g.R3.Dst = append(g.R3.Dst, pn)
			g.R3Feat = append(g.R3Feat, nCand)
		}
		// Redundant access relation (ablation only): the flow's endpoints.
		g.Access.Src = append(g.Access.Src, int(f.Src), int(f.Dst))
		g.Access.Dst = append(g.Access.Dst, ti, ti)
		g.AccessFeat = append(g.AccessFeat, f.DemandMbps*featDemandScale, f.DemandMbps*featDemandScale)
	}
	if g.featSeen == nil {
		g.featSeen = make(map[float64]int)
	}
	g.R2FeatU, g.R2FeatIx = dedupFeat(g.featSeen, g.R2FeatU, g.R2FeatIx, g.R2Feat)
	g.R3FeatU, g.R3FeatIx = dedupFeat(g.featSeen, g.R3FeatU, g.R3FeatIx, g.R3Feat)
}

// dedupFeat rebuilds the (unique values, per-element index) view of feat into
// the retained uniq/idx storage, using seen as scratch. Unique values keep
// first-occurrence order so the view is deterministic for a given feature
// sequence.
func dedupFeat(seen map[float64]int, uniq []float64, idx []int, feat []float64) ([]float64, []int) {
	clear(seen)
	uniq = reuseFloats(uniq, len(feat))
	idx = reuseInts(idx, len(feat))
	for _, v := range feat {
		u, ok := seen[v]
		if !ok {
			u = len(uniq)
			seen[v] = u
			uniq = append(uniq, v)
		}
		idx = append(idx, u)
	}
	return uniq, idx
}

// FullGraphRelations counts the relations of the unreduced heterogeneous
// graph of Fig. 6 (a) for the same problem: in addition to R1-R3 it carries
// the redundant "access" (satellite-traffic) edges and explicit link nodes
// with their "contains" (path-link) and incidence (link-satellite) edges.
// Used by the graph-reduction ablation to quantify what the reduction saves.
func FullGraphRelations(p *te.Problem) (reduced, full int) {
	g := BuildTEGraph(p)
	reduced = g.R1.Len() + g.R2.Len() + g.R3.Len()
	full = reduced
	// access: src and dst satellite of every flow.
	full += 2 * len(p.Flows)
	// link nodes: one per link, 2 incidence edges each.
	full += 2 * len(p.Links)
	// contains: one edge per (path, link) incidence.
	vars, _ := p.Incidence()
	full += len(vars)
	return reduced, full
}
