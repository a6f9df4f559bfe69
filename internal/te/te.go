// Package te defines the satellite traffic-engineering problem of Appendix A:
// flows with candidate paths, link capacity constraints, per-satellite
// uplink/downlink capacities and per-flow demand caps, plus allocations,
// feasibility checking/trimming, and the evaluation metrics (satisfied
// demand, maximum link utilisation, flow-level statistics).
package te

import (
	"fmt"
	"math"
	"slices"

	"sate/internal/paths"
	"sate/internal/topology"
)

// FlowDemand is one TE commodity: the aggregated demand between a satellite
// pair and its candidate paths (traffic-matrix entry + preconfigured paths).
type FlowDemand struct {
	Src, Dst   topology.NodeID
	DemandMbps float64
	Paths      []paths.Path
}

// Problem is a complete TE instance.
type Problem struct {
	NumNodes int
	Links    []topology.Link
	LinkCap  []float64 // Mbps per link, parallel to Links
	Flows    []FlowDemand

	// UpCap and DownCap are per-node access-capacity limits (constraints 2.c
	// and 2.d). A zero-length slice disables the constraint family;
	// math.Inf(1) entries disable individual nodes.
	UpCap, DownCap []float64

	linkIndex map[uint64]int

	// The path-link incidence Φ of Appendix A, flat. Path variables are
	// numbered flow-major: path pi of flow fi is variable flowOff[fi]+pi.
	// Variable j traverses links hopLinks[varOff[j]:varOff[j+1]] in hop
	// order, and hopVars[k] is the variable of entry k, so (hopVars,
	// hopLinks) are the (variable, link) pairs of Φ in that same order.
	flowOff, varOff   []int
	hopVars, hopLinks []int
}

// Finalize builds the link index and the path-link incidence (the Φ matrix
// of Appendix A, stored flat). It must be called after the fields are set
// and before solving. Paths that traverse unknown links are dropped from
// their flow (they are obsolete w.r.t. the link set).
func (p *Problem) Finalize() error {
	if len(p.Links) != len(p.LinkCap) {
		return fmt.Errorf("te: %d links but %d capacities", len(p.Links), len(p.LinkCap))
	}
	p.linkIndex = make(map[uint64]int, len(p.Links))
	for i, l := range p.Links {
		p.linkIndex[l.Key()] = i
	}
	p.bindFlows()
	return nil
}

// RebindFlows rebuilds only the flow-side derived state — path filtering and
// the path-link incidence — against the problem's existing link index. It is
// the incremental half of Finalize for replay loops that swap Flows every
// cycle while Links and LinkCap hold still (e.g. a clean shard of the sharded
// solver): the caller asserts the link set is unchanged since the last
// Finalize, and the O(links) index rebuild is skipped. A problem that was
// never finalized falls back to the full Finalize.
func (p *Problem) RebindFlows() error {
	if p.linkIndex == nil {
		return p.Finalize()
	}
	if len(p.Links) != len(p.LinkCap) {
		return fmt.Errorf("te: %d links but %d capacities", len(p.Links), len(p.LinkCap))
	}
	p.bindFlows()
	return nil
}

// bindFlows filters each flow's paths against the link index and rebuilds
// the flat incidence, walking each path's node pairs. The arrays are sized
// once for every path before the walk and reused at high-water capacity, so
// a cold bind allocates each once and a warm rebind does not allocate.
func (p *Problem) bindFlows() {
	vars, hops := 0, 0
	for fi := range p.Flows {
		for _, path := range p.Flows[fi].Paths {
			vars++
			hops += max(len(path.Nodes)-1, 0)
		}
	}
	p.flowOff = append(slices.Grow(p.flowOff[:0], len(p.Flows)+1), 0)
	p.varOff = append(slices.Grow(p.varOff[:0], vars+1), 0)
	p.hopVars, p.hopLinks = slices.Grow(p.hopVars[:0], hops), slices.Grow(p.hopLinks[:0], hops)
	for fi := range p.Flows {
		f := &p.Flows[fi]
		kept := f.Paths[:0]
		for _, path := range f.Paths {
			j, k0 := len(p.varOff)-1, len(p.hopLinks)
			ok := true
			for h := 0; h+1 < len(path.Nodes); h++ {
				li, found := p.linkIndex[topology.MakeLink(path.Nodes[h], path.Nodes[h+1], topology.IntraOrbit).Key()]
				if !found {
					ok = false
					break
				}
				p.hopVars = append(p.hopVars, j)
				p.hopLinks = append(p.hopLinks, li)
			}
			if !ok {
				p.hopVars, p.hopLinks = p.hopVars[:k0], p.hopLinks[:k0]
				continue
			}
			kept = append(kept, path)
			p.varOff = append(p.varOff, len(p.hopLinks))
		}
		f.Paths = kept
		p.flowOff = append(p.flowOff, len(p.varOff)-1)
	}
}

// TopoFingerprint hashes the topology side of the problem: node count, the
// ordered link endpoints and the capacity bits. It covers exactly what a
// solver's topology-derived state is a function of (SaTE's R1 relation and
// the embeddings computed from it, the link index of a compacted
// sub-problem), so equal fingerprints mean that state still applies bit for
// bit, whatever happened to the flows. It is recomputed from the current
// field contents on every call — O(links) word mixes — and so cannot go
// stale under in-place edits. The mixer is 64-bit FNV-1a over whole words;
// a collision between the handful of topologies one reuse cache ever
// compares is negligible.
func (p *Problem) TopoFingerprint() uint64 {
	h := mix(fnvOffset, uint64(p.NumNodes))
	h = mix(h, uint64(len(p.Links)))
	for i, l := range p.Links {
		h = mix(h, l.Key())
		h = mix(h, math.Float64bits(p.LinkCap[i]))
	}
	return h
}

// FlowFingerprint hashes the flow side of the problem: the flow count and,
// in order, each flow's endpoints, demand bits, path count and path node
// sequences (each prefixed by its length). Together with TopoFingerprint it
// covers everything a solver's forward pass reads apart from the access
// capacities, which it leaves out on purpose: those are read only by the
// feasibility correction that runs after it. Like TopoFingerprint it is
// recomputed from the live fields on every call, O(path nodes) word mixes,
// with the same mixer.
func (p *Problem) FlowFingerprint() uint64 {
	h := mix(fnvOffset, uint64(len(p.Flows)))
	for fi := range p.Flows {
		f := &p.Flows[fi]
		h = mix(h, uint64(f.Src))
		h = mix(h, uint64(f.Dst))
		h = mix(h, math.Float64bits(f.DemandMbps))
		h = mix(h, uint64(len(f.Paths)))
		for _, path := range f.Paths {
			h = mix(h, uint64(len(path.Nodes)))
			for _, n := range path.Nodes {
				h = mix(h, uint64(n))
			}
		}
	}
	return h
}

// fnvOffset is the 64-bit FNV-1a offset basis the fingerprints start from.
const fnvOffset = 14695981039346656037

// mix folds one word into a 64-bit FNV-1a hash.
func mix(h, w uint64) uint64 { return (h ^ w) * 1099511628211 }

// LinkSet returns the problem's links as a kind-agnostic membership set —
// for a problem built from a failure-injected snapshot this IS the degraded
// link set, which is what the controller's fallback policy scores stale
// allocations against.
func (p *Problem) LinkSet() topology.LinkSet {
	s := make(topology.LinkSet, len(p.Links))
	for _, l := range p.Links {
		s.Add(l)
	}
	return s
}

// PathLinks returns the link indices of path pi of flow fi, in hop order.
func (p *Problem) PathLinks(fi, pi int) []int {
	j := p.flowOff[fi] + pi
	return p.hopLinks[p.varOff[j]:p.varOff[j+1]:p.varOff[j+1]]
}

// Incidence returns Φ as parallel (variable, link) pairs: variables are
// numbered flow-major (flow 0's paths first, each flow's in path order) and
// each variable's links follow in hop order. The slices belong to the
// problem and are valid until the next Finalize or RebindFlows.
func (p *Problem) Incidence() (vars, links []int) { return p.hopVars, p.hopLinks }

// TotalDemand returns the sum of all flow demands.
func (p *Problem) TotalDemand() float64 {
	var s float64
	for _, f := range p.Flows {
		s += f.DemandMbps
	}
	return s
}

// NumPaths returns the total number of (flow, path) variables.
func (p *Problem) NumPaths() int {
	n := 0
	for _, f := range p.Flows {
		n += len(f.Paths)
	}
	return n
}

// Allocation is a TE solution: x[f][p] is the Mbps assigned to path p of
// flow f (the x_fp of Appendix A).
type Allocation struct {
	X [][]float64
}

// NewAllocation creates a zero allocation shaped for the problem.
func NewAllocation(p *Problem) *Allocation {
	// Single backing slab: one allocation instead of one per flow (Solve
	// creates an Allocation per call, so this is steady-state garbage).
	total := 0
	for i := range p.Flows {
		total += len(p.Flows[i].Paths)
	}
	x := make([][]float64, len(p.Flows))
	data := make([]float64, total)
	off := 0
	for i, f := range p.Flows {
		n := len(f.Paths)
		x[i] = data[off : off+n : off+n]
		off += n
	}
	return &Allocation{X: x}
}

// Throughput returns the total allocated traffic (objective 2.a).
func (a *Allocation) Throughput() float64 {
	var s float64
	for _, row := range a.X {
		for _, v := range row {
			s += v
		}
	}
	return s
}

// FlowThroughput returns the total allocation of flow f.
func (a *Allocation) FlowThroughput(f int) float64 {
	var s float64
	for _, v := range a.X[f] {
		s += v
	}
	return s
}

// LinkLoads returns per-link traffic under the allocation.
func (p *Problem) LinkLoads(a *Allocation) []float64 {
	load := make([]float64, len(p.Links))
	for fi := range p.Flows {
		for pi := range p.Flows[fi].Paths {
			v := a.X[fi][pi]
			if v == 0 {
				continue
			}
			for _, li := range p.PathLinks(fi, pi) {
				load[li] += v
			}
		}
	}
	return load
}

// NodeLoads returns per-node uplink (sourced) and downlink (terminated)
// traffic under the allocation.
func (p *Problem) NodeLoads(a *Allocation) (up, down []float64) {
	up = make([]float64, p.NumNodes)
	down = make([]float64, p.NumNodes)
	for fi, f := range p.Flows {
		t := a.FlowThroughput(fi)
		up[f.Src] += t
		down[f.Dst] += t
	}
	return up, down
}

// MLU returns the maximum link utilisation: max_e load_e / cap_e.
func (p *Problem) MLU(a *Allocation) float64 {
	loads := p.LinkLoads(a)
	m := 0.0
	for i, l := range loads {
		if p.LinkCap[i] <= 0 {
			continue
		}
		if u := l / p.LinkCap[i]; u > m {
			m = u
		}
	}
	return m
}

// SatisfiedDemand returns throughput divided by total demand, in [0,1].
func (p *Problem) SatisfiedDemand(a *Allocation) float64 {
	d := p.TotalDemand()
	if d == 0 {
		return 1
	}
	return a.Throughput() / d
}

// Violations summarises constraint violations of an allocation.
type Violations struct {
	LinkOver   float64 // total Mbps above link capacities
	UpOver     float64 // total Mbps above uplink capacities
	DownOver   float64 // total Mbps above downlink capacities
	DemandOver float64 // total Mbps above flow demands
	Negative   float64 // total magnitude of negative allocations
}

// Any reports whether any violation exceeds the tolerance.
func (v Violations) Any(tol float64) bool {
	return v.LinkOver > tol || v.UpOver > tol || v.DownOver > tol || v.DemandOver > tol || v.Negative > tol
}

// Check measures all constraint violations of an allocation.
func (p *Problem) Check(a *Allocation) Violations {
	var v Violations
	for fi := range p.Flows {
		var t float64
		for _, x := range a.X[fi] {
			if x < 0 {
				v.Negative -= x
				continue
			}
			t += x
		}
		if over := t - p.Flows[fi].DemandMbps; over > 0 {
			v.DemandOver += over
		}
	}
	loads := p.LinkLoads(a)
	for i, l := range loads {
		if over := l - p.LinkCap[i]; over > 0 {
			v.LinkOver += over
		}
	}
	if len(p.UpCap) > 0 || len(p.DownCap) > 0 {
		up, down := p.NodeLoads(a)
		for n := 0; n < p.NumNodes; n++ {
			if len(p.UpCap) > 0 {
				if over := up[n] - p.UpCap[n]; over > 0 && !math.IsInf(p.UpCap[n], 1) {
					v.UpOver += over
				}
			}
			if len(p.DownCap) > 0 {
				if over := down[n] - p.DownCap[n]; over > 0 && !math.IsInf(p.DownCap[n], 1) {
					v.DownOver += over
				}
			}
		}
	}
	return v
}

// Trim repairs an infeasible allocation in place (Sec. 3.3, "Correction for
// Constraint Violation"): negatives are clamped, per-flow totals are scaled
// down to demand, and each path is scaled by the most-violated resource it
// traverses. The result is always feasible.
func (p *Problem) Trim(a *Allocation) {
	// Clamp negatives and enforce demand caps.
	for fi, f := range p.Flows {
		var t float64
		for pi, x := range a.X[fi] {
			if x < 0 || math.IsNaN(x) {
				a.X[fi][pi] = 0
				x = 0
			}
			t += x
		}
		if t > f.DemandMbps && t > 0 {
			s := f.DemandMbps / t
			for pi := range a.X[fi] {
				a.X[fi][pi] *= s
			}
		}
	}
	// Resource scaling: compute scale factor per resource, then scale each
	// path by the minimum factor across the resources it uses. The scaled
	// loads can only decrease, so a single pass suffices for feasibility.
	loads := p.LinkLoads(a)
	linkScale := make([]float64, len(loads))
	for i := range loads {
		linkScale[i] = 1
		if loads[i] > p.LinkCap[i] && loads[i] > 0 {
			linkScale[i] = p.LinkCap[i] / loads[i]
		}
	}
	var upScale, downScale []float64
	if len(p.UpCap) > 0 || len(p.DownCap) > 0 {
		up, down := p.NodeLoads(a)
		upScale = make([]float64, p.NumNodes)
		downScale = make([]float64, p.NumNodes)
		for n := 0; n < p.NumNodes; n++ {
			upScale[n], downScale[n] = 1, 1
			if len(p.UpCap) > 0 && !math.IsInf(p.UpCap[n], 1) && up[n] > p.UpCap[n] && up[n] > 0 {
				upScale[n] = p.UpCap[n] / up[n]
			}
			if len(p.DownCap) > 0 && !math.IsInf(p.DownCap[n], 1) && down[n] > p.DownCap[n] && down[n] > 0 {
				downScale[n] = p.DownCap[n] / down[n]
			}
		}
	}
	for fi, f := range p.Flows {
		for pi := range f.Paths {
			s := 1.0
			for _, li := range p.PathLinks(fi, pi) {
				if linkScale[li] < s {
					s = linkScale[li]
				}
			}
			if upScale != nil {
				if upScale[f.Src] < s {
					s = upScale[f.Src]
				}
				if downScale[f.Dst] < s {
					s = downScale[f.Dst]
				}
			}
			if s < 1 {
				a.X[fi][pi] *= s
			}
		}
	}
}

// FlowStats returns the per-flow satisfied-demand ratios (allocated/demand),
// used for the flow-level analysis of Appendix H.4.
func (p *Problem) FlowStats(a *Allocation) []float64 {
	out := make([]float64, len(p.Flows))
	for fi, f := range p.Flows {
		if f.DemandMbps <= 0 {
			out[fi] = 1
			continue
		}
		out[fi] = a.FlowThroughput(fi) / f.DemandMbps
	}
	return out
}

// JainIndex returns Jain's fairness index of the per-flow satisfaction
// ratios: (sum x)^2 / (n * sum x^2), in (0, 1], 1 = perfectly fair.
func (p *Problem) JainIndex(a *Allocation) float64 {
	ratios := p.FlowStats(a)
	if len(ratios) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, r := range ratios {
		sum += r
		sumSq += r * r
	}
	if sumSq == 0 {
		return 1
	}
	n := float64(len(ratios))
	return sum * sum / (n * sumSq)
}
