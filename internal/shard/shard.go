// Package shard promotes TE-problem decomposition to a first-class solver:
// the constellation is split into K contiguous node regions (orbital-plane
// bands — see topology.PartitionNodes), flows whose candidate paths stay
// inside one region are solved as K independent subproblems, each on the par
// worker pool, and the remaining cut-crossing flows are reconciled
// in a boundary pass against the residual capacities the regional solves
// left behind.
//
// Unlike the POP baseline (random flow partition over 1/K-scaled capacity
// copies, baselines.POP), the regional subproblems share no links or access
// nodes at all, so they solve against the network's real capacities and the
// combined allocation is feasible by construction; only the boundary pass
// competes for leftovers. Any solver implementing the unified solve surface
// can run per shard — SaTE, the LP references, GK, the heuristics.
//
// Each sub-problem is compacted to the nodes and links its flows' candidate
// paths actually traverse — links no path uses impose no constraints, so
// dropping them is exact, and it makes the per-shard GNN cost scale with the
// shard's traffic footprint instead of the region width (the satellite-side
// message passing of the R2 module is linear in the sub-problem's node
// count).
//
// The solver is also the repo's incremental per-cycle pipeline: every
// sub-problem — a regional band's, or the boundary component with a given id
// — keeps its storage and a solve workspace (core.CycleState) across cycles
// until the partition is rebuilt, and the sub-problem's topology fingerprint
// (te.Problem.TopoFingerprint over the compacted links, the capacities in
// effect and the node count) says whether its link index still applies.
// Unchanged sub-problems skip link-index construction (te.Problem.RebindFlows
// instead of Finalize) and — for a SaTE inner solver, which checks the same
// fingerprint itself — the R1 module; a sub-problem whose flows are unchanged
// too (te.Problem.FlowFingerprint, also checked by the inner model) skips the
// whole GNN forward and only decodes and trims the retained output again. Under the paper's sparse churn (<2% of
// paths per second) most shards are unchanged most cycles, which is where the
// latency win at mega-constellation scale comes from.
package shard

import (
	"errors"
	"fmt"
	"math"

	"sate/internal/core"
	"sate/internal/obs"
	"sate/internal/paths"
	"sate/internal/solve"
	"sate/internal/te"
	"sate/internal/topology"
)

// DefaultShards is the shard count used when the Solver does not set one.
const DefaultShards = 4

// Stats describes the most recent sharded solve.
type Stats struct {
	Cycles             int  // sharded solves performed through this Solver
	Shards             int  // effective shard count of the last solve
	DirtyShards        int  // shards whose sub-problem topology fingerprint moved last cycle
	InternalFlows      int  // flows solved inside a shard last cycle
	BoundaryFlows      int  // flows reconciled in the boundary pass last cycle
	BoundaryComponents int  // node-disjoint components the boundary pass split into
	BoundaryFirst      bool // last cycle solved the boundary class before the shards
}

// Solver solves TE problems by regional decomposition with boundary
// reconciliation. One Solver owns cross-cycle incremental state and must be
// driven from a single replay loop (its Solve is not reentrant); the
// sub-solves inside one call run in sequence, each one's kernels on the par
// pool.
//
// The zero value is not usable: Inner must be set. K is the shard count
// (DefaultShards if 0); k = 1 delegates to Inner untouched
// (bitwise-identical to a monolithic solve). The MLU objective is also
// delegated monolithically — residual stitching has no MLU semantics.
type Solver struct {
	// K is the shard count.
	K int
	// Inner solves the regional subproblems and the boundary components.
	Inner solve.Solver

	// Stats describes the most recent solve (read between cycles).
	Stats Stats

	name string

	// Partition plan, rebuilt when the node universe or shard count moves.
	numNodes int
	planK    int
	bounds   []topology.NodeID
	bands    []*sub
	// Boundary components, indexed by component id (first-seen flow order,
	// see solveBoundary), retained across cycles like the bands and dropped
	// with them.
	comps []*sub

	// Inner-call options every sub-solve inherits, and what they were
	// resolved from.
	opts   []solve.Option
	optObj solve.Objective
	optReg *obs.Registry
	optDt  solve.Dtype

	// Boundary component discovery scratch.
	bflows   []int   // boundary flow order -> global flow index
	ufParent []int32 // union-find over global nodes, lazily reset via ufSeen
	ufSeen   []int
	ufStamp  int
	gid      []int32 // component id per root node, lazily reset via gidSeen
	gidSeen  []int
	gidStamp int

	// Compaction scratch, stamped per sub-problem.
	nodeSeen  []int             // per-global-node stamp
	nodeIx    []topology.NodeID // global node -> compacted id, valid where nodeSeen matches
	linkSeen  []int             // per-global-link stamp for link dedup
	stamp     int
	residCap  []float64
	residUp   []float64
	residDown []float64
}

// sub is one compacted sub-problem — a regional band's internal flows or one
// boundary component — with everything a cycle needs to rebuild it in place
// and solve it warm.
type sub struct {
	prob  te.Problem
	flows []int             // sub flow index -> global flow index
	nodes []topology.NodeID // compacted node id -> global node, first-seen order

	nodeArena []topology.NodeID // backing store for remapped path node sequences
	pathArena []paths.Path      // backing store for remapped candidate-path slices

	fp    uint64 // prob's topology fingerprint at its last Finalize
	hasFP bool

	warm *core.CycleState // the workspace the inner solver runs this sub-problem through
	opts []solve.Option   // the Solver's opts plus WithWarm(warm)
}

// capView is the capacity side a sub-problem is compacted against: the
// problem's own capacities, or the residuals the other class left behind.
type capView struct{ link, up, down []float64 }

// New builds a sharded solver around an inner solver.
func New(inner solve.Solver, k int) *Solver { return &Solver{K: k, Inner: inner} }

// Name implements the solver interface; the label carries the inner solver
// ("shard-gk", "shard-sate", ...) so latency histograms stay distinguishable.
func (s *Solver) Name() string {
	if s.name == "" {
		n := "nil"
		if s.Inner != nil {
			n = s.Inner.Name()
		}
		s.name = "shard-" + n
	}
	return s.name
}

// R1Stats sums the R1 cache statistics of every workspace the solver has
// solved through — one per band and one per boundary component id, all
// dropped together when the partition plan is rebuilt (a new node universe
// or shard count), so hits+misses is the number of sub-solves performed
// since then. Meaningful when Inner is the SaTE model (other solvers never
// touch the workspace); hits/(hits+misses) is the fraction of sub-solves
// that replayed cached R1 embeddings.
func (s *Solver) R1Stats() (hits, misses uint64) { return s.sumStats((*core.CycleState).R1Stats) }

// ReplayStats sums the forward-replay statistics (core.CycleState.ReplayStats)
// of the same workspaces R1Stats does: hits/(hits+misses) is the fraction of
// sub-solves whose problem was bit-identical to the one their workspace
// solved last, so the inner model skipped the whole forward. Every replay is
// also an R1 hit. Meaningful when Inner is the SaTE model.
func (s *Solver) ReplayStats() (hits, misses uint64) {
	return s.sumStats((*core.CycleState).ReplayStats)
}

// sumStats adds one per-workspace counter pair up over the bands and the
// boundary components.
func (s *Solver) sumStats(stat func(*core.CycleState) (uint64, uint64)) (hits, misses uint64) {
	for _, subs := range [2][]*sub{s.bands, s.comps} {
		for _, c := range subs {
			h, m := stat(c.warm)
			hits += h
			misses += m
		}
	}
	return hits, misses
}

// errNilInner is hoisted so the misconfiguration check in Solve stays
// allocation-free.
var errNilInner = errors.New("shard: Inner solver not set")

// Solve implements the unified solver surface. See the package comment for
// the decomposition; the phases are instrumented as shard_partition,
// shard_solve and shard_stitch spans when a registry is attached.
func (s *Solver) Solve(p *te.Problem, opts ...solve.Option) (*te.Allocation, error) {
	o := solve.Build(opts...)
	if s.Inner == nil {
		return nil, errNilInner
	}
	k := s.K
	if k <= 0 {
		k = DefaultShards
	}
	if k == 1 || o.Objective == solve.MLU {
		// Monolithic delegation: identical to calling the inner solver
		// directly, including warm state and worker handling.
		return s.Inner.Solve(p, opts...)
	}
	a := solve.Begin(o, s.Name())
	defer a.End()

	sp := o.Registry.StartSpan(obs.PhaseShardPartition)
	s.plan(p, k, o)
	internal, boundary, intDem, bndDem := s.classify(p)
	// Adaptive ordering: the dominant demand class solves first against the
	// full capacities, the minority takes the residuals. Regional traffic
	// (the replay fast path) keeps the internal-first order and its warm
	// caches; globally mixed overload flips to boundary-first, where the
	// boundary pass covers most of the problem and the quality loss of
	// greedy ordering collapses.
	boundaryFirst := bndDem > intDem
	sp.End()

	alloc := te.NewAllocation(p)
	own := capView{p.LinkCap, p.UpCap, p.DownCap}
	dirty, ncomp := 0, 0
	var err error
	if boundaryFirst {
		sp = o.Registry.StartSpan(obs.PhaseShardStitch)
		ncomp, err = s.solveBoundary(p, alloc, own)
		sp.End()
		if err == nil && internal > 0 {
			sp = o.Registry.StartSpan(obs.PhaseShardSolve)
			dirty, err = s.solveSubs(p, alloc, s.bands, s.residuals(p, alloc), "shard")
			sp.End()
		}
	} else {
		sp = o.Registry.StartSpan(obs.PhaseShardSolve)
		dirty, err = s.solveSubs(p, alloc, s.bands, own, "shard")
		sp.End()
		if err == nil && boundary > 0 {
			sp = o.Registry.StartSpan(obs.PhaseShardStitch)
			ncomp, err = s.solveBoundary(p, alloc, s.residuals(p, alloc))
			sp.End()
		}
	}
	if err != nil {
		return nil, err
	}
	p.Trim(alloc)

	s.Stats = Stats{
		Cycles:             s.Stats.Cycles + 1,
		Shards:             len(s.bands),
		DirtyShards:        dirty,
		InternalFlows:      internal,
		BoundaryFlows:      boundary,
		BoundaryComponents: ncomp,
		BoundaryFirst:      boundaryFirst,
	}
	if o.Registry != nil {
		o.Registry.Counter("sate_shard_cycles_total").Inc()
		o.Registry.Counter("sate_shard_dirty_total").Add(uint64(dirty))
		o.Registry.Counter("sate_shard_boundary_flows_total").Add(uint64(boundary))
	}
	return alloc, nil
}

// plan (re)builds the partition plan and the retained inner-call option
// slices when the node universe, shard count or resolved options moved.
func (s *Solver) plan(p *te.Problem, k int, o solve.Options) {
	if s.numNodes != p.NumNodes || s.planK != k {
		s.numNodes = p.NumNodes
		s.planK = k
		s.bounds = topology.PartitionNodes(p.NumNodes, k)
		s.bands = make([]*sub, len(s.bounds)-1)
		for i := range s.bands {
			s.bands[i] = &sub{warm: &core.CycleState{}}
		}
		s.comps = nil
		s.opts = nil
	}
	if s.opts == nil || s.optObj != o.Objective || s.optReg != o.Registry || s.optDt != o.Dtype {
		s.optObj, s.optReg, s.optDt = o.Objective, o.Registry, o.Dtype
		// Inner calls inherit objective, registry and dtype; the worker
		// override was already applied globally by this solve's Begin. Each
		// sub-problem gets its own workspace in place of the caller's.
		s.opts = []solve.Option{
			solve.WithObjective(o.Objective),
			solve.WithRegistry(o.Registry),
			solve.WithDtype(o.Dtype),
		}
		for _, subs := range [2][]*sub{s.bands, s.comps} {
			for _, c := range subs {
				c.bind(s.opts)
			}
		}
	}
}

// bind rebuilds the sub-problem's inner-call options around its workspace.
func (c *sub) bind(base []solve.Option) {
	c.opts = append(append(c.opts[:0], base...), solve.WithWarm(c.warm))
}

// classify assigns every flow to its band (all candidate paths inside one
// shard's node range) or to the boundary set, and returns the per-class flow
// counts and demand totals (the ordering signal).
func (s *Solver) classify(p *te.Problem) (internal, boundary int, intDem, bndDem float64) {
	for _, b := range s.bands {
		b.flows = b.flows[:0]
	}
	s.bflows = s.bflows[:0]
	for fi := range p.Flows {
		f := &p.Flows[fi]
		if len(f.Paths) == 0 {
			continue // nothing any solver could allocate
		}
		si := topology.ShardOfNode(s.bounds, f.Src)
		lo, hi := s.bounds[si], s.bounds[si+1]
		in := true
		for _, path := range f.Paths {
			if !path.WithinRange(lo, hi) {
				in = false
				break
			}
		}
		if !in {
			s.bflows = append(s.bflows, fi)
			boundary++
			bndDem += f.DemandMbps
			continue
		}
		s.bands[si].flows = append(s.bands[si].flows, fi)
		internal++
		intDem += f.DemandMbps
	}
	return internal, boundary, intDem, bndDem
}

// compact rebuilds c as the sub-problem of its flows under a capacity view:
// only the nodes and links the flows' candidate paths traverse, remapped
// dense in first-seen (flow, path, hop) order — deterministic by
// construction — into c's retained storage, which is pre-sized from a
// counting pass so the fill never grows it. The rebuild is linear in the
// flows' path data and cheap next to a sub-solve.
func (s *Solver) compact(c *sub, p *te.Problem, caps capView) {
	flows := c.flows
	nPaths, nHops := 0, 0
	for _, fi := range flows {
		for _, path := range p.Flows[fi].Paths {
			nHops += len(path.Nodes)
		}
		nPaths += len(p.Flows[fi].Paths)
	}
	c.nodeArena = grow(c.nodeArena, nHops)
	c.pathArena = grow(c.pathArena, nPaths)
	c.prob.Flows = grow(c.prob.Flows, len(flows))
	c.nodes = grow(c.nodes, min(nHops, p.NumNodes))
	c.prob.Links = grow(c.prob.Links, min(nHops, len(p.Links)))
	c.prob.LinkCap = grow(c.prob.LinkCap, min(nHops, len(p.Links)))
	s.nodeSeen = grow(s.nodeSeen, p.NumNodes)
	s.nodeIx = grow(s.nodeIx, p.NumNodes)
	s.linkSeen = grow(s.linkSeen, len(p.Links))
	s.stamp++

	nn, nl, na, np := 0, 0, 0, 0
	for sfi, fi := range flows {
		f := &p.Flows[fi]
		p0 := np
		for pi, path := range f.Paths {
			a0 := na
			for _, n := range path.Nodes {
				if s.nodeSeen[n] != s.stamp {
					s.nodeSeen[n] = s.stamp
					s.nodeIx[n] = topology.NodeID(nn)
					c.nodes[nn] = n
					nn++
				}
				c.nodeArena[na] = s.nodeIx[n]
				na++
			}
			c.pathArena[np] = paths.Path{Nodes: c.nodeArena[a0:na:na]}
			np++
			for _, li := range p.PathLinks(fi, pi) {
				if s.linkSeen[li] == s.stamp {
					continue
				}
				s.linkSeen[li] = s.stamp
				l := p.Links[li]
				// Both endpoints sit on the path just remapped, so the
				// compacted ids exist; MakeLink restores canonical order.
				c.prob.Links[nl] = topology.MakeLink(s.nodeIx[l.A], s.nodeIx[l.B], l.Kind)
				c.prob.LinkCap[nl] = caps.link[li]
				nl++
			}
		}
		c.prob.Flows[sfi] = te.FlowDemand{
			Src:        s.nodeIx[f.Src],
			Dst:        s.nodeIx[f.Dst],
			DemandMbps: f.DemandMbps,
			Paths:      c.pathArena[p0:np:np],
		}
	}
	c.nodes = c.nodes[:nn]
	c.prob.Links = c.prob.Links[:nl]
	c.prob.LinkCap = c.prob.LinkCap[:nl]
	c.prob.NumNodes = nn
	if len(caps.up) > 0 {
		c.prob.UpCap = grow(c.prob.UpCap, nn)
		c.prob.DownCap = grow(c.prob.DownCap, nn)
		for j, n := range c.nodes {
			c.prob.UpCap[j] = caps.up[n]
			c.prob.DownCap[j] = caps.down[n]
		}
	} else {
		c.prob.UpCap, c.prob.DownCap = nil, nil
	}
}

// finalize brings c's derived state up to date after compact and reports
// whether its topology fingerprint moved since the previous cycle: a moved
// (dirty) sub-problem pays the full Finalize, an unchanged one only rebinds
// its flows against the retained link index.
func (c *sub) finalize() (dirty bool, err error) {
	fp := c.prob.TopoFingerprint()
	if c.hasFP && c.fp == fp {
		return false, c.prob.RebindFlows()
	}
	c.fp, c.hasFP = fp, true
	return true, c.prob.Finalize()
}

// scatter copies a sub-allocation into the global rows of c's flows.
func (c *sub) scatter(alloc, sa *te.Allocation) {
	for sfi, fi := range c.flows {
		copy(alloc.X[fi], sa.X[sfi])
	}
}

// solveSubs solves one class of sub-problems — the bands, or the boundary
// components — against a capacity view (the problem's own capacities, or
// the residuals the other class left behind): each is compacted, finalized,
// solved if it has flows, and its sub-allocation scattered into the global
// rows of its flows. The sub-problems run one after another so that each
// sub-solve's kernels get the par pool: a fan-out would hold the pool and
// run each sub-solve's kernels on one goroutine, which measured slower on
// shard-regional-7936 (DESIGN.md §6). Returns how many were dirty; what
// names them in errors.
func (s *Solver) solveSubs(p *te.Problem, alloc *te.Allocation, subs []*sub, caps capView, what string) (dirty int, err error) {
	for i, c := range subs {
		s.compact(c, p, caps)
		d, err := c.finalize()
		if err != nil {
			return 0, fmt.Errorf("%s %d: %w", what, i, err)
		}
		if d {
			dirty++
		}
		if len(c.flows) == 0 {
			continue
		}
		sa, err := s.Inner.Solve(&c.prob, c.opts...)
		if err != nil {
			return 0, fmt.Errorf("%s %d (%s): %w", what, i, s.Inner.Name(), err)
		}
		c.scatter(alloc, sa)
	}
	return dirty, nil
}

// residuals returns the capacity view left after the allocations scattered
// so far, per link and access node (clamped at zero; +Inf stays +Inf).
func (s *Solver) residuals(p *te.Problem, alloc *te.Allocation) capView {
	loads := p.LinkLoads(alloc)
	s.residCap = grow(s.residCap, len(p.Links))
	for i, c := range p.LinkCap {
		s.residCap[i] = residualOf(c, loads[i])
	}
	if len(p.UpCap) == 0 {
		return capView{link: s.residCap}
	}
	up, down := p.NodeLoads(alloc)
	s.residUp = grow(s.residUp, p.NumNodes)
	s.residDown = grow(s.residDown, p.NumNodes)
	for n := 0; n < p.NumNodes; n++ {
		s.residUp[n] = residualOf(p.UpCap[n], up[n])
		s.residDown[n] = residualOf(p.DownCap[n], down[n])
	}
	return capView{s.residCap, s.residUp, s.residDown}
}

// ufFind resolves a node's component root with lazy initialisation and path
// compression; roots are the minimum node id of their component, so the
// structure is deterministic.
func (s *Solver) ufFind(n topology.NodeID) topology.NodeID {
	if s.ufSeen[n] != s.ufStamp {
		s.ufSeen[n] = s.ufStamp
		s.ufParent[n] = int32(n)
		return n
	}
	r := n
	for topology.NodeID(s.ufParent[r]) != r {
		r = topology.NodeID(s.ufParent[r])
		if s.ufSeen[r] != s.ufStamp {
			s.ufSeen[r] = s.ufStamp
			s.ufParent[r] = int32(r)
		}
	}
	for topology.NodeID(s.ufParent[n]) != r {
		n, s.ufParent[n] = topology.NodeID(s.ufParent[n]), int32(r)
	}
	return r
}

func (s *Solver) ufUnion(a, b topology.NodeID) {
	ra, rb := s.ufFind(a), s.ufFind(b)
	if ra == rb {
		return
	}
	if ra < rb {
		s.ufParent[rb] = int32(ra)
	} else {
		s.ufParent[ra] = int32(rb)
	}
}

// solveBoundary reconciles the cut-crossing flows against a capacity view —
// the residuals the regional solves left behind, or the full capacities when
// the boundary class dominates and solves first. The flows are first split
// into node-disjoint components (union-find over their candidate-path
// nodes), so the per-component solves cannot compete for a link or access
// node and the combined allocation stays feasible by construction. Component
// ids are assigned in first-seen flow order, and component g is solved as
// s.comps[g], a sub-problem retained across cycles exactly like a band:
// a component whose structure and capacities held still replays its R1
// embeddings (and its whole forward when its flows did too), and only
// churn-adjacent components pay a recompute. Returns the component count.
func (s *Solver) solveBoundary(p *te.Problem, alloc *te.Allocation, caps capView) (int, error) {
	if len(s.bflows) == 0 {
		return 0, nil
	}
	// Component discovery: union every candidate-path node of a flow with the
	// flow's source, then label components in first-seen flow order and hand
	// each flow to its component.
	s.ufParent = grow(s.ufParent, p.NumNodes)
	s.ufSeen = grow(s.ufSeen, p.NumNodes)
	s.ufStamp++
	for _, fi := range s.bflows {
		f := &p.Flows[fi]
		for _, path := range f.Paths {
			for _, n := range path.Nodes {
				s.ufUnion(f.Src, n)
			}
		}
	}
	s.gid = grow(s.gid, p.NumNodes)
	s.gidSeen = grow(s.gidSeen, p.NumNodes)
	s.gidStamp++
	ncomp := 0
	for _, fi := range s.bflows {
		r := s.ufFind(p.Flows[fi].Src)
		if s.gidSeen[r] != s.gidStamp {
			s.gidSeen[r] = s.gidStamp
			s.gid[r] = int32(ncomp)
			if ncomp == len(s.comps) {
				c := &sub{warm: &core.CycleState{}}
				c.bind(s.opts)
				s.comps = append(s.comps, c)
			}
			s.comps[ncomp].flows = s.comps[ncomp].flows[:0]
			ncomp++
		}
		c := s.comps[s.gid[r]]
		c.flows = append(c.flows, fi)
	}
	_, err := s.solveSubs(p, alloc, s.comps[:ncomp], caps, "shard boundary component")
	return ncomp, err
}

// residualOf returns the capacity left after a load, clamped at zero;
// unconstrained (+Inf) capacities stay unconstrained.
func residualOf(cap, load float64) float64 {
	if math.IsInf(cap, 1) {
		return cap
	}
	r := cap - load
	if r < 0 {
		return 0
	}
	return r
}

// grow returns a slice of exactly n elements over s's storage when it is
// large enough, over fresh storage otherwise. Contents are unspecified.
func grow[E any](s []E, n int) []E {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]E, n)
}
