package paths

import (
	"sync"

	"sate/internal/constellation"
	"sate/internal/topology"
)

// GridRouter implements the fast k-shortest path algorithm of Appendix C,
// specialised to the multi-shell grid structure of mega-constellations:
//
//   - Intra-shell: minimum hops equal the toroidal Manhattan distance between
//     (plane, slot) coordinates; up to C(dx+dy, dx) minimum-hop lattice paths
//     are enumerated directly, no graph search.
//   - Inter-shell: a ring recursion finds the nearest satellite to the source
//     that carries a cross-shell link toward the destination shell; intra-
//     shell segments are concatenated through it (minimising hops on higher,
//     sparser shells).
//   - Ground relays: the source-side satellite with a relay link is found by
//     direct distance ranking (relays are few), then the path is stitched
//     src -> alpha -> relay -> gamma -> dst.
//
// Enumerated paths are validated against the live snapshot (inter-orbit links
// vanish at high latitudes; cross links re-pair); the generic engine fills in
// when the grid enumeration cannot produce enough valid paths.
type GridRouter struct {
	Cons *constellation.Constellation
	Snap *topology.Snapshot

	links map[uint64]topology.Link
	// graph is the lazily built generic-engine view; graphMu guards the
	// build so KShortest is safe to call from many goroutines at once (the
	// router is otherwise read-only between Rebase calls). Rebase drops the
	// graph; the next fallback (or Prewarm) rebuilds it from the new
	// snapshot.
	graphMu sync.Mutex
	graph   *Graph
	// crossLinks[sat] lists cross-shell or relay partners of sat.
	crossLinks map[topology.NodeID][]topology.NodeID
}

// NewGridRouter builds a router for one snapshot.
func NewGridRouter(c *constellation.Constellation, s *topology.Snapshot) *GridRouter {
	r := &GridRouter{
		Cons:       c,
		Snap:       s,
		links:      s.LinkSet(),
		crossLinks: make(map[topology.NodeID][]topology.NodeID),
	}
	for _, l := range s.Links {
		if l.Kind == topology.CrossShellLaser || l.Kind == topology.GroundRelayLink {
			r.crossLinks[l.A] = append(r.crossLinks[l.A], l.B)
			r.crossLinks[l.B] = append(r.crossLinks[l.B], l.A)
		}
	}
	return r
}

func (r *GridRouter) generic() *Graph {
	r.graphMu.Lock()
	defer r.graphMu.Unlock()
	if r.graph == nil {
		r.graph = GraphFrom(r.Snap)
	}
	return r.graph
}

// Prewarm eagerly builds the generic-engine fallback graph, so a following
// parallel KShortest fan-out does not serialise its first fallbacks behind
// the lazy build.
func (r *GridRouter) Prewarm() { r.generic() }

// Rebase moves the router to a new snapshot given the link churn between the
// old and new one, patching the link set and cross-link adjacency in place
// instead of rebuilding them from the full link list. The generic fallback
// graph is dropped (positions move every snapshot) and rebuilt lazily.
// The caller must not be running concurrent KShortest queries.
func (r *GridRouter) Rebase(s *topology.Snapshot, added, removed []topology.Link) {
	r.Snap = s
	for _, l := range removed {
		delete(r.links, l.Key())
		if l.Kind == topology.CrossShellLaser || l.Kind == topology.GroundRelayLink {
			r.crossLinks[l.A] = dropNode(r.crossLinks[l.A], l.B)
			r.crossLinks[l.B] = dropNode(r.crossLinks[l.B], l.A)
		}
	}
	for _, l := range added {
		r.links[l.Key()] = l
		if l.Kind == topology.CrossShellLaser || l.Kind == topology.GroundRelayLink {
			r.crossLinks[l.A] = append(r.crossLinks[l.A], l.B)
			r.crossLinks[l.B] = append(r.crossLinks[l.B], l.A)
		}
	}
	r.graphMu.Lock()
	r.graph = nil
	r.graphMu.Unlock()
}

// dropNode removes every occurrence of id, preserving order.
func dropNode(s []topology.NodeID, id topology.NodeID) []topology.NodeID {
	out := s[:0]
	for _, n := range s {
		if n != id {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// torusDelta returns the signed shortest displacement from a to b modulo n.
func torusDelta(a, b, n int) int {
	d := (b - a) % n
	if d < 0 {
		d += n
	}
	if d > n/2 {
		d -= n
	}
	return d
}

// IntraShellPaths enumerates up to k minimum-hop lattice paths between two
// satellites of the same shell and filters them against live links. Paths are
// deterministic: plane-steps and slot-steps interleavings in lexicographic
// order.
func (r *GridRouter) IntraShellPaths(src, dst constellation.SatID, k int) []Path {
	gs := r.Cons.Sats[src].Grid
	gd := r.Cons.Sats[dst].Grid
	if gs.Shell != gd.Shell {
		return nil
	}
	sh := r.Cons.Shells[gs.Shell]
	dp := torusDelta(gs.Plane, gd.Plane, sh.Planes)
	ds := torusDelta(gs.Slot, gd.Slot, sh.SatsPerPlane)
	if dp == 0 && ds == 0 {
		return nil
	}
	var out []Path
	r.enumerateLattice(gs, dp, ds, k, &out)
	return out
}

// enumerateLattice walks all interleavings of |dp| plane-steps and |ds|
// slot-steps (up to k results), validating each hop against live links.
func (r *GridRouter) enumerateLattice(start constellation.GridCoord, dp, ds, k int, out *[]Path) {
	stepP := 1
	if dp < 0 {
		stepP = -1
	}
	stepS := 1
	if ds < 0 {
		stepS = -1
	}
	var rec func(g constellation.GridCoord, remP, remS int, acc []topology.NodeID)
	rec = func(g constellation.GridCoord, remP, remS int, acc []topology.NodeID) {
		if len(*out) >= k {
			return
		}
		if remP == 0 && remS == 0 {
			*out = append(*out, NewPath(acc...))
			return
		}
		cur := topology.NodeID(r.Cons.SatAt(g).ID)
		// Plane step first (lexicographic: plane moves before slot moves).
		if remP != 0 {
			ng := r.Cons.Neighbor(g, stepP, 0)
			nid := topology.NodeID(r.Cons.SatAt(ng).ID)
			if r.linkAlive(cur, nid) {
				rec(ng, remP-stepP, remS, append(acc, nid))
			}
		}
		if remS != 0 {
			ng := r.Cons.Neighbor(g, 0, stepS)
			nid := topology.NodeID(r.Cons.SatAt(ng).ID)
			if r.linkAlive(cur, nid) {
				rec(ng, remP, remS-stepS, append(acc, nid))
			}
		}
	}
	first := topology.NodeID(r.Cons.SatAt(start).ID)
	rec(start, dp, ds, []topology.NodeID{first})
}

func (r *GridRouter) linkAlive(a, b topology.NodeID) bool {
	l := topology.MakeLink(a, b, topology.IntraOrbit)
	_, ok := r.links[l.Key()]
	return ok
}

// nearestWithCrossLink runs the ring recursion of Appendix C: it explores
// satellites at increasing grid distance m from src within src's shell and
// returns the first found that has a cross link whose far end lies in
// wantShell (or is a relay node when wantShell < 0 means "any relay").
func (r *GridRouter) nearestWithCrossLink(src constellation.SatID, wantShell int) (alpha topology.NodeID, beta topology.NodeID, ok bool) {
	g0 := r.Cons.Sats[src].Grid
	sh := r.Cons.Shells[g0.Shell]
	maxRing := sh.Planes + sh.SatsPerPlane
	for m := 0; m <= maxRing; m++ {
		// All grid coords at Manhattan ring m.
		for dp := -m; dp <= m; dp++ {
			dsAbs := m - absI(dp)
			for _, ds := range ringSlots(dsAbs) {
				g := r.Cons.Neighbor(g0, dp, ds)
				cand := topology.NodeID(r.Cons.SatAt(g).ID)
				for _, far := range r.crossLinks[cand] {
					if int(far) >= r.Snap.NumSats {
						if wantShell < 0 { // relay wanted
							return cand, far, true
						}
						continue
					}
					if wantShell >= 0 && r.Cons.ShellOf(constellation.SatID(far)) == wantShell {
						return cand, far, true
					}
				}
			}
		}
	}
	return 0, 0, false
}

func ringSlots(dsAbs int) []int {
	if dsAbs == 0 {
		return []int{0}
	}
	return []int{dsAbs, -dsAbs}
}

func absI(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// KShortest computes up to k candidate paths between two satellites using the
// grid algorithm with generic-engine fallback. It always returns loop-free,
// snapshot-valid paths (possibly fewer than k).
func (r *GridRouter) KShortest(src, dst constellation.SatID, k int) []Path {
	if src == dst {
		return nil
	}
	var out []Path
	gs := r.Cons.Sats[src].Grid
	gd := r.Cons.Sats[dst].Grid
	if gs.Shell == gd.Shell {
		out = r.IntraShellPaths(src, dst, k)
	} else {
		out = r.interShellPaths(src, dst, k)
	}
	out = Dedup(out)
	if len(out) < k {
		// Fallback: generic k-shortest on the live graph fills the deficit.
		gen := r.generic().KShortest(topology.NodeID(src), topology.NodeID(dst), k)
		out = Dedup(append(out, gen...))
		if len(out) > k {
			out = out[:k]
		}
	}
	return out
}

// interShellPaths implements the three-step composition of Appendix C for a
// source and destination in different shells, including the ground-relay
// variant.
func (r *GridRouter) interShellPaths(src, dst constellation.SatID, k int) []Path {
	dstShell := r.Cons.ShellOf(dst)
	srcShell := r.Cons.ShellOf(src)

	// Step 1: nearest satellite alpha (in src's shell) with a cross link to a
	// node beta toward the destination shell. Lasers only join adjacent
	// shells, so aim for the neighbouring shell in the destination's
	// direction; the recursion below advances shell by shell. With relays,
	// beta is the relay node and any shell is reachable in one bent-pipe hop.
	wantShell := dstShell
	if dstShell > srcShell+1 {
		wantShell = srcShell + 1
	} else if dstShell < srcShell-1 {
		wantShell = srcShell - 1
	}
	alpha, beta, ok := r.nearestWithCrossLink(src, wantShell)
	viaRelay := false
	if !ok {
		alpha, beta, ok = r.nearestWithCrossLink(src, -1) // any relay
		viaRelay = ok
	}
	if !ok {
		return nil
	}

	// Head segment: one shortest intra-shell path src -> alpha.
	var head Path
	if topology.NodeID(src) == alpha {
		head = NewPath(topology.NodeID(src))
	} else {
		hs := r.IntraShellPaths(src, constellation.SatID(alpha), 1)
		if len(hs) == 0 {
			return nil
		}
		head = hs[0]
	}

	// Middle: the cross hop(s).
	mid := Path{Nodes: []topology.NodeID{alpha, beta}}
	entry := beta // node in (or toward) the destination shell
	if viaRelay {
		// beta is a relay: pick a satellite gamma in the destination shell
		// linked to the same relay.
		gamma := topology.NodeID(-1)
		for _, far := range r.crossLinks[beta] {
			if int(far) < r.Snap.NumSats && r.Cons.ShellOf(constellation.SatID(far)) == dstShell {
				gamma = far
				break
			}
		}
		if gamma < 0 {
			return nil
		}
		mid = Path{Nodes: []topology.NodeID{alpha, beta, gamma}}
		entry = gamma
	}

	// If the laser hop landed in an intermediate shell, recurse toward dst.
	if int(entry) < r.Snap.NumSats && r.Cons.ShellOf(constellation.SatID(entry)) != dstShell {
		var out []Path
		for _, tail := range r.interShellPaths(constellation.SatID(entry), dst, k) {
			if hm, ok := Concat(head, mid); ok {
				if full, ok := Concat(hm, tail); ok {
					out = append(out, full)
				}
			}
		}
		return out
	}

	// Step 2: up to k minimum-hop intra-shell paths entry -> dst.
	var tails []Path
	if entry == topology.NodeID(dst) {
		tails = []Path{NewPath(entry)}
	} else {
		tails = r.IntraShellPaths(constellation.SatID(entry), dst, k)
	}

	// Step 3: concatenate.
	var out []Path
	for _, tail := range tails {
		if hm, ok := Concat(head, mid); ok {
			if full, ok := Concat(hm, tail); ok {
				out = append(out, full)
			}
		}
	}
	return out
}
