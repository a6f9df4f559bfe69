// Package paths computes candidate paths for satellite TE: the grid-based
// k-shortest path algorithm of Appendix C (Manhattan enumeration within a
// shell, recursive cross-shell composition), a generic k-shortest-path engine
// and Yen's algorithm as the classical baseline, and an incrementally
// maintained path database that recomputes only the paths affected by
// topology changes (Sec. 4: fewer than 2% of paths per second).
package paths

import (
	"fmt"
	"slices"
	"strings"

	"sate/internal/topology"
)

// Path is a loop-free node sequence from source to destination.
type Path struct {
	Nodes []topology.NodeID
}

// NewPath copies the node sequence into a Path.
func NewPath(nodes ...topology.NodeID) Path {
	return Path{Nodes: append([]topology.NodeID(nil), nodes...)}
}

// Src returns the first node.
func (p Path) Src() topology.NodeID { return p.Nodes[0] }

// Dst returns the last node.
func (p Path) Dst() topology.NodeID { return p.Nodes[len(p.Nodes)-1] }

// Hops returns the number of links in the path.
func (p Path) Hops() int { return len(p.Nodes) - 1 }

// Links returns the canonical links traversed by the path.
func (p Path) Links() []topology.Link {
	out := make([]topology.Link, 0, p.Hops())
	for i := 0; i+1 < len(p.Nodes); i++ {
		out = append(out, topology.MakeLink(p.Nodes[i], p.Nodes[i+1], topology.IntraOrbit))
	}
	return out
}

// Key returns a canonical string identity for the path.
func (p Path) Key() string {
	var b strings.Builder
	for i, n := range p.Nodes {
		if i > 0 {
			b.WriteByte('-')
		}
		fmt.Fprintf(&b, "%d", int(n))
	}
	return b.String()
}

// HasLoop reports whether any node repeats.
func (p Path) HasLoop() bool {
	seen := make(map[topology.NodeID]struct{}, len(p.Nodes))
	for _, n := range p.Nodes {
		if _, ok := seen[n]; ok {
			return true
		}
		seen[n] = struct{}{}
	}
	return false
}

// ValidIn reports whether every hop of the path is a live link in the
// snapshot. An obsolete configured path (Fig. 4 b) is one for which this
// returns false.
func (p Path) ValidIn(links map[uint64]topology.Link) bool {
	for i := 0; i+1 < len(p.Nodes); i++ {
		l := topology.MakeLink(p.Nodes[i], p.Nodes[i+1], topology.IntraOrbit)
		if _, ok := links[l.Key()]; !ok {
			return false
		}
	}
	return true
}

// WithinRange reports whether every node of the path lies in [lo, hi). The
// sharded solver uses it to classify a flow as shard-internal: a flow whose
// candidate paths all stay inside one shard's node range never touches
// another shard's links, so it can be solved inside that shard alone.
func (p Path) WithinRange(lo, hi topology.NodeID) bool {
	for _, n := range p.Nodes {
		if n < lo || n >= hi {
			return false
		}
	}
	return true
}

// LengthKm returns the geometric length of the path in a snapshot.
func (p Path) LengthKm(s *topology.Snapshot) float64 {
	var d float64
	for i := 0; i+1 < len(p.Nodes); i++ {
		d += s.Pos[p.Nodes[i]].Distance(s.Pos[p.Nodes[i+1]])
	}
	return d
}

// Concat joins two paths sharing an endpoint: a ends where b begins. It
// returns false if they do not join or the result has a loop.
func Concat(a, b Path) (Path, bool) {
	if len(a.Nodes) == 0 || len(b.Nodes) == 0 || a.Dst() != b.Src() {
		return Path{}, false
	}
	nodes := make([]topology.NodeID, 0, len(a.Nodes)+len(b.Nodes)-1)
	nodes = append(nodes, a.Nodes...)
	nodes = append(nodes, b.Nodes[1:]...)
	p := Path{Nodes: nodes}
	if p.HasLoop() {
		return Path{}, false
	}
	return p, true
}

// Dedup removes duplicate paths (same node sequence), preserving order. The
// comparison is quadratic in the candidate count but allocation-free —
// KShortest calls it with k≈10 candidates on the hot path, where the former
// per-path string keys dominated its cost.
func Dedup(ps []Path) []Path {
	out := ps[:0]
	for _, p := range ps {
		dup := false
		for _, q := range out {
			if slices.Equal(p.Nodes, q.Nodes) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, p)
		}
	}
	return out
}
