// Package topology generates and analyses satellite network topologies: the
// inter-satellite link (ISL) structure of Sec. 2.1/2.3.1, time-series
// snapshots, topology-holding-time (THT) analysis, configured-path
// obsolescence, link-exclusion accounting, and failure injection.
//
// Link formation rules follow the paper:
//
//   - Intra-shell +Grid: each satellite links to its two intra-orbit
//     neighbours (stable) and two inter-orbit neighbours; inter-orbit links
//     deactivate above 75 degrees latitude.
//   - Cross-shell lasers: each satellite links to the nearest satellite in
//     the adjacent shell while their distance is at most 2000 km.
//   - Cross-shell ground relays ("bent-pipe"): each satellite links to the
//     nearest ground relay while its elevation is at least 25 degrees; the
//     relay is a network node (Sec. 3.2: graph nodes include ground relays).
package topology

import (
	"fmt"
	"sort"

	"sate/internal/orbit"
)

// NodeID identifies a network node: satellites occupy [0, NumSats), ground
// relays (bent-pipe mode) occupy [NumSats, NumSats+NumRelays).
type NodeID int

// LinkKind classifies how a link forms; the kinds have different stability.
type LinkKind uint8

const (
	// IntraOrbit links connect consecutive satellites in one orbital plane.
	IntraOrbit LinkKind = iota
	// InterOrbit links connect satellites of adjacent planes in one shell.
	InterOrbit
	// CrossShellLaser links connect satellites of adjacent shells directly.
	CrossShellLaser
	// GroundRelayLink connects a satellite to a ground relay (bent-pipe).
	GroundRelayLink
)

func (k LinkKind) String() string {
	switch k {
	case IntraOrbit:
		return "intra-orbit"
	case InterOrbit:
		return "inter-orbit"
	case CrossShellLaser:
		return "cross-shell-laser"
	case GroundRelayLink:
		return "ground-relay"
	default:
		return fmt.Sprintf("LinkKind(%d)", uint8(k))
	}
}

// Link is an undirected edge between two nodes. A and B are stored with
// A < B so that a link compares and hashes canonically.
type Link struct {
	A, B NodeID
	Kind LinkKind
}

// MakeLink builds a canonical link (endpoints ordered).
func MakeLink(a, b NodeID, kind LinkKind) Link {
	if a > b {
		a, b = b, a
	}
	return Link{A: a, B: b, Kind: kind}
}

// Key encodes the endpoint pair into a single comparable value: the one
// spelling of the canonical link key every per-link map in the repo uses.
func (l Link) Key() uint64 { return uint64(l.A)<<32 | uint64(uint32(l.B)) }

// hash returns a mixed 64-bit hash of the endpoint pair, used for
// order-independent snapshot fingerprints.
func (l Link) hash() uint64 {
	x := l.Key()
	// SplitMix64 finalizer: excellent avalanche for XOR-combining.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Snapshot is the topology at one instant: the node universe, the live link
// set, node positions, and a fingerprint for fast equality tests.
type Snapshot struct {
	TimeSec  float64
	NumSats  int
	NumNodes int // sats + relays
	Links    []Link
	Pos      []orbit.Vec3 // indexed by NodeID; relays included in bent-pipe mode

	fp fingerprint
}

// fingerprint is an order-independent digest of a link set.
type fingerprint struct {
	xor   uint64
	sum   uint64
	count int
}

func fingerprintOf(links []Link) fingerprint {
	var f fingerprint
	for _, l := range links {
		h := l.hash()
		f.xor ^= h
		f.sum += h
		f.count++
	}
	return f
}

// Finalize computes the snapshot fingerprint; generators call it after
// assembling Links.
func (s *Snapshot) Finalize() { s.fp = fingerprintOf(s.Links) }

// SameTopology reports whether two snapshots have identical link sets.
// It compares fingerprints: collisions are astronomically unlikely
// (order-independent 64-bit XOR + 64-bit sum + count).
func (s *Snapshot) SameTopology(o *Snapshot) bool { return s.fp == o.fp }

// LinkSet is a membership set of links keyed by endpoint pair. Membership is
// kind-agnostic by construction: the key encodes only the canonicalised
// endpoints, so Has(a, b) answers "is there a live link between a and b"
// regardless of which LinkKind either side was built with. Consumers that
// need the kind read it from the stored Link value.
type LinkSet map[uint64]Link

// Add inserts a link (last writer wins on the stored Kind).
func (m LinkSet) Add(l Link) { m[l.Key()] = l }

// Has reports whether a live link connects a and b, in either endpoint order
// and irrespective of LinkKind.
func (m LinkSet) Has(a, b NodeID) bool {
	if a > b {
		a, b = b, a
	}
	_, ok := m[Link{A: a, B: b}.Key()]
	return ok
}

// LinkSet returns the links as a set keyed by endpoint pair.
func (s *Snapshot) LinkSet() LinkSet {
	m := make(LinkSet, len(s.Links))
	for _, l := range s.Links {
		m.Add(l)
	}
	return m
}

// Adjacency builds an adjacency list over all nodes.
func (s *Snapshot) Adjacency() [][]NodeID {
	adj := make([][]NodeID, s.NumNodes)
	for _, l := range s.Links {
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	return adj
}

// Degrees returns the degree of every node.
func (s *Snapshot) Degrees() []int {
	deg := make([]int, s.NumNodes)
	for _, l := range s.Links {
		deg[l.A]++
		deg[l.B]++
	}
	return deg
}

// LinkLengthKm returns the Euclidean length of a link in this snapshot.
func (s *Snapshot) LinkLengthKm(l Link) float64 {
	return s.Pos[l.A].Distance(s.Pos[l.B])
}

// Diff returns the links added and removed going from s to o.
func (s *Snapshot) Diff(o *Snapshot) (added, removed []Link) {
	mine := s.LinkSet()
	theirs := o.LinkSet()
	for k, l := range theirs {
		if _, ok := mine[k]; !ok {
			added = append(added, l)
		}
	}
	for k, l := range mine {
		if _, ok := theirs[k]; !ok {
			removed = append(removed, l)
		}
	}
	sortLinks(added)
	sortLinks(removed)
	return added, removed
}

func sortLinks(ls []Link) {
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key() < ls[j].Key() })
}

// ConnectedComponents returns the number of connected components among
// satellite nodes (relays included if present).
func (s *Snapshot) ConnectedComponents() int {
	adj := s.Adjacency()
	seen := make([]bool, s.NumNodes)
	var stack []NodeID
	n := 0
	for start := 0; start < s.NumNodes; start++ {
		if seen[start] {
			continue
		}
		n++
		seen[start] = true
		stack = append(stack[:0], NodeID(start))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
	}
	return n
}
