// Package ruledist implements the rule-distribution side of the TE workflow
// (Sec. 2.2 step 5 and Appendix D): the propagation-delay model for pushing
// compiled traffic rules from the control center to every satellite
// (delays.go), and a sequence-numbered changelog of published rule sets with
// per-satellite delta computation, catch-up from any version, and compaction
// (this file) — the update protocol the controller serves on
// GET /v1/deltas?since=N.
//
// The changelog is built for one writer (the controller's publish path) and
// many lock-free readers: the entire retained history lives in one immutable
// state value swapped through an atomic pointer, so serving a catch-up never
// takes a lock and never allocates (DESIGN.md §14).
package ruledist

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"sate/internal/par"
	"sate/internal/rules"
	"sate/internal/topology"
)

// RuleID identifies one label-switched rule within a node's flow table: the
// (flow, candidate-path label) pair rules.Compile guarantees unique per node.
type RuleID struct {
	Src   topology.NodeID `json:"src"`
	Dst   topology.NodeID `json:"dst"`
	Label int             `json:"label"`
}

// Upsert is one rule insertion or in-place update at a node; RateMbps is
// the rule's ingress split rate, 0 at a transit hop (rules.Rule).
type Upsert struct {
	Src      topology.NodeID `json:"src"`
	Dst      topology.NodeID `json:"dst"`
	Label    int             `json:"label"`
	Next     topology.NodeID `json:"next"`
	RateMbps float64         `json:"rate_mbps"`
}

// NodeDelta is the rule-table change of one satellite between two
// consecutive changelog versions. A satellite applies exactly its own
// NodeDelta; the controller serves it from GET /v1/deltas?since=N&node=id.
type NodeDelta struct {
	Node    topology.NodeID `json:"node"`
	Upserts []Upsert        `json:"upserts,omitempty"`
	Removes []RuleID        `json:"removes,omitempty"`
}

// Delta is the network-wide change between changelog versions Seq-1 and Seq,
// split per satellite and sorted by node ID for deterministic serialization.
type Delta struct {
	Seq   uint64      `json:"seq"`
	Nodes []NodeDelta `json:"nodes,omitempty"`
}

// Node returns the delta of one satellite (binary search over the sorted
// per-node list), or false when the version step did not touch it.
func (d *Delta) Node(id topology.NodeID) (NodeDelta, bool) {
	i := sort.Search(len(d.Nodes), func(i int) bool { return d.Nodes[i].Node >= id })
	if i < len(d.Nodes) && d.Nodes[i].Node == id {
		return d.Nodes[i], true
	}
	return NodeDelta{}, false
}

// Empty reports whether the version step changed no rules anywhere.
func (d *Delta) Empty() bool { return len(d.Nodes) == 0 }

// sameRate compares two rates bitwise: the changelog must reproduce the
// published allocation exactly, so tolerance-based comparison (which the
// rest of the tree rightly prefers) would make deltas lossy.
func sameRate(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// Diff computes the per-satellite delta turning the old rule set into the
// new one. Either side may be nil (the empty rule set, version 0). The
// result is deterministic: nodes ascending, and within a node the upserts
// and removes follow the tables' (src, dst, label) rule order. Nodes are
// diffed on the par pool, each into its own slot, and the slots with a
// change are kept in node order.
func Diff(old, new *rules.RuleSet) Delta {
	ids := unionNodes(old, new)
	nds := make([]NodeDelta, len(ids))
	par.For(len(ids), par.Grain(len(ids), 16), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			nds[i] = diffNode(ids[i], tableOf(old, ids[i]), tableOf(new, ids[i]))
		}
	})
	var out Delta
	for _, nd := range nds {
		if len(nd.Upserts) > 0 || len(nd.Removes) > 0 {
			out.Nodes = append(out.Nodes, nd)
		}
	}
	return out
}

func tableOf(rs *rules.RuleSet, id topology.NodeID) *rules.Table {
	if rs == nil {
		return nil
	}
	return rs.Tables[id]
}

// unionNodes returns the sorted union of node IDs present in either rule
// set. Map iteration feeds a sort before anything order-dependent happens.
func unionNodes(old, new *rules.RuleSet) []topology.NodeID {
	n := 0
	for _, rs := range [2]*rules.RuleSet{old, new} {
		if rs != nil {
			n += len(rs.Tables)
		}
	}
	ids := make([]topology.NodeID, 0, n)
	for _, rs := range [2]*rules.RuleSet{old, new} {
		if rs == nil {
			continue
		}
		for id := range rs.Tables {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// ruleID extracts a rule's identity.
func ruleID(r rules.Rule) RuleID {
	return RuleID{Src: r.Flow.Src, Dst: r.Flow.Dst, Label: r.Label}
}

// diffNode merge-walks two tables — sorted by rules.CompareKey, the
// rules.Table invariant — producing one node's delta. The first walk only
// counts, so the second appends into slices of exactly the right size.
func diffNode(id topology.NodeID, old, new *rules.Table) NodeDelta {
	var or, nr []rules.Rule
	if old != nil {
		or = old.Rules
	}
	if new != nil {
		nr = new.Rules
	}
	nd := NodeDelta{Node: id}
	ups, rms := mergeWalk(or, nr, nil)
	if ups > 0 {
		nd.Upserts = make([]Upsert, 0, ups)
	}
	if rms > 0 {
		nd.Removes = make([]RuleID, 0, rms)
	}
	mergeWalk(or, nr, &nd)
	return nd
}

// mergeWalk counts the upserts and removes that turn the rules or into nr,
// and appends them to nd unless it is nil.
func mergeWalk(or, nr []rules.Rule, nd *NodeDelta) (ups, rms int) {
	upsert := func(r rules.Rule) {
		ups++
		if nd != nil {
			nd.Upserts = append(nd.Upserts, Upsert{
				Src: r.Flow.Src, Dst: r.Flow.Dst, Label: r.Label,
				Next: r.Next, RateMbps: r.RateMbps,
			})
		}
	}
	i, j := 0, 0
	for i < len(or) || j < len(nr) {
		var c int // which side holds the smaller identity; an exhausted side never does
		switch {
		case j == len(nr):
			c = -1
		case i == len(or):
			c = 1
		default:
			c = rules.CompareKey(or[i], nr[j])
		}
		switch {
		case c < 0:
			rms++
			if nd != nil {
				nd.Removes = append(nd.Removes, ruleID(or[i]))
			}
			i++
		case c > 0:
			upsert(nr[j])
			j++
		default: // same identity: upsert only when payload changed
			if or[i].Next != nr[j].Next || !sameRate(or[i].RateMbps, nr[j].RateMbps) {
				upsert(nr[j])
			}
			i++
			j++
		}
	}
	return ups, rms
}

// Apply returns a new rule set with one delta applied; the input is not
// modified (tables untouched by the delta are shared, touched ones are
// rebuilt). Applying the changelog's deltas in sequence onto the version
// they start from reproduces the latest published rule set bit-identically
// (TestDeltaCatchup).
func Apply(rs *rules.RuleSet, d Delta) *rules.RuleSet {
	out := &rules.RuleSet{Tables: make(map[topology.NodeID]*rules.Table)}
	if rs != nil {
		for id, tbl := range rs.Tables {
			out.Tables[id] = tbl
		}
	}
	for _, nd := range d.Nodes {
		tbl := applyNode(out.Tables[nd.Node], nd)
		if tbl == nil {
			delete(out.Tables, nd.Node)
		} else {
			out.Tables[nd.Node] = tbl
		}
	}
	return out
}

// applyNode merges one node's table with its delta; nil means the table
// ended up empty (rules.Compile never emits empty tables, so neither do we).
// The table, the removes and the upserts are each increasing under
// rules.CompareKey, so one walk over the three builds the new table in order:
// an upsert inserts or replaces (removed or not — upserts apply after
// removes), an old rule survives unless a remove names it.
func applyNode(old *rules.Table, nd NodeDelta) *rules.Table {
	var or []rules.Rule
	if old != nil {
		or = old.Rules
	}
	rem := make([]rules.Rule, len(nd.Removes)) // keys only
	for i, id := range nd.Removes {
		rem[i] = rules.Rule{Flow: rules.FlowKey{Src: id.Src, Dst: id.Dst}, Label: id.Label}
	}
	ups := make([]rules.Rule, len(nd.Upserts))
	for i, u := range nd.Upserts {
		ups[i] = rules.Rule{Flow: rules.FlowKey{Src: u.Src, Dst: u.Dst}, Label: u.Label, Next: u.Next, RateMbps: u.RateMbps}
	}
	rem, ups = ordered(rem), ordered(ups)
	out := make([]rules.Rule, 0, len(or)+len(ups))
	i, j, k := 0, 0, 0
	for i < len(or) || j < len(ups) {
		var c int // which of or[i], ups[j] has the smaller key; an exhausted side never does
		switch {
		case j == len(ups):
			c = -1
		case i == len(or):
			c = 1
		default:
			c = rules.CompareKey(or[i], ups[j])
		}
		if c >= 0 {
			out = append(out, ups[j])
			j++
			if c == 0 {
				i++
			}
			continue
		}
		for k < len(rem) && rules.CompareKey(rem[k], or[i]) < 0 {
			k++
		}
		if k == len(rem) || rules.CompareKey(rem[k], or[i]) != 0 {
			out = append(out, or[i])
		}
		i++
	}
	if len(out) == 0 {
		return nil
	}
	return &rules.Table{Node: nd.Node, Rules: out}
}

// ordered returns rs strictly increasing under rules.CompareKey: as it is when
// it already is — what Diff emits — and otherwise sorted in place (rs is
// applyNode's own copy) with the last of each run of equal keys kept. Deltas
// arrive over HTTP, and a delta in any order, with repeats, means what it
// meant applied entry by entry.
func ordered(rs []rules.Rule) []rules.Rule {
	strict := true
	for i := 1; i < len(rs) && strict; i++ {
		strict = rules.CompareKey(rs[i-1], rs[i]) < 0
	}
	if strict {
		return rs
	}
	slices.SortStableFunc(rs, rules.CompareKey)
	out := rs[:0]
	for i, r := range rs {
		if i+1 == len(rs) || rules.CompareKey(r, rs[i+1]) != 0 {
			out = append(out, r)
		}
	}
	return out
}

// logState is one immutable changelog generation: the full rule set at the
// latest version plus the retained delta window. Readers load it through an
// atomic pointer and never observe a partially updated view.
type logState struct {
	latest uint64
	// floor is the lowest version catch-up can serve deltas from: deltas
	// holds versions floor+1 .. latest. Clients older than floor resync.
	floor  uint64
	full   *rules.RuleSet
	deltas []Delta
}

// Changelog is the sequence-numbered history of published rule sets.
// Version 0 is the empty rule set; Append publishes version latest+1.
// One writer (the controller publish path, already serialized on its cycle
// mutex) and any number of lock-free readers.
type Changelog struct {
	mu    sync.Mutex
	max   int
	state atomic.Pointer[logState]
}

// DefaultHistory is the delta window kept before compaction when
// NewChangelog is given a non-positive cap.
const DefaultHistory = 64

// NewChangelog creates an empty changelog retaining at most maxEntries
// deltas (<= 0 selects DefaultHistory). Older versions are compacted away:
// a client behind the window gets a full resync instead of deltas.
func NewChangelog(maxEntries int) *Changelog {
	if maxEntries <= 0 {
		maxEntries = DefaultHistory
	}
	return &Changelog{max: maxEntries}
}

// Append publishes a new rule set, returning its version. The rule set must
// not be mutated afterwards (the controller's copy-on-publish snapshots
// already guarantee this). The delta against the previous version is
// computed here, once, so serving any number of catch-ups costs nothing.
func (c *Changelog) Append(rs *rules.RuleSet) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.state.Load()
	var prev *rules.RuleSet
	next := &logState{latest: 1}
	if old != nil {
		prev = old.full
		next.latest = old.latest + 1
		next.floor = old.floor
		// Fresh backing array every generation: readers hold slices into
		// the old one, which must stay immutable.
		next.deltas = make([]Delta, len(old.deltas), len(old.deltas)+1)
		copy(next.deltas, old.deltas)
	}
	d := Diff(prev, rs)
	d.Seq = next.latest
	next.full = rs
	next.deltas = append(next.deltas, d)
	if drop := len(next.deltas) - c.max; drop > 0 {
		next.deltas = next.deltas[drop:]
		next.floor += uint64(drop)
	}
	c.state.Store(next)
	return next.latest
}

// Latest returns the newest published version (0 before the first Append).
func (c *Changelog) Latest() uint64 {
	st := c.state.Load()
	if st == nil {
		return 0
	}
	return st.latest
}

// Floor returns the oldest version catch-up can serve deltas from.
func (c *Changelog) Floor() uint64 {
	st := c.state.Load()
	if st == nil {
		return 0
	}
	return st.floor
}

// CatchUp is the answer to "I have version Since; bring me to Latest".
// Either Deltas carries the versions Since+1 .. Latest to apply in order,
// or FullSync is set and Full is the complete latest rule set: the client
// predates the retained window, asked from the empty version 0 after
// compaction already discarded it, or holds a version this changelog never
// published (Since > Latest: it was served by an earlier incarnation, so
// its rules are not a base any retained delta applies to).
type CatchUp struct {
	Since    uint64
	Latest   uint64
	FullSync bool
	Full     *rules.RuleSet
	Deltas   []Delta
}

// UpToDate reports whether the client already has the latest version.
func (cu *CatchUp) UpToDate() bool { return cu.Since == cu.Latest }

// Since computes the catch-up for a client at the given version: a slice
// into the immutable retained window (no copying, no locks, no allocation),
// or a full resync when the version has been compacted away or lies beyond
// latest (a client of a discarded changelog: answering "up to date" would
// leave it on the old incarnation's rules until latest passed its cursor,
// and then apply deltas onto the wrong base).
func (c *Changelog) Since(since uint64) CatchUp {
	st := c.state.Load()
	if st == nil {
		// Nothing published: only the empty version 0 is current.
		return CatchUp{Since: since, FullSync: since > 0}
	}
	cu := CatchUp{Since: since, Latest: st.latest}
	if since == st.latest {
		return cu
	}
	if since < st.floor || since > st.latest {
		cu.FullSync = true
		cu.Full = st.full
		return cu
	}
	cu.Deltas = st.deltas[since-st.floor:]
	return cu
}

// Full returns the complete rule set at the latest version (nil before the
// first Append).
func (c *Changelog) Full() *rules.RuleSet {
	st := c.state.Load()
	if st == nil {
		return nil
	}
	return st.full
}
