// Package rules implements step 4 of the TE workflow (Sec. 2.2): converting
// a computed traffic allocation into per-satellite traffic rules, the form
// onboard switches load into their flow tables.
//
// Rules are label-switched, one per (flow, candidate path) at each hop — the
// MPLS-style forwarding the paper assumes for preconfigured paths (Sec. 2.2:
// "configure these paths with techniques like MPLS labels"); the total rule
// count is the m*k*E_l of Appendix D. Label switching is required for
// correctness: two candidate paths of one flow may traverse the same link in
// opposite directions, so destination-based merging at nodes would loop.
//
// Only a flow's ingress splits its traffic across labels, so only the rule
// at a path's first hop carries a rate: the path's allocated rate. A transit
// rule maps (flow, label) to the next hop and carries rate 0, so it changes
// only when its path does, and a cycle whose rates drift rewrites only the
// ingress rules.
//
// Verify walks the rule tables from every flow's source and checks that each
// label is split off at its ingress at exactly its allocated rate and
// forwarded along its path — how a control center validates compiled rules
// before distribution.
package rules

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"sate/internal/par"
	"sate/internal/te"
	"sate/internal/topology"
)

// FlowKey identifies a flow: the source/destination satellite pair of the
// aggregated demand.
type FlowKey struct {
	Src, Dst topology.NodeID
}

// Rule is one label-switched flow-table entry at one node: traffic of Flow
// carrying Label (the candidate-path index) is forwarded to Next. RateMbps
// is the ingress split rate: at the flow's source (Flow.Src) the rate the
// label gets of the flow's traffic, and 0 at every transit hop, which only
// forwards what the ingress sent.
type Rule struct {
	Flow     FlowKey
	Label    int // candidate-path index within the flow
	Next     topology.NodeID
	RateMbps float64 // the label's rate at the ingress, 0 at transit hops
}

// Table is a per-node flow table. Invariant: Rules is strictly increasing
// under CompareKey — sorted by (Flow.Src, Flow.Dst, Label), one rule per key.
// Compile and ruledist.Apply produce it that way; serialization is
// deterministic because of it, ruledist.Diff merge-walks it, Verify's lookup
// searches it, and Verify reports a table that breaks it.
type Table struct {
	Node  topology.NodeID
	Rules []Rule
}

// CompareKey orders rules by identity — (Flow.Src, Flow.Dst, Label) — the
// order of Table.Rules.
func CompareKey(a, b Rule) int {
	if a.Flow == b.Flow {
		return cmp.Compare(a.Label, b.Label)
	}
	if a.Flow.Src < b.Flow.Src || a.Flow.Src == b.Flow.Src && a.Flow.Dst < b.Flow.Dst {
		return -1
	}
	return 1
}

// RuleSet is the compiled network-wide configuration.
type RuleSet struct {
	Tables map[topology.NodeID]*Table
}

// NumRules returns the total rule count across all nodes — the m*k*E_l
// quantity whose distribution overhead Appendix D bounds.
func (rs *RuleSet) NumRules() int {
	n := 0
	for _, t := range rs.Tables {
		n += len(t.Rules)
	}
	return n
}

// Compile converts an allocation into per-node label-switched rules: every
// hop of every path with non-zero allocation becomes one rule. The path's
// first hop carries its allocated rate and every later hop rate 0.
//
// Flows are visited in (Src, Dst) order and each flow's paths in label
// order, so every table receives its rules already in CompareKey order and
// none is sorted. A counting pass sizes each node's table in a dense
// per-node array, and all tables are laid out in one backing slice, each
// capped at its own length so that no table can append into its neighbour.
func Compile(p *te.Problem, a *te.Allocation) *RuleSet {
	order := make([]int, len(p.Flows))
	for fi := range order {
		order[fi] = fi
	}
	slices.SortFunc(order, func(i, j int) int {
		fi, fj := &p.Flows[i], &p.Flows[j]
		if c := cmp.Compare(fi.Src, fj.Src); c != 0 {
			return c
		}
		if c := cmp.Compare(fi.Dst, fj.Dst); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})

	// end[n] first counts node n's rules, then holds the offset its table
	// starts at and serves as the table's fill cursor, so after the fill it
	// is where the table ends.
	end := make([]int, p.NumNodes)
	for fi := range p.Flows {
		for pi, path := range p.Flows[fi].Paths {
			if a.X[fi][pi] <= 0 {
				continue
			}
			for h := 0; h+1 < len(path.Nodes); h++ {
				node := path.Nodes[h]
				if int(node) >= len(end) {
					end = append(end, make([]int, int(node)+1-len(end))...)
				}
				end[node]++
			}
		}
	}
	total, tables := 0, 0
	for n, c := range end {
		end[n] = total
		total += c
		if c > 0 {
			tables++
		}
	}
	all := make([]Rule, total)
	for _, fi := range order {
		f := &p.Flows[fi]
		key := FlowKey{Src: f.Src, Dst: f.Dst}
		for pi, path := range f.Paths {
			rate := a.X[fi][pi]
			if rate <= 0 {
				continue
			}
			for h := 0; h+1 < len(path.Nodes); h++ {
				node := path.Nodes[h]
				all[end[node]] = Rule{Flow: key, Label: pi, Next: path.Nodes[h+1], RateMbps: rate}
				end[node]++
				rate = 0
			}
		}
	}

	rs := &RuleSet{Tables: make(map[topology.NodeID]*Table, tables)}
	slab := make([]Table, 0, tables)
	start := 0
	for n, e := range end {
		if e > start {
			slab = append(slab, Table{Node: topology.NodeID(n), Rules: all[start:e:e]})
			rs.Tables[topology.NodeID(n)] = &slab[len(slab)-1]
		}
		start = e
	}
	return rs
}

// verifier finds Verify's rules. The tables of the problem's nodes are
// indexed by node, and at[n] is where the rule found last at node n sits:
// the walks of one chunk of flows in (src, dst) order — the order te.Build
// keeps the traffic matrix's — reach each node's rules in table order, so
// the next one is at or just past it. Nodes outside the problem are looked
// up in the map.
type verifier struct {
	rs     *RuleSet
	tables []*Table // by node, for nodes 0..NumNodes-1
	at     []int    // by node: index of the rule found last
}

// lookup finds the rule for (flow, label) at a node.
func (v *verifier) lookup(node topology.NodeID, key FlowKey, label int) (*Rule, bool) {
	inside := node >= 0 && int(node) < len(v.tables)
	var tbl *Table
	from := 0
	if inside {
		tbl, from = v.tables[node], v.at[node]
	} else {
		tbl = v.rs.Tables[node]
	}
	if tbl == nil {
		return nil, false
	}
	r := tbl.Rules
	i := search(r, from, key, label)
	if i == len(r) || r[i].Flow != key || r[i].Label != label {
		return nil, false
	}
	if inside {
		v.at[node] = i
	}
	return &r[i], true
}

// search returns the index of the first rule of r whose key is not below
// (key, label), which the Table order invariant licenses (Verify checks it
// first). from is a guess: a key past r[from] is found by galloping forward
// from it, any other lies at or before from and is bisected there. The
// probes read the rules in place; a probe
// through slices.BinarySearchFunc passes two 40-byte rules by value through a
// func value and measured slower than a linear scan at ~20 rules per table.
func search(r []Rule, from int, key FlowKey, label int) int {
	below := func(i int) bool {
		m := &r[i]
		return m.Flow.Src < key.Src || m.Flow.Src == key.Src &&
			(m.Flow.Dst < key.Dst || m.Flow.Dst == key.Dst && m.Label < label)
	}
	lo, hi := 0, min(from, len(r))
	if from < len(r) && below(from) {
		lo = from + 1
		for step := 1; ; step *= 2 {
			if i := lo + step - 1; i >= len(r) || !below(i) {
				hi = min(i, len(r))
				break
			}
			lo += step
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if below(mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// checkOrder reports the lowest-numbered node whose table breaks the Table
// order invariant (lowest so the error does not depend on map order).
// tables holds the problem's nodes by index and outside the tables of nodes
// outside it, which lie below or above all of them.
func checkOrder(tables, outside []*Table) error {
	var bad *Table
	for _, tbl := range tables {
		if tbl != nil && !strictlySorted(tbl.Rules) {
			bad = tbl
			break
		}
	}
	for _, tbl := range outside {
		if (bad == nil || tbl.Node < bad.Node) && !strictlySorted(tbl.Rules) {
			bad = tbl
		}
	}
	if bad != nil {
		return fmt.Errorf("rules: table at node %d is not strictly sorted by (src, dst, label)", bad.Node)
	}
	return nil
}

// strictlySorted reports whether r is strictly increasing under CompareKey.
func strictlySorted(r []Rule) bool {
	for i := 1; i < len(r); i++ {
		if CompareKey(r[i-1], r[i]) >= 0 {
			return false
		}
	}
	return true
}

// Verify walks every allocated (flow, path) label from its source hop by hop
// and checks that the rules forward it along the configured path,
// terminating at the destination, with exactly the allocated rate at the
// ingress and rate 0 at every transit hop. It returns the first
// inconsistency found; a table out of order is one (a lookup in it could miss
// a rule that is there). Flows are walked in chunks on the par pool; the
// lowest failing chunk holds the lowest failing flow, so the error is the
// one a walk in flow order meets first, at every worker count.
func Verify(p *te.Problem, a *te.Allocation, rs *RuleSet) error {
	tables := make([]*Table, max(p.NumNodes, 0))
	var outside []*Table
	for id, t := range rs.Tables {
		if id >= 0 && int(id) < len(tables) {
			tables[id] = t
		} else {
			outside = append(outside, t)
		}
	}
	if err := checkOrder(tables, outside); err != nil {
		return err
	}
	return par.ForErr(len(p.Flows), par.Grain(len(p.Flows), 32), func(lo, hi int) error {
		v := verifier{rs: rs, tables: tables, at: make([]int, len(tables))}
		for fi := lo; fi < hi; fi++ {
			if err := verifyFlow(p, a, &v, fi); err != nil {
				return err
			}
		}
		return nil
	})
}

// verifyFlow is Verify's walk of flow fi's allocated labels.
func verifyFlow(p *te.Problem, a *te.Allocation, v *verifier, fi int) error {
	const tol = 1e-6
	const maxHops = 1 << 16 // loop guard
	f := &p.Flows[fi]
	key := FlowKey{Src: f.Src, Dst: f.Dst}
	for pi := range f.Paths {
		rate := a.X[fi][pi]
		if rate <= 0 {
			continue
		}
		node := f.Src
		hops := 0
		for node != f.Dst {
			r, ok := v.lookup(node, key, pi)
			if !ok {
				return fmt.Errorf("rules: flow %d->%d label %d: no rule at node %d",
					f.Src, f.Dst, pi, node)
			}
			if hops == 0 {
				// Written so a NaN difference fails too: a NaN or infinite
				// rate (Inf - Inf is NaN) is no rate a switch can install.
				if diff := r.RateMbps - rate; !(math.Abs(diff) <= tol) {
					return fmt.Errorf("rules: flow %d->%d label %d at node %d: rate %.6f, allocated %.6f",
						f.Src, f.Dst, pi, node, r.RateMbps, rate)
				}
			} else if r.RateMbps != 0 {
				return fmt.Errorf("rules: flow %d->%d label %d at transit node %d: rate %.6f, want 0",
					f.Src, f.Dst, pi, node, r.RateMbps)
			}
			node = r.Next
			if hops++; hops > maxHops {
				return fmt.Errorf("rules: flow %d->%d label %d: forwarding loop", f.Src, f.Dst, pi)
			}
		}
		// The rules must also trace the configured path exactly.
		if hops != f.Paths[pi].Hops() {
			return fmt.Errorf("rules: flow %d->%d label %d: %d hops, path has %d",
				f.Src, f.Dst, pi, hops, f.Paths[pi].Hops())
		}
	}
	return nil
}

// LinkLoadsFromRules recomputes per-link loads from the rules alone — an
// independent cross-check against te.Problem.LinkLoads. Each rule loads the
// link to its next hop with its label's ingress rate: its own rate at the
// flow's source, and at a transit hop the rate of the label's rule at the
// source (none, if that rule is missing).
func LinkLoadsFromRules(p *te.Problem, rs *RuleSet) map[uint64]float64 {
	loads := make(map[uint64]float64)
	// Visit tables in sorted node order: the per-link float sums must not
	// depend on map iteration order or the cross-check itself becomes a
	// source of run-to-run jitter.
	nodes := make([]topology.NodeID, 0, len(rs.Tables))
	for node := range rs.Tables {
		nodes = append(nodes, node)
	}
	slices.Sort(nodes)
	for _, node := range nodes {
		tbl := rs.Tables[node]
		for _, r := range tbl.Rules {
			rate := r.RateMbps
			if r.Flow.Src != tbl.Node {
				rate = 0
				if src := rs.Tables[r.Flow.Src]; src != nil {
					if i, ok := slices.BinarySearchFunc(src.Rules, r, CompareKey); ok {
						rate = src.Rules[i].RateMbps
					}
				}
			}
			l := topology.MakeLink(tbl.Node, r.Next, topology.IntraOrbit)
			loads[l.Key()] += rate
		}
	}
	return loads
}
