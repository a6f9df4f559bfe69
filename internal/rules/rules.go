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
// Verify walks the rule tables from every flow's source and checks that each
// label delivers exactly its allocated rate — how a control center validates
// compiled rules before distribution.
package rules

import (
	"fmt"
	"sort"

	"sate/internal/te"
	"sate/internal/topology"
)

// FlowKey identifies a flow: the source/destination satellite pair of the
// aggregated demand.
type FlowKey struct {
	Src, Dst topology.NodeID
}

// Rule is one label-switched flow-table entry at one node: traffic of Flow
// carrying Label (the candidate-path index) is forwarded to Next at
// RateMbps.
type Rule struct {
	Flow     FlowKey
	Label    int // candidate-path index within the flow
	Next     topology.NodeID
	RateMbps float64
}

// Table is a per-node flow table, sorted for deterministic serialization.
type Table struct {
	Node  topology.NodeID
	Rules []Rule
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
// hop of every path with non-zero allocation becomes one rule.
func Compile(p *te.Problem, a *te.Allocation) *RuleSet {
	rs := &RuleSet{Tables: make(map[topology.NodeID]*Table)}
	for fi := range p.Flows {
		f := &p.Flows[fi]
		key := FlowKey{Src: f.Src, Dst: f.Dst}
		for pi, path := range f.Paths {
			rate := a.X[fi][pi]
			if rate <= 0 {
				continue
			}
			for h := 0; h+1 < len(path.Nodes); h++ {
				node, next := path.Nodes[h], path.Nodes[h+1]
				tbl := rs.Tables[node]
				if tbl == nil {
					tbl = &Table{Node: node}
					rs.Tables[node] = tbl
				}
				tbl.Rules = append(tbl.Rules, Rule{
					Flow: key, Label: pi, Next: next, RateMbps: rate,
				})
			}
		}
	}
	for _, tbl := range rs.Tables {
		sort.Slice(tbl.Rules, func(i, j int) bool {
			a, b := tbl.Rules[i], tbl.Rules[j]
			if a.Flow.Src != b.Flow.Src {
				return a.Flow.Src < b.Flow.Src
			}
			if a.Flow.Dst != b.Flow.Dst {
				return a.Flow.Dst < b.Flow.Dst
			}
			return a.Label < b.Label
		})
	}
	return rs
}

// lookup finds the rule for (flow, label) at a node.
func (rs *RuleSet) lookup(node topology.NodeID, key FlowKey, label int) (Rule, bool) {
	tbl := rs.Tables[node]
	if tbl == nil {
		return Rule{}, false
	}
	for _, r := range tbl.Rules {
		if r.Flow == key && r.Label == label {
			return r, true
		}
	}
	return Rule{}, false
}

// Verify walks every allocated (flow, path) label from its source hop by hop
// and checks that the rules forward it along the configured path at exactly
// the allocated rate, terminating at the destination. It returns the first
// inconsistency found.
func Verify(p *te.Problem, a *te.Allocation, rs *RuleSet) error {
	const tol = 1e-6
	const maxHops = 1 << 16 // loop guard
	for fi := range p.Flows {
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
				r, ok := rs.lookup(node, key, pi)
				if !ok {
					return fmt.Errorf("rules: flow %d->%d label %d: no rule at node %d",
						f.Src, f.Dst, pi, node)
				}
				if diff := r.RateMbps - rate; diff > tol || diff < -tol {
					return fmt.Errorf("rules: flow %d->%d label %d at node %d: rate %.6f, allocated %.6f",
						f.Src, f.Dst, pi, node, r.RateMbps, rate)
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
	}
	return nil
}

// LinkLoadsFromRules recomputes per-link loads by summing rule rates over
// links — an independent cross-check against te.Problem.LinkLoads.
func LinkLoadsFromRules(p *te.Problem, rs *RuleSet) map[uint64]float64 {
	loads := make(map[uint64]float64)
	// Visit tables in sorted node order: the per-link float sums must not
	// depend on map iteration order or the cross-check itself becomes a
	// source of run-to-run jitter.
	nodes := make([]topology.NodeID, 0, len(rs.Tables))
	for node := range rs.Tables {
		nodes = append(nodes, node)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, node := range nodes {
		tbl := rs.Tables[node]
		for _, r := range tbl.Rules {
			l := topology.MakeLink(tbl.Node, r.Next, topology.IntraOrbit)
			loads[l.Key()] += r.RateMbps
		}
	}
	return loads
}
