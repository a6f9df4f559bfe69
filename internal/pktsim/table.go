package pktsim

import (
	"fmt"

	"sate/internal/rules"
	"sate/internal/te"
	"sate/internal/topology"
)

// Forwarding key encoding: src in bits 40..63, dst in bits 16..39, label in
// bits 0..15. The widths bound what one generation can address; compileGen
// rejects problems outside them.
const (
	maxNodes  = 1 << 24
	maxLabels = 1 << 16
)

func fwdKey(src, dst topology.NodeID, label int) uint64 {
	return uint64(src)<<40 | uint64(dst)<<16 | uint64(uint16(label))
}

// gen is one compiled forwarding generation: per-node flat lookup from
// (src, dst, label) to the outgoing port. It is the engine-side image of a
// rules.RuleSet, flattened so the per-hop lookup is one slice index and one
// map access instead of a linear rule scan.
type gen struct {
	out []map[uint64]int32 // indexed by node; nil for nodes with no rules
}

// noPort is the compiled image of a rule whose link exists in neither
// generation's port set (it left the topology): the packet has nowhere to go.
const noPort = int32(-1)

// compileGen compiles an allocation's rule set into a generation, resolving
// each rule's next hop to its index in the directed-edge table portIdx.
func compileGen(p *te.Problem, a *te.Allocation, numNodes int, portIdx map[uint64]int32) (*gen, error) {
	if p.NumNodes > maxNodes {
		return nil, fmt.Errorf("pktsim: %d nodes exceeds the %d forwarding-key limit", p.NumNodes, maxNodes)
	}
	for fi := range p.Flows {
		if len(p.Flows[fi].Paths) > maxLabels {
			return nil, fmt.Errorf("pktsim: flow %d has %d candidate paths, forwarding keys carry at most %d labels",
				fi, len(p.Flows[fi].Paths), maxLabels)
		}
	}
	rs := rules.Compile(p, a)
	g := &gen{out: make([]map[uint64]int32, numNodes)}
	// Map iteration without a sort is fine here: every write is keyed by the
	// range variable, so the resulting tables are order-independent.
	for node, tbl := range rs.Tables {
		if int(node) >= numNodes {
			return nil, fmt.Errorf("pktsim: rule at node %d outside the %d-node snapshot", node, numNodes)
		}
		m := make(map[uint64]int32, len(tbl.Rules))
		for _, r := range tbl.Rules {
			pi, ok := portIdx[portKey(int32(node), int32(r.Next))]
			if !ok {
				pi = noPort
			}
			m[fwdKey(r.Flow.Src, r.Flow.Dst, r.Label)] = pi
		}
		g.out[node] = m
	}
	return g, nil
}
