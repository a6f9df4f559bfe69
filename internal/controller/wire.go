package controller

import (
	"math"
	"slices"
	"strconv"

	"sate/internal/ruledist"
	"sate/internal/rules"
	"sate/internal/topology"
)

// The rule payloads — /v1/rules with and without ?node= and every /v1/deltas
// body — are written by the appender below, never by reflection. Its output
// is byte for byte what encoding/json writes for RulesResponse, []RuleEntry
// and DeltasResponse, trailing newline included, and encoding/json remains
// the oracle the tests and FuzzRuleWire compare against. A RuleEntry and a
// ruledist.Upsert have the same fields in the same order, so one rule has one
// text wherever it appears; publish writes every rule of a new rule set once
// and copies the bytes of the cycle's upserts from there (encodeRules).

// encodeFailed is the body served in place of a payload that cannot be
// encoded (a NaN or infinite rate): what mustJSON serves for the same value.
var encodeFailed = []byte(`{"error":"encode failed"}` + "\n")

// ruleBytes is about the encoded size of one rule, for sizing buffers.
const ruleBytes = 72

// wire appends rule payloads to b.
type wire struct {
	b   []byte
	bad bool // a non-finite rate was written: the payload is unencodable
}

func (w *wire) raw(s string) { w.b = append(w.b, s...) }

func (w *wire) uint(v uint64) { w.b = strconv.AppendUint(w.b, v, 10) }

func (w *wire) int(v int) { w.b = strconv.AppendInt(w.b, int64(v), 10) }

// float writes f as encoding/json does: the shortest round-trip decimal, in
// exponent form below 1e-6 and from 1e21 on, with a two-digit negative
// exponent shortened to one (e-09 → e-9). encoding/json refuses NaN and ±Inf;
// so does float, by marking the payload bad.
func (w *wire) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		w.bad = true
		return
	}
	fmt := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		fmt = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, fmt, -1, 64)
	if fmt == 'e' {
		if n := len(w.b); n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
	}
}

// rule writes one RuleEntry (equally, one ruledist.Upsert).
func (w *wire) rule(src, dst topology.NodeID, label int, next topology.NodeID, rate float64) {
	w.raw(`{"src":`)
	w.int(int(src))
	w.raw(`,"dst":`)
	w.int(int(dst))
	w.raw(`,"label":`)
	w.int(label)
	w.raw(`,"next":`)
	w.int(int(next))
	w.raw(`,"rate_mbps":`)
	w.float(rate)
	w.b = append(w.b, '}')
}

// table writes one node's flow table as a []RuleEntry array; ends, when not
// nil, gets the end offset in b of every rule appended, in table order.
func (w *wire) table(tbl *rules.Table, ends []int) []int {
	w.b = append(w.b, '[')
	if tbl != nil {
		for i, r := range tbl.Rules {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.rule(r.Flow.Src, r.Flow.Dst, r.Label, r.Next, r.RateMbps)
			if ends != nil {
				ends = append(ends, len(w.b))
			}
		}
	}
	w.b = append(w.b, ']')
	return ends
}

// nodeRulesOpen writes a NodeRules object up to its rules array.
func (w *wire) nodeRulesOpen(id topology.NodeID) {
	w.raw(`{"node":`)
	w.int(int(id))
	w.raw(`,"rules":`)
}

// tables writes the tables of rs at ids as a []NodeRules array.
func (w *wire) tables(rs *rules.RuleSet, ids []topology.NodeID) {
	w.b = append(w.b, '[')
	for i, id := range ids {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.nodeRulesOpen(id)
		w.table(rs.Tables[id], nil)
		w.b = append(w.b, '}')
	}
	w.b = append(w.b, ']')
}

// sortedNodes returns the nodes that have a table in rs, ascending; with
// node >= 0 only that node, if it has one.
func sortedNodes(rs *rules.RuleSet, node int) []topology.NodeID {
	if rs == nil {
		return nil
	}
	if node >= 0 {
		if rs.Tables[topology.NodeID(node)] == nil {
			return nil
		}
		return []topology.NodeID{topology.NodeID(node)}
	}
	ids := make([]topology.NodeID, 0, len(rs.Tables))
	for id := range rs.Tables {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// nodeDelta writes one ruledist.NodeDelta. tbl, src, first and ends, when tbl
// is not nil, describe bytes already written for the node's table in the new
// rule set: rule i of tbl is src[first:ends[0]] for i = 0 and
// src[ends[i-1]+1:ends[i]] after it (one comma apart). An upsert that equals
// a rule of tbl is copied from there; any other is encoded. Upserts in table
// order — what ruledist.Diff emits — are found by one forward walk.
func (w *wire) nodeDelta(nd *ruledist.NodeDelta, tbl *rules.Table, src []byte, first int, ends []int) {
	w.raw(`{"node":`)
	w.int(int(nd.Node))
	if len(nd.Upserts) > 0 {
		w.raw(`,"upserts":[`)
		j := 0
		for i := range nd.Upserts {
			u := &nd.Upserts[i]
			if i > 0 {
				w.b = append(w.b, ',')
			}
			if tbl != nil {
				key := rules.Rule{Flow: rules.FlowKey{Src: u.Src, Dst: u.Dst}, Label: u.Label}
				for j < len(tbl.Rules) && rules.CompareKey(tbl.Rules[j], key) < 0 {
					j++
				}
				if j < len(tbl.Rules) {
					if r := &tbl.Rules[j]; rules.CompareKey(*r, key) == 0 && r.Next == u.Next &&
						math.Float64bits(r.RateMbps) == math.Float64bits(u.RateMbps) {
						lo := first
						if j > 0 {
							lo = ends[j-1] + 1
						}
						w.b = append(w.b, src[lo:ends[j]]...)
						continue
					}
				}
			}
			w.rule(u.Src, u.Dst, u.Label, u.Next, u.RateMbps)
		}
		w.b = append(w.b, ']')
	}
	if len(nd.Removes) > 0 {
		w.raw(`,"removes":[`)
		for i, id := range nd.Removes {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.raw(`{"src":`)
			w.int(int(id.Src))
			w.raw(`,"dst":`)
			w.int(int(id.Dst))
			w.raw(`,"label":`)
			w.int(id.Label)
			w.b = append(w.b, '}')
		}
		w.b = append(w.b, ']')
	}
	w.b = append(w.b, '}')
}

// delta writes one ruledist.Delta; with node >= 0 only that node's part.
func (w *wire) delta(d *ruledist.Delta, node int) {
	w.raw(`{"seq":`)
	w.uint(d.Seq)
	nodes := d.Nodes
	if node >= 0 {
		nodes = nil
		if nd, ok := d.Node(topology.NodeID(node)); ok {
			nodes = []ruledist.NodeDelta{nd}
		}
	}
	if len(nodes) > 0 {
		w.raw(`,"nodes":[`)
		for i := range nodes {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.nodeDelta(&nodes[i], nil, nil, 0, nil)
		}
		w.b = append(w.b, ']')
	}
	w.b = append(w.b, '}')
}

// deltasOpen writes a DeltasResponse up to its full or deltas field.
func (w *wire) deltasOpen(since, latest uint64) {
	w.raw(`{"since":`)
	w.uint(since)
	w.raw(`,"latest":`)
	w.uint(latest)
}

// body closes the payload with encoding/json's trailing newline, or returns
// the encode-failed fallback when a rate could not be encoded.
func (w *wire) body() []byte {
	if w.bad {
		return encodeFailed
	}
	return append(w.b, '\n')
}

// nodeRulesBody is the GET /v1/rules?node= body: the node's table as a
// []RuleEntry array, [] for a node without one.
func nodeRulesBody(tbl *rules.Table) (body []byte, ok bool) {
	w := wire{}
	if tbl != nil {
		w.b = make([]byte, 0, 4+len(tbl.Rules)*ruleBytes)
	}
	w.table(tbl, nil)
	return w.body(), !w.bad
}

// deltasBody is the GET /v1/deltas body of a catch-up, filtered to one
// node's table when node >= 0: the DeltasResponse handleDeltas serves.
func deltasBody(cu *ruledist.CatchUp, node int) (body []byte, ok bool) {
	w := wire{}
	w.deltasOpen(cu.Since, cu.Latest)
	switch {
	case cu.FullSync:
		w.raw(`,"full_sync":true`)
		if ids := sortedNodes(cu.Full, node); len(ids) > 0 {
			w.raw(`,"full":`)
			w.tables(cu.Full, ids)
		}
	case len(cu.Deltas) > 0:
		w.raw(`,"deltas":[`)
		for i := range cu.Deltas {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.delta(&cu.Deltas[i], node)
		}
		w.b = append(w.b, ']')
	}
	w.b = append(w.b, '}')
	return w.body(), !w.bad
}

// encodeRules writes the rule payloads of one publish: the full /v1/rules
// body of rs at version, and the JSON object of d, the delta that produced
// rs, which a GET /v1/deltas?since=version-1 serves between a header and a
// footer (cachedDeltasHead). Every rule of rs is encoded once, tables in
// ascending node order; d's upserts are copied from those bytes by a merge
// walk, and its removes are three ints each. A rule set with an unencodable
// rate gets the encode-failed body, and an unencodable rule set or delta no
// cached delta.
func encodeRules(version uint64, rs *rules.RuleSet, d *ruledist.Delta) (rulesJSON, deltaJSON []byte) {
	ids := sortedNodes(rs, -1)
	n, longest := 0, 0
	for _, t := range rs.Tables {
		n += len(t.Rules)
		longest = max(longest, len(t.Rules))
	}
	ups, rems := 0, 0
	for i := range d.Nodes {
		ups += len(d.Nodes[i].Upserts)
		rems += len(d.Nodes[i].Removes)
	}
	rw := wire{b: make([]byte, 0, 64+len(ids)*32+n*ruleBytes)}
	dw := wire{b: make([]byte, 0, 64+len(d.Nodes)*32+ups*ruleBytes+rems*40)}
	ends := make([]int, 0, longest) // end offsets of the current table's rules in rw.b

	rw.raw(`{"rules_version":`)
	rw.uint(version)
	rw.raw(`,"tables":[`)
	dw.raw(`{"seq":`)
	dw.uint(d.Seq)
	if len(d.Nodes) > 0 {
		dw.raw(`,"nodes":[`)
	}
	k := 0 // next node of d to write
	nodeDelta := func(tbl *rules.Table, first int) {
		if k > 0 {
			dw.b = append(dw.b, ',')
		}
		dw.nodeDelta(&d.Nodes[k], tbl, rw.b, first, ends)
		k++
	}
	for i, id := range ids {
		if i > 0 {
			rw.b = append(rw.b, ',')
		}
		tbl := rs.Tables[id]
		rw.nodeRulesOpen(id)
		first := len(rw.b) + 1 // past the table's '['
		ends = rw.table(tbl, ends[:0])
		rw.b = append(rw.b, '}')
		for k < len(d.Nodes) && d.Nodes[k].Node < id {
			nodeDelta(nil, 0) // a node whose table is gone: removes only
		}
		if k < len(d.Nodes) && d.Nodes[k].Node == id {
			nodeDelta(tbl, first)
		}
	}
	for k < len(d.Nodes) {
		nodeDelta(nil, 0)
	}
	rw.raw("]}")
	if len(d.Nodes) > 0 {
		dw.b = append(dw.b, ']')
	}
	dw.b = append(dw.b, '}')
	if rw.bad || dw.bad {
		// Upserts copied from a bad rules body would be bad too. Without a
		// cached delta the handler writes the catch-up with the appender,
		// which refuses exactly what encoding/json refuses.
		return rw.body(), nil
	}
	return rw.body(), dw.b
}

// cachedDeltasHead opens the GET /v1/deltas body of a catch-up whose one
// delta is a snapshot's cached object: the body is this head, that object
// and deltasTail.
func cachedDeltasHead(cu *ruledist.CatchUp) []byte {
	w := wire{b: make([]byte, 0, 64)}
	w.deltasOpen(cu.Since, cu.Latest)
	w.raw(`,"deltas":[`)
	return w.b
}

var deltasTail = []byte("]}\n")
