package controller

import (
	"math"
	"slices"
	"strconv"

	"sate/internal/ruledist"
	"sate/internal/rules"
	"sate/internal/te"
	"sate/internal/topology"
)

// The rule payloads — /v1/rules with and without ?node= and every /v1/deltas
// body — and the /v1/allocation body are written by the appender below,
// never by reflection. Its output is byte for byte what encoding/json writes
// for RulesResponse, []RuleEntry, DeltasResponse and []AllocationEntry,
// trailing newline included, and encoding/json remains the oracle the tests
// and FuzzRuleWire compare against. A RuleEntry and a ruledist.Upsert have
// the same fields in the same order, so one rule has one text wherever it
// appears: publish writes every rule of a new rule set once, and an upsert of
// the cycle's delta that equals one of them is a copy of its bytes
// (writeRules).

// encodeFailed is the body served in place of a payload that cannot be
// encoded (a NaN or infinite rate): what mustJSON serves for the same value.
var encodeFailed = []byte(`{"error":"encode failed"}` + "\n")

// ruleBytes, removeBytes, allocBytes and rateBytes are about the encoded
// size of one rule, one remove, one allocation entry before its per-path
// rates, and one rate, for sizing buffers.
const (
	ruleBytes   = 72
	removeBytes = 40
	allocBytes  = 96
	rateBytes   = 20
)

// rulesBytes is about the encoded size of a []NodeRules array of n rules in
// tables tables, with room for a body's opening and closing.
func rulesBytes(tables, n int) int { return 64 + tables*32 + n*ruleBytes }

// deltaBytes is about the encoded size of d's JSON object, or with node >= 0
// of its part for that node.
func deltaBytes(d *ruledist.Delta, node int) int {
	size := 32
	for i := range d.Nodes {
		if nd := &d.Nodes[i]; node < 0 || int(nd.Node) == node {
			size += 32 + len(nd.Upserts)*ruleBytes + len(nd.Removes)*removeBytes
		}
	}
	return size
}

// wire appends rule payloads to b.
type wire struct {
	b   []byte
	bad bool // a non-finite rate was written: the payload is unencodable
}

func (w *wire) raw(s string) { w.b = append(w.b, s...) }

func (w *wire) uint(v uint64) { w.b = strconv.AppendUint(w.b, v, 10) }

func (w *wire) int(v int) { w.b = strconv.AppendInt(w.b, int64(v), 10) }

// The loops below append to a local slice rather than through a *wire: a
// store of w.b through a pointer pays a GC write barrier while a collection
// is marking, and publish allocates enough that one often is.

// appendFloat appends f as encoding/json writes it: the shortest round-trip
// decimal, in exponent form below 1e-6 and from 1e21 on, with a two-digit
// negative exponent shortened to one (e-09 → e-9). encoding/json refuses
// NaN and ±Inf; so does appendFloat, appending nothing and reporting false.
// A transit rule's rate is 0, so 0 (but not -0) is written without strconv.
func appendFloat(b []byte, f float64) ([]byte, bool) {
	if math.Float64bits(f) == 0 {
		return append(b, '0'), true
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	fmt := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		fmt = 'e'
	}
	b = strconv.AppendFloat(b, f, fmt, -1, 64)
	if fmt == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendRule appends one RuleEntry; false if its rate is unencodable.
func appendRule(b []byte, src, dst topology.NodeID, label int, next topology.NodeID, rate float64) ([]byte, bool) {
	b = appendKey(b, src, dst, label)
	b = append(b, `,"next":`...)
	b = strconv.AppendInt(b, int64(next), 10)
	b = append(b, `,"rate_mbps":`...)
	b, ok := appendFloat(b, rate)
	return append(b, '}'), ok
}

// appendKey appends a rule object's opening up to its label: what a rule
// and a remove share.
func appendKey(b []byte, src, dst topology.NodeID, label int) []byte {
	b = append(b, `{"src":`...)
	b = strconv.AppendInt(b, int64(src), 10)
	b = append(b, `,"dst":`...)
	b = strconv.AppendInt(b, int64(dst), 10)
	b = append(b, `,"label":`...)
	return strconv.AppendInt(b, int64(label), 10)
}

// table writes one node's flow table as a []RuleEntry array; ends, when not
// nil, gets the end offset in b of every rule appended, in table order.
func (w *wire) table(tbl *rules.Table, ends []int) []int {
	b, ok := append(w.b, '['), true
	if tbl != nil {
		for i := range tbl.Rules {
			if i > 0 {
				b = append(b, ',')
			}
			r := &tbl.Rules[i]
			var rok bool
			b, rok = appendRule(b, r.Flow.Src, r.Flow.Dst, r.Label, r.Next, r.RateMbps)
			ok = ok && rok
			if ends != nil {
				ends = append(ends, len(b))
			}
		}
	}
	w.b = append(b, ']')
	w.bad = w.bad || !ok
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

// upsertAfter reports whether u's key sorts after r's (rules.CompareKey).
func upsertAfter(u *ruledist.Upsert, r *rules.Rule) bool {
	if u.Src != r.Flow.Src {
		return u.Src > r.Flow.Src
	}
	if u.Dst != r.Flow.Dst {
		return u.Dst > r.Flow.Dst
	}
	return u.Label > r.Label
}

// sameRule reports whether u is r: the same key, next hop and rate bits.
func sameRule(u *ruledist.Upsert, r *rules.Rule) bool {
	return u.Src == r.Flow.Src && u.Dst == r.Flow.Dst && u.Label == r.Label && u.Next == r.Next &&
		math.Float64bits(u.RateMbps) == math.Float64bits(r.RateMbps)
}

// nodeDelta writes one ruledist.NodeDelta. When tbl is not nil it is the
// node's table in the new rule set as written to src: rule i of tbl is
// src[first:ends[0]] for i = 0 and src[ends[i-1]+1:ends[i]] after it (one
// comma apart). An upsert that equals a rule of tbl is then a copy of those
// bytes; any other upsert is written. Upserts in table order — what
// ruledist.Diff emits — are found by one forward walk.
func (w *wire) nodeDelta(nd *ruledist.NodeDelta, tbl *rules.Table, src []byte, first int, ends []int) {
	b, ok := append(w.b, `{"node":`...), true
	b = strconv.AppendInt(b, int64(nd.Node), 10)
	if len(nd.Upserts) > 0 {
		b = append(b, `,"upserts":[`...)
		var rs []rules.Rule
		if tbl != nil {
			rs = tbl.Rules
		}
		j := 0
		for i := range nd.Upserts {
			if i > 0 {
				b = append(b, ',')
			}
			u := &nd.Upserts[i]
			for j < len(rs) && upsertAfter(u, &rs[j]) {
				j++
			}
			if j < len(rs) && sameRule(u, &rs[j]) {
				lo := first
				if j > 0 {
					lo = ends[j-1] + 1
				}
				b = append(b, src[lo:ends[j]]...)
				continue
			}
			var rok bool
			b, rok = appendRule(b, u.Src, u.Dst, u.Label, u.Next, u.RateMbps)
			ok = ok && rok
		}
		b = append(b, ']')
	}
	if len(nd.Removes) > 0 {
		b = append(b, `,"removes":[`...)
		for i, id := range nd.Removes {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(appendKey(b, id.Src, id.Dst, id.Label), '}')
		}
		b = append(b, ']')
	}
	w.b = append(b, '}')
	w.bad = w.bad || !ok
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
	size := 64
	var ids []topology.NodeID
	if cu.FullSync {
		ids = sortedNodes(cu.Full, node)
		n := 0
		for _, id := range ids {
			n += len(cu.Full.Tables[id].Rules)
		}
		size = rulesBytes(len(ids), n)
	}
	for i := range cu.Deltas {
		size += deltaBytes(&cu.Deltas[i], node)
	}
	w := wire{b: make([]byte, 0, size)}
	w.deltasOpen(cu.Since, cu.Latest)
	switch {
	case cu.FullSync:
		w.raw(`,"full_sync":true`)
		if len(ids) > 0 {
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

// writeRules writes the rule payloads of one publish: the full /v1/rules
// body of rs at version, and the GET /v1/deltas?since=version-1 body whose
// one delta is d, the delta that produced rs. Right after each table it
// writes that node's part of d, where an upsert equal to a rule of the table
// is a copy of that rule's bytes (nodeDelta), so only the removes and the
// upserts of other rules are formatted a second time. deltasJSON is nil when
// either payload is unencodable: a copy of a bad rule would be bad too, and
// the handler then writes the catch-up on request, which refuses exactly
// what encoding/json refuses.
func writeRules(version uint64, rs *rules.RuleSet, d *ruledist.Delta) (rulesJSON, deltasJSON []byte) {
	ids := sortedNodes(rs, -1)
	n, longest := 0, 0
	for _, t := range rs.Tables {
		n += len(t.Rules)
		longest = max(longest, len(t.Rules))
	}
	rw := wire{b: make([]byte, 0, rulesBytes(len(ids), n))}
	dw := wire{b: make([]byte, 0, 64+deltaBytes(d, -1))}
	ends := make([]int, 0, longest) // end offsets of the current table's rules in rw.b

	rw.raw(`{"rules_version":`)
	rw.uint(version)
	rw.raw(`,"tables":[`)
	dw.deltasOpen(version-1, version)
	dw.raw(`,"deltas":[{"seq":`)
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
	dw.raw("}]}")
	if rw.bad || dw.bad {
		return rw.body(), nil
	}
	return rw.body(), dw.body()
}

// allocationBody is the GET /v1/allocation body: the []AllocationEntry of
// a over p's flows, per_path_mbps null for a flow without paths.
func allocationBody(p *te.Problem, a *te.Allocation) []byte {
	rates := 0
	for _, x := range a.X {
		rates += len(x)
	}
	b, ok := make([]byte, 0, 3+len(p.Flows)*allocBytes+rates*rateBytes), true
	b = append(b, '[')
	for fi := range p.Flows {
		f := &p.Flows[fi]
		if fi > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"src":`...)
		b = strconv.AppendInt(b, int64(f.Src), 10)
		b = append(b, `,"dst":`...)
		b = strconv.AppendInt(b, int64(f.Dst), 10)
		b = append(b, `,"demand_mbps":`...)
		b, ok = appendAnd(b, ok, f.DemandMbps)
		b = append(b, `,"rate_mbps":`...)
		b, ok = appendAnd(b, ok, a.FlowThroughput(fi))
		b = append(b, `,"per_path_mbps":`...)
		if x := a.X[fi]; len(x) > 0 {
			b = append(b, '[')
			for i, v := range x {
				if i > 0 {
					b = append(b, ',')
				}
				b, ok = appendAnd(b, ok, v)
			}
			b = append(b, ']')
		} else {
			b = append(b, "null"...)
		}
		b = append(b, '}')
	}
	if !ok {
		return encodeFailed
	}
	return append(b, "]\n"...)
}

// appendAnd appends f (appendFloat) and reports ok && f was encodable.
func appendAnd(b []byte, ok bool, f float64) ([]byte, bool) {
	b, fok := appendFloat(b, f)
	return b, ok && fok
}
