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
// appears; publish writes every rule of a new rule set once and serves the
// cycle's upserts as spans of those bytes (writeRules).

// encodeFailed is the body served in place of a payload that cannot be
// encoded (a NaN or infinite rate): what mustJSON serves for the same value.
var encodeFailed = []byte(`{"error":"encode failed"}` + "\n")

// ruleBytes, allocBytes and rateBytes are about the encoded size of one
// rule, one allocation entry before its per-path rates, and one rate, for
// sizing buffers.
const (
	ruleBytes  = 72
	allocBytes = 96
	rateBytes  = 20
)

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
func appendFloat(b []byte, f float64) ([]byte, bool) {
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

// rateField opens a rule's rate.
const rateField = `,"rate_mbps":`

// appendRule appends one RuleEntry; false if its rate is unencodable.
func appendRule(b []byte, src, dst topology.NodeID, label int, next topology.NodeID, rate float64) ([]byte, bool) {
	b = appendKey(b, src, dst, label)
	b = append(b, `,"next":`...)
	b = strconv.AppendInt(b, int64(next), 10)
	b = append(b, rateField...)
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

// piece locates the text one rule shares with every rule of the same key and
// rate, written earlier into the same buffer: b[lo:mid] is
// `{"src":…,"dst":…,"label":…,"next":` and b[tail:end] is
// `,"rate_mbps":…}`. key is the rule's pieceKey (0 marks an empty slot) and
// bits its rate's bit pattern.
type piece struct {
	key, bits          uint64
	lo, mid, tail, end int32
}

// pieces holds the pieces written so far, one per rule key and rate bits, in
// an open-addressing table. A compiled rule set holds one rule per hop of
// each path, the first with the path's rate and the others with rate 0, so
// a key has two pieces: the ingress rule's, which the allocation body reads
// its rate text from (rulePayloads.rateText), and the transit rules', which
// every later transit hop copies. writeRules takes any RuleSet, in which one
// key may carry any number of rates (0 and -0 included); each gets its own
// piece. Once the table is three quarters full, further pieces are written
// whole.
type pieces struct {
	slots []piece
	shift uint8 // 64 - log2(len(slots))
	free  int   // pieces it still takes
}

// reset empties the table and sizes it to at least n slots, keeping its
// memory when that is enough. Callers pass half their rule count: a compiled
// rule set has one rule per hop of a path, so its pieces, two a key, number
// a few times fewer than its rules (4,711 for 12,858 rules on
// controld-drift-66, 58 % of 8,192 slots), and all fit under the three
// quarters cap.
func (pc *pieces) reset(n int) {
	shift := uint8(63)
	for 1<<(64-shift) < n {
		shift--
	}
	size := 1 << (64 - shift)
	if cap(pc.slots) >= size {
		pc.slots = pc.slots[:size]
		clear(pc.slots)
	} else {
		pc.slots = make([]piece, size)
	}
	pc.shift, pc.free = shift, size*3/4
}

// pieceKey packs a rule's (src, dst, label) into one nonzero word, or
// reports that it does not fit; such a rule is written without a piece.
func pieceKey(src, dst topology.NodeID, label int) (uint64, bool) {
	s, d, l := uint64(src), uint64(dst), uint64(label)
	if s >= 1<<23 || d >= 1<<24 || l >= 1<<16 {
		return 0, false // negative values wrap to large ones
	}
	return 1<<63 | s<<40 | d<<16 | l, true
}

// slot returns the slot of key and rate bits: its piece, or the empty slot
// to write it to.
func (pc *pieces) slot(key, bits uint64) *piece {
	mask := uint64(len(pc.slots) - 1)
	for i := ((key ^ bits) * 0x9e3779b97f4a7c15) >> pc.shift; ; i = (i + 1) & mask {
		if p := &pc.slots[i]; p.key == key && p.bits == bits || p.key == 0 {
			return p
		}
	}
}

// rule appends r to b from its piece when one is in b, and otherwise writes
// it and keeps its piece; false if its rate is unencodable.
func (pc *pieces) rule(b []byte, r *rules.Rule) ([]byte, bool) {
	key, ok := pieceKey(r.Flow.Src, r.Flow.Dst, r.Label)
	if !ok {
		return appendRule(b, r.Flow.Src, r.Flow.Dst, r.Label, r.Next, r.RateMbps)
	}
	bits := math.Float64bits(r.RateMbps)
	p := pc.slot(key, bits)
	switch {
	case p.key != 0:
		b = append(b, b[p.lo:p.mid]...)
		b = strconv.AppendInt(b, int64(r.Next), 10)
		return append(b, b[p.tail:p.end]...), true
	case pc.free == 0:
		return appendRule(b, r.Flow.Src, r.Flow.Dst, r.Label, r.Next, r.RateMbps)
	}
	pc.free--
	p.key, p.bits, p.lo = key, bits, int32(len(b))
	b = appendKey(b, r.Flow.Src, r.Flow.Dst, r.Label)
	b = append(b, `,"next":`...)
	p.mid = int32(len(b))
	b = strconv.AppendInt(b, int64(r.Next), 10)
	p.tail = int32(len(b))
	b = append(b, rateField...)
	b, ok = appendFloat(b, r.RateMbps)
	b = append(b, '}')
	p.end = int32(len(b))
	return b, ok
}

// table writes one node's flow table as a []RuleEntry array; ends, when not
// nil, gets the end offset in b of every rule appended, in table order. With
// pc, rules are written from and into its pieces.
func (w *wire) table(tbl *rules.Table, pc *pieces, ends []int) []int {
	b, ok := append(w.b, '['), true
	if tbl != nil {
		for i := range tbl.Rules {
			if i > 0 {
				b = append(b, ',')
			}
			r, rok := &tbl.Rules[i], false
			if pc != nil {
				b, rok = pc.rule(b, r)
			} else {
				b, rok = appendRule(b, r.Flow.Src, r.Flow.Dst, r.Label, r.Next, r.RateMbps)
			}
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
		w.table(rs.Tables[id], nil, nil)
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

// nodeDelta writes one ruledist.NodeDelta. With e, w is e's delta bytes
// and tbl, first and ends, when tbl is not nil, describe the node's table in
// the new rule set as written to e.rw.b: rule i of tbl is
// e.rw.b[first:ends[0]] for i = 0 and e.rw.b[ends[i-1]+1:ends[i]] after it
// (one comma apart). An upsert that equals a rule of tbl is then a span of
// those bytes, a run of consecutive ones one span, commas included; any
// other upsert is written. Upserts in table order — what ruledist.Diff
// emits — are found by one forward walk.
func (w *wire) nodeDelta(nd *ruledist.NodeDelta, e *rulePayloads, tbl *rules.Table, first int, ends []int) {
	b, ok := append(w.b, `{"node":`...), true
	b = strconv.AppendInt(b, int64(nd.Node), 10)
	if len(nd.Upserts) > 0 {
		b = append(b, `,"upserts":[`...)
		var rs []rules.Rule
		if tbl != nil {
			rs = tbl.Rules
		}
		j, lo, hi := 0, 0, 0 // e.rw.b[lo:hi] is the run of table rules matched last
		for i := range nd.Upserts {
			u := &nd.Upserts[i]
			for j < len(rs) && upsertAfter(u, &rs[j]) {
				j++
			}
			match := j < len(rs) && sameRule(u, &rs[j])
			if match && hi > lo && j > 0 && ends[j-1] == hi {
				hi = ends[j] // rule j follows the run: extend it
				continue
			}
			if hi > lo {
				e.span(len(b), lo, hi)
				lo, hi = 0, 0
			}
			if i > 0 {
				b = append(b, ',')
			}
			if match {
				lo, hi = first, ends[j]
				if j > 0 {
					lo = ends[j-1] + 1
				}
				continue
			}
			var rok bool
			b, rok = appendRule(b, u.Src, u.Dst, u.Label, u.Next, u.RateMbps)
			ok = ok && rok
		}
		if hi > lo {
			e.span(len(b), lo, hi)
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
	w.table(tbl, nil, nil)
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

// rulePayloads is one publish's rule payloads as written. Every rule of the
// rule set is written once, tables in ascending node order, and each (src,
// dst, label, rate) piece of rule text once (pieces): a rule is its piece
// around its next hop. The delta object is not written out whole: an upsert
// that equals a rule of the new table is a span of the rules body, a run of
// consecutive ones one span, and only the rest — node headers, removes,
// upserts of other rules — is written to the delta bytes.
type rulePayloads struct {
	rw    wire    // the /v1/rules body
	dw    wire    // the delta object's bytes that are not spans of rw
	pc    *pieces // the rule pieces in rw.b
	spans []span  // the delta object, in order
	lit   int     // how much of dw.b the spans cover
}

// span is a piece of the delta object: rw.b[lo:hi] when rules, dw.b[lo:hi]
// otherwise.
type span struct {
	rules  bool
	lo, hi int
}

// writeRules writes the rule payloads of one publish: the full /v1/rules
// body of rs at version, and the JSON object of d, the delta that produced
// rs, as pieces, which a GET /v1/deltas?since=version-1 serves between a
// header and a footer (deltasHead). pc is the piece table to write them
// with; it is emptied first, and the payloads read it until the next reset.
func writeRules(version uint64, rs *rules.RuleSet, d *ruledist.Delta, pc *pieces) *rulePayloads {
	ids := sortedNodes(rs, -1)
	n, longest := 0, 0
	for _, t := range rs.Tables {
		n += len(t.Rules)
		longest = max(longest, len(t.Rules))
	}
	removes := 0
	for i := range d.Nodes {
		removes += len(d.Nodes[i].Removes)
	}
	// A node's delta is typically three spans: its header, the run of its
	// upserts, and its removes.
	pc.reset(n / 2)
	e := &rulePayloads{pc: pc, spans: make([]span, 0, 1+3*len(d.Nodes))}
	e.rw.b = make([]byte, 0, 64+len(ids)*32+n*ruleBytes)
	e.dw.b = make([]byte, 0, 64+len(d.Nodes)*48+removes*40)
	ends := make([]int, 0, longest) // end offsets of the current table's rules in rw.b

	e.rw.raw(`{"rules_version":`)
	e.rw.uint(version)
	e.rw.raw(`,"tables":[`)
	e.dw.raw(`{"seq":`)
	e.dw.uint(d.Seq)
	if len(d.Nodes) > 0 {
		e.dw.raw(`,"nodes":[`)
	}
	k := 0 // next node of d to write
	nodeDelta := func(tbl *rules.Table, first int) {
		if k > 0 {
			e.dw.b = append(e.dw.b, ',')
		}
		e.dw.nodeDelta(&d.Nodes[k], e, tbl, first, ends)
		k++
	}
	for i, id := range ids {
		if i > 0 {
			e.rw.b = append(e.rw.b, ',')
		}
		tbl := rs.Tables[id]
		e.rw.nodeRulesOpen(id)
		first := len(e.rw.b) + 1 // past the table's '['
		ends = e.rw.table(tbl, e.pc, ends[:0])
		e.rw.b = append(e.rw.b, '}')
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
	e.rw.raw("]}")
	if len(d.Nodes) > 0 {
		e.dw.b = append(e.dw.b, ']')
	}
	e.dw.b = append(e.dw.b, '}')
	e.span(len(e.dw.b), 0, 0)
	return e
}

// span ends the delta object at dw.b[:n]: the delta bytes written since the
// last span, then, when hi > lo, the rules bytes rw.b[lo:hi].
func (e *rulePayloads) span(n, lo, hi int) {
	if n > e.lit {
		e.spans = append(e.spans, span{lo: e.lit, hi: n})
		e.lit = n
	}
	if hi > lo {
		e.spans = append(e.spans, span{rules: true, lo: lo, hi: hi})
	}
}

// rateText returns the text rate has in the rules body as the rate of the
// rule (src, dst, label), when a piece of that key with rate's bits is kept.
func (e *rulePayloads) rateText(src, dst topology.NodeID, label int, rate float64) ([]byte, bool) {
	key, ok := pieceKey(src, dst, label)
	if !ok || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return nil, false
	}
	if p := e.pc.slot(key, math.Float64bits(rate)); p.key != 0 {
		return e.rw.b[p.tail+int32(len(rateField)) : p.end-1], true
	}
	return nil, false
}

// bodies closes the /v1/rules body and resolves the delta object's pieces,
// nil when either payload is unencodable.
func (e *rulePayloads) bodies() (rulesJSON []byte, delta [][]byte) {
	if e.rw.bad || e.dw.bad {
		// Upserts copied from a bad rules body would be bad too. Without a
		// cached delta the handler writes the catch-up with the appender,
		// which refuses exactly what encoding/json refuses.
		return e.rw.body(), nil
	}
	rulesJSON = e.rw.body()
	delta = make([][]byte, len(e.spans))
	for i, sp := range e.spans {
		if sp.rules {
			delta[i] = rulesJSON[sp.lo:sp.hi]
		} else {
			delta[i] = e.dw.b[sp.lo:sp.hi]
		}
	}
	return rulesJSON, delta
}

// allocationBody is the GET /v1/allocation body: the []AllocationEntry of
// a over p's flows, per_path_mbps null for a flow without paths. With
// payloads, the written rule payloads of a's rule set, a path's positive
// rate is copied from its rules' piece (rulePayloads.rateText) instead of
// formatted again.
func allocationBody(p *te.Problem, a *te.Allocation, payloads *rulePayloads) []byte {
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
				if v > 0 && payloads != nil {
					if t, found := payloads.rateText(f.Src, f.Dst, i, v); found {
						b = append(b, t...)
						continue
					}
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

// deltasHead opens the GET /v1/deltas body of the catch-up since → latest
// whose one delta is a snapshot's: the body is this head, the pieces of the
// delta object (writeRules) and deltasTail.
func deltasHead(since, latest uint64) []byte {
	w := wire{b: make([]byte, 0, 64)}
	w.deltasOpen(since, latest)
	w.raw(`,"deltas":[`)
	return w.b
}

var deltasTail = []byte("]}\n")
