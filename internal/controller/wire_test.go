package controller

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"
	"sort"
	"testing"

	"sate/internal/par"
	"sate/internal/ruledist"
	"sate/internal/rules"
	"sate/internal/topology"
)

// The encoding/json oracle: the payload values the rule endpoints served
// through reflection before wire.go wrote them. Every served rule body must be
// mustJSON of the matching value here, byte for byte.

func ruleEntries(tbl *rules.Table) []RuleEntry {
	out := make([]RuleEntry, 0, len(tbl.Rules))
	for _, rule := range tbl.Rules {
		out = append(out, RuleEntry{
			Src:      int(rule.Flow.Src),
			Dst:      int(rule.Flow.Dst),
			Label:    rule.Label,
			Next:     int(rule.Next),
			RateMbps: rule.RateMbps,
		})
	}
	return out
}

// nodeRulesResponse is the GET /v1/rules?node= payload: [] without a table.
func nodeRulesResponse(tbl *rules.Table) []RuleEntry {
	if tbl == nil {
		return []RuleEntry{}
	}
	return ruleEntries(tbl)
}

func rulesResponse(version uint64, rs *rules.RuleSet) RulesResponse {
	ids := make([]topology.NodeID, 0, len(rs.Tables))
	for id := range rs.Tables {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	resp := RulesResponse{RulesVersion: version, Tables: make([]NodeRules, 0, len(ids))}
	for _, id := range ids {
		resp.Tables = append(resp.Tables, NodeRules{Node: int(id), Rules: ruleEntries(rs.Tables[id])})
	}
	return resp
}

// deltasResponse is the GET /v1/deltas payload of a catch-up, filtered to one
// node when node >= 0.
func deltasResponse(cu *ruledist.CatchUp, node int) DeltasResponse {
	resp := DeltasResponse{Since: cu.Since, Latest: cu.Latest}
	switch {
	case cu.FullSync:
		resp.FullSync = true
		resp.Full = rulesResponse(cu.Latest, cu.Full).Tables
		if node >= 0 {
			filtered := resp.Full[:0:0]
			for _, nr := range resp.Full {
				if nr.Node == node {
					filtered = append(filtered, nr)
				}
			}
			resp.Full = filtered
		}
	case node >= 0:
		resp.Deltas = make([]ruledist.Delta, 0, len(cu.Deltas))
		for _, d := range cu.Deltas {
			fd := ruledist.Delta{Seq: d.Seq}
			if nd, ok := d.Node(topology.NodeID(node)); ok {
				fd.Nodes = []ruledist.NodeDelta{nd}
			}
			resp.Deltas = append(resp.Deltas, fd)
		}
	default:
		resp.Deltas = cu.Deltas
	}
	return resp
}

// fuzzInput hands out values from a fuzz input; past its end, zeros.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	c := (*in)[0]
	*in = (*in)[1:]
	return c
}

func (in *fuzzInput) uint64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = in.byte()
	}
	return binary.LittleEndian.Uint64(b[:])
}

// int is mostly a small value, so keys collide and tables line up across
// rule sets, and otherwise any int.
func (in *fuzzInput) int() int {
	if c := in.byte(); c < 224 {
		return int(c % 24)
	}
	return int(int64(in.uint64()))
}

// specialRates are the floats where encoding/json's formatting turns: signed
// zeros, subnormals, both sides of the 1e-6 and 1e21 switches to exponent
// form, one- and two-digit negative exponents, and the extremes.
var specialRates = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
	1e-7, 9.999999999999999e-7, 1e-6, -1e-6, 1e-9, 1.5e-10, 1e-100,
	1e20, 9.999999999999999e20, 1e21, -1e21, 1.7976931348623157e308,
	0.1, 1, 12.5, 123.456789, 1e6, -3,
}

// rate is a special value, a raw bit pattern (any float, NaN included), or
// rarely a NaN or an infinity outright.
func (in *fuzzInput) rate() float64 {
	switch c := in.byte(); {
	case c < 128:
		return specialRates[int(c)%len(specialRates)]
	case c == 253:
		return math.NaN()
	case c == 254:
		return math.Inf(1)
	case c == 255:
		return math.Inf(-1)
	default:
		return math.Float64frombits(in.uint64())
	}
}

// ruleSet draws up to five tables of up to eight rules, each table sorted
// and one rule per key as rules.Table requires.
func (in *fuzzInput) ruleSet() *rules.RuleSet {
	rs := &rules.RuleSet{Tables: make(map[topology.NodeID]*rules.Table)}
	for n := int(in.byte() % 6); n > 0; n-- {
		tbl := &rules.Table{Node: topology.NodeID(in.int())}
		for m := int(in.byte() % 9); m > 0; m-- {
			tbl.Rules = append(tbl.Rules, rules.Rule{
				Flow:  rules.FlowKey{Src: topology.NodeID(in.int()), Dst: topology.NodeID(in.int())},
				Label: in.int(), Next: topology.NodeID(in.int()), RateMbps: in.rate(),
			})
		}
		slices.SortStableFunc(tbl.Rules, rules.CompareKey)
		tbl.Rules = slices.CompactFunc(tbl.Rules, func(a, b rules.Rule) bool { return rules.CompareKey(a, b) == 0 })
		rs.Tables[tbl.Node] = tbl
	}
	return rs
}

// delta draws a delta in no particular order: nodes, upserts and removes as
// a client might send them rather than as ruledist.Diff writes them.
func (in *fuzzInput) delta() ruledist.Delta {
	d := ruledist.Delta{Seq: uint64(in.int())}
	for n := int(in.byte() % 4); n > 0; n-- {
		nd := ruledist.NodeDelta{Node: topology.NodeID(in.int())}
		for m := int(in.byte() % 4); m > 0; m-- {
			nd.Upserts = append(nd.Upserts, ruledist.Upsert{
				Src: topology.NodeID(in.int()), Dst: topology.NodeID(in.int()), Label: in.int(),
				Next: topology.NodeID(in.int()), RateMbps: in.rate(),
			})
		}
		for m := int(in.byte() % 3); m > 0; m-- {
			nd.Removes = append(nd.Removes, ruledist.RuleID{
				Src: topology.NodeID(in.int()), Dst: topology.NodeID(in.int()), Label: in.int(),
			})
		}
		d.Nodes = append(d.Nodes, nd)
	}
	return d
}

// checkPublish compares what encodeRules writes for (version, rs, d) with
// encoding/json: the /v1/rules body, the cached delta object, and the
// /v1/deltas body built around it.
func checkPublish(t *testing.T, version uint64, rs *rules.RuleSet, d *ruledist.Delta) {
	t.Helper()
	rulesJSON, deltaJSON := encodeRules(version, rs, d)
	if want := mustJSON(rulesResponse(version, rs)); !bytes.Equal(rulesJSON, want) {
		t.Fatalf("/v1/rules body:\n got %s\nwant %s", rulesJSON, want)
	}
	want, err := json.Marshal(d)
	switch {
	case deltaJSON == nil:
		if err == nil && !bytes.Equal(rulesJSON, encodeFailed) {
			t.Fatalf("no cached delta for an encodable publish: %s", want)
		}
		return
	case err != nil:
		t.Fatalf("cached delta %s for a delta encoding/json refuses (%v)", deltaJSON, err)
	case !bytes.Equal(deltaJSON, want):
		t.Fatalf("cached delta:\n got %s\nwant %s", deltaJSON, want)
	}
	cu := ruledist.CatchUp{Since: version - 1, Latest: version, Deltas: []ruledist.Delta{*d}}
	if got, want := slices.Concat(cachedDeltasHead(&cu), deltaJSON, deltasTail), mustJSON(deltasResponse(&cu, -1)); !bytes.Equal(got, want) {
		t.Fatalf("cached /v1/deltas body:\n got %s\nwant %s", got, want)
	}
}

// checkDeltas compares deltasBody with encoding/json for one catch-up, whole
// and filtered to each of nodes.
func checkDeltas(t *testing.T, cu *ruledist.CatchUp, nodes []int) {
	t.Helper()
	for _, node := range append([]int{-1}, nodes...) {
		got, ok := deltasBody(cu, node)
		want := mustJSON(deltasResponse(cu, node))
		if !bytes.Equal(got, want) {
			t.Fatalf("/v1/deltas body, node %d, full sync %v:\n got %s\nwant %s", node, cu.FullSync, got, want)
		}
		if ok == bytes.Equal(got, encodeFailed) {
			t.Fatalf("/v1/deltas body, node %d: ok = %v for %s", node, ok, got)
		}
	}
}

// FuzzRuleWire: random rule sets and deltas go through the appender and
// through encoding/json, and every rule payload must come out byte for byte
// the same — the /v1/rules body and its ?node= tables, the delta object
// publish caches, and /v1/deltas bodies of deltas and full syncs, whole and
// per node. Rates come from raw float bits as well as the formatting edges;
// a NaN or infinity must give encoding/json's refusal, the encode-failed body.
func FuzzRuleWire(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		old, cur := in.ruleSet(), in.ruleSet()
		version := uint64(in.byte()) + 1
		for id, tbl := range cur.Tables {
			got, ok := nodeRulesBody(tbl)
			if want := mustJSON(nodeRulesResponse(tbl)); !bytes.Equal(got, want) || ok == bytes.Equal(got, encodeFailed) {
				t.Fatalf("/v1/rules?node=%d body (ok %v):\n got %s\nwant %s", id, ok, got, want)
			}
		}
		if got, _ := nodeRulesBody(nil); !bytes.Equal(got, []byte("[]\n")) {
			t.Fatalf("/v1/rules?node= body without a table: %q", got)
		}

		diff := ruledist.Diff(old, cur)
		diff.Seq = version
		checkPublish(t, version, cur, &diff)
		random := in.delta()
		checkPublish(t, version, cur, &random)

		var nodes []int
		for id := range cur.Tables {
			nodes = append(nodes, int(id))
		}
		for _, nd := range random.Nodes {
			nodes = append(nodes, int(nd.Node))
		}
		nodes = slices.DeleteFunc(nodes, func(n int) bool { return n < 0 })
		checkDeltas(t, &ruledist.CatchUp{Since: version - 1, Latest: version + 1, Deltas: []ruledist.Delta{diff, random}}, nodes)
		checkDeltas(t, &ruledist.CatchUp{Since: version + 7, Latest: version, FullSync: true, Full: cur}, nodes)
		checkDeltas(t, &ruledist.CatchUp{Since: version, Latest: version}, nodes)
	})
}

// TestPublishRuleEncodingAllocs is publish's allocation contract (DESIGN.md
// §8): writing one publish's rule payloads — every rule once, the cached
// delta copied from those bytes — allocates a number of objects bounded by
// the table count, not the rule count.
func TestPublishRuleEncodingAllocs(t *testing.T) {
	defer par.SetWorkers(1)()
	srv, _ := testServer(t)
	mustRecompute(t, srv, 100)
	mustRecompute(t, srv, 130)
	sn := srv.Current()
	cu := srv.Changelog().Since(sn.RulesVersion - 1)
	d := &cu.Deltas[0]
	if tables, n := len(sn.Rules.Tables), sn.Rules.NumRules(); n < 4*tables || len(d.Nodes) == 0 {
		t.Fatalf("%d rules in %d tables, %d nodes in the delta: too few to tell per-rule from per-table", n, tables, len(d.Nodes))
	}
	checkPublish(t, sn.RulesVersion, sn.Rules, d)
	allocs := testing.AllocsPerRun(50, func() {
		encodeRules(sn.RulesVersion, sn.Rules, d)
	})
	if limit := float64(len(sn.Rules.Tables)); allocs > limit {
		t.Fatalf("encoding one publish's rule payloads: %v allocations, want <= %v (one per table; %d rules)", allocs, limit, sn.Rules.NumRules())
	}
}
