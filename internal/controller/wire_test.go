package controller

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"sate/internal/constellation"
	"sate/internal/core"
	"sate/internal/par"
	"sate/internal/ruledist"
	"sate/internal/rules"
	"sate/internal/sim"
	"sate/internal/te"
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

// allocationResponse is the GET /v1/allocation payload the snapshot encoded
// through reflection before wire.go wrote it: per_path_mbps is a copy of the
// flow's rates, nil (null) for a flow without paths.
func allocationResponse(p *te.Problem, a *te.Allocation) []AllocationEntry {
	out := make([]AllocationEntry, 0, len(p.Flows))
	for fi, f := range p.Flows {
		out = append(out, AllocationEntry{
			Src:        int(f.Src),
			Dst:        int(f.Dst),
			DemandMbps: f.DemandMbps,
			RateMbps:   a.FlowThroughput(fi),
			PerPath:    append([]float64(nil), a.X[fi]...),
		})
	}
	return out
}

// checkAllocation compares allocationBody with encoding/json.
func checkAllocation(t *testing.T, p *te.Problem, a *te.Allocation) {
	t.Helper()
	want := mustJSON(allocationResponse(p, a))
	if got := allocationBody(p, a); !bytes.Equal(got, want) {
		t.Fatalf("/v1/allocation body:\n got %s\nwant %s", got, want)
	}
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

// compiledRuleSet draws a rule set shaped like rules.Compile output: up to
// four paths, each one (src, dst, label) with a rule at every one of its one
// to five hops, on nodes 0-7, the first hop with the path's rate and the
// others with 0. At one hop of the first path the rate is one ulp above
// that; the second path's rate is 0 at its first hop and -0 at the others;
// the third and fourth carry their rate at every hop, as any RuleSet may.
// Diffed against another rule set, each shape gives upserts that writeRules
// copies from the rule just written (the same key, next hop and rate bits)
// next to ones it must write because only the rate bits differ: one ulp, or
// 0 against -0, which print differently.
func (in *fuzzInput) compiledRuleSet() *rules.RuleSet {
	rs := &rules.RuleSet{Tables: make(map[topology.NodeID]*rules.Table)}
	for path, n := 0, int(in.byte()%5); path < n; path++ {
		key := rules.FlowKey{Src: topology.NodeID(in.int()), Dst: topology.NodeID(in.int())}
		label, rate := in.int(), in.rate()
		hops, first := 1+int(in.byte()%5), int(in.byte()%8)
		off := int(in.byte()) % hops
		for h := 0; h < hops; h++ {
			node := topology.NodeID((first + h) % 8)
			r := rules.Rule{Flow: key, Label: label, Next: topology.NodeID((first + h + 1) % 8)}
			if h == 0 || path >= 2 {
				r.RateMbps = rate
			}
			switch {
			case path == 0 && h == off:
				r.RateMbps = math.Nextafter(r.RateMbps, math.Inf(1))
			case path == 1 && h == 0:
				r.RateMbps = 0
			case path == 1:
				r.RateMbps = math.Copysign(0, -1)
			}
			tbl := rs.Tables[node]
			if tbl == nil {
				tbl = &rules.Table{Node: node}
				rs.Tables[node] = tbl
			}
			tbl.Rules = append(tbl.Rules, r)
		}
	}
	for _, tbl := range rs.Tables {
		slices.SortStableFunc(tbl.Rules, rules.CompareKey)
		tbl.Rules = slices.CompactFunc(tbl.Rules, func(a, b rules.Rule) bool { return rules.CompareKey(a, b) == 0 })
	}
	return rs
}

// allocation draws up to four flows of up to three paths each: a flow
// without paths, a rate from raw bits, NaN and infinities included.
func (in *fuzzInput) allocation() (*te.Problem, *te.Allocation) {
	p, a := &te.Problem{}, &te.Allocation{}
	for n := int(in.byte() % 5); n > 0; n-- {
		p.Flows = append(p.Flows, te.FlowDemand{Src: topology.NodeID(in.int()), Dst: topology.NodeID(in.int()), DemandMbps: in.rate()})
		var x []float64
		for m := int(in.byte() % 4); m > 0; m-- {
			x = append(x, in.rate())
		}
		a.X = append(a.X, x)
	}
	return p, a
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

// checkPublish compares what writeRules writes for (version, rs, d) with
// encoding/json: the /v1/rules body and the cached /v1/deltas body of the
// catch-up whose one delta is d.
func checkPublish(t *testing.T, version uint64, rs *rules.RuleSet, d *ruledist.Delta) {
	t.Helper()
	rulesJSON, deltasJSON := writeRules(version, rs, d)
	if want := mustJSON(rulesResponse(version, rs)); !bytes.Equal(rulesJSON, want) {
		t.Fatalf("/v1/rules body:\n got %s\nwant %s", rulesJSON, want)
	}
	cu := ruledist.CatchUp{Since: version - 1, Latest: version, Deltas: []ruledist.Delta{*d}}
	want := mustJSON(deltasResponse(&cu, -1))
	switch {
	case deltasJSON == nil:
		if !bytes.Equal(rulesJSON, encodeFailed) && !bytes.Equal(want, encodeFailed) {
			t.Fatalf("no cached /v1/deltas body for an encodable publish: %s", want)
		}
	case !bytes.Equal(deltasJSON, want):
		t.Fatalf("cached /v1/deltas body:\n got %s\nwant %s", deltasJSON, want)
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
// the same — the /v1/rules body and its ?node= tables, the /v1/deltas body
// publish caches, and /v1/deltas bodies of deltas and full syncs, whole and
// per node — and so must the /v1/allocation body. Besides rule sets drawn
// rule by rule, each input publishes one shaped like rules.Compile output,
// where a key recurs at every hop (compiledRuleSet), so the cached body
// mixes copied and written upserts. Rates come from raw float bits as well
// as the formatting edges; a NaN or infinity must give encoding/json's
// refusal, the encode-failed body.
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

		compiled := in.compiledRuleSet()
		cdiff := ruledist.Diff(cur, compiled)
		cdiff.Seq = version + 1
		checkPublish(t, version+1, compiled, &cdiff)
		p, a := in.allocation()
		checkAllocation(t, p, a)
	})
}

// TestAllocationBody: the /v1/allocation body of a served cycle is
// encoding/json's, a flow without paths gets per_path_mbps null, and a NaN
// rate gives the encode-failed body.
func TestAllocationBody(t *testing.T) {
	srv, _ := testServer(t)
	mustRecompute(t, srv, 100)
	sn := srv.Current()
	checkAllocation(t, sn.Problem, sn.Alloc)
	if want := mustJSON(allocationResponse(sn.Problem, sn.Alloc)); !bytes.Equal(sn.AllocationBody(), want) {
		t.Fatalf("served /v1/allocation body:\n got %s\nwant %s", sn.AllocationBody(), want)
	}

	p := &te.Problem{Flows: []te.FlowDemand{{Src: 1, Dst: 2, DemandMbps: 8}, {Src: 3, Dst: 4, DemandMbps: 1e-7}}}
	a := &te.Allocation{X: [][]float64{{2.5, 0}, nil}}
	checkAllocation(t, p, a)
	want := `[{"src":1,"dst":2,"demand_mbps":8,"rate_mbps":2.5,"per_path_mbps":[2.5,0]},` +
		`{"src":3,"dst":4,"demand_mbps":1e-7,"rate_mbps":0,"per_path_mbps":null}]` + "\n"
	if got := allocationBody(p, a); string(got) != want {
		t.Fatalf("got %s\nwant %s", got, want)
	}
	a.X[0][1] = math.NaN()
	checkAllocation(t, p, a)
	if got := allocationBody(p, a); !bytes.Equal(got, encodeFailed) {
		t.Fatalf("a NaN rate gave %s", got)
	}
}

// TestAppendFloatMatchesJSON: appendFloat writes what encoding/json writes
// at the formatting edges — 0 without strconv but -0 with its sign, the
// smallest subnormal, both sides of the switches to exponent form, the
// largest float — and refuses NaN and ±Inf as encoding/json does.
func TestAppendFloatMatchesJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 1e21, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		got, ok := appendFloat([]byte("x"), f)
		want, err := json.Marshal(f)
		if err != nil {
			if ok || string(got) != "x" {
				t.Errorf("%v: appended %q, ok %v; encoding/json refuses it (%v)", f, got[1:], ok, err)
			}
			continue
		}
		if !ok || string(got[1:]) != string(want) {
			t.Errorf("%v (bits %#x): appended %q, ok %v; want %q", f, math.Float64bits(f), got[1:], ok, want)
		}
	}
}

// TestPublishRuleEncodingAllocs is publish's allocation contract (DESIGN.md
// §8): writing one publish's rule payloads — every rule once, the cached
// /v1/deltas body beside them — takes a fixed number of allocations, however
// many rules and tables there are: the node list, the two bodies and the
// offset scratch. The allocation body takes one.
func TestPublishRuleEncodingAllocs(t *testing.T) {
	defer par.SetWorkers(1)()
	srv, _ := testServer(t)
	mustRecompute(t, srv, 100)
	mustRecompute(t, srv, 130)
	sn := srv.Current()
	cu := srv.Changelog().Since(sn.RulesVersion - 1)
	d := &cu.Deltas[0]
	if tables, n := len(sn.Rules.Tables), sn.Rules.NumRules(); n < 4*tables || tables < 8 || len(d.Nodes) == 0 {
		t.Fatalf("%d rules in %d tables, %d nodes in the delta: too few to tell a fixed count from a per-table one", n, tables, len(d.Nodes))
	}
	checkPublish(t, sn.RulesVersion, sn.Rules, d)
	if allocs := testing.AllocsPerRun(50, func() { writeRules(sn.RulesVersion, sn.Rules, d) }); allocs > 4 {
		t.Fatalf("writing one publish's rule payloads: %v allocations, want <= 4 (%d rules in %d tables)", allocs, sn.Rules.NumRules(), len(sn.Rules.Tables))
	}
	if allocs := testing.AllocsPerRun(50, func() { allocationBody(sn.Problem, sn.Alloc) }); allocs > 1 {
		t.Fatalf("writing the allocation body: %v allocations, want <= 1 (%d flows)", allocs, len(sn.Problem.Flows))
	}
}

// BenchmarkEncodeRules writes everything one publish encodes — the
// /v1/rules body, the cached /v1/deltas body and the /v1/allocation body —
// for a real controld-drift-66 cycle: the Iridium scenario at intensity 60
// (durations scaled by 0.05, 10° mask) solved by the benchmark's SaTE model,
// the second of two cycles so the delta is a real one.
func BenchmarkEncodeRules(b *testing.B) {
	m, err := core.LoadFile(filepath.Join("..", "..", "benchmark", "model.gob"))
	if err != nil {
		b.Fatal(err)
	}
	scen := sim.NewScenario(constellation.Iridium(), sim.ScenarioConfig{
		Mode: topology.CrossShellLasers, Intensity: 60, Seed: 1, MinElevDeg: 10, FlowDurationScale: 0.05,
	})
	srv := New(scen, m)
	for _, tSec := range []float64{400.025, 401.025} {
		if err := srv.RecomputeContext(context.Background(), tSec); err != nil {
			b.Fatal(err)
		}
	}
	sn := srv.Current()
	cu := srv.Changelog().Since(sn.RulesVersion - 1)
	d := &cu.Deltas[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeRules(sn.RulesVersion, sn.Rules, d)
		allocationBody(sn.Problem, sn.Alloc)
	}
	b.ReportMetric(float64(sn.Rules.NumRules()), "rules")
	b.ReportMetric(float64(len(sn.Rules.Tables)), "tables")
}
