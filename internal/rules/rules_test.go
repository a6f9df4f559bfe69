package rules_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sate/internal/baselines"
	"sate/internal/constellation"
	"sate/internal/par"
	"sate/internal/paths"
	"sate/internal/rules"
	"sate/internal/sim"
	"sate/internal/te"
	"sate/internal/topology"
)

// diamond: flow 0->3 over two 2-hop paths.
func diamond(demand float64) *te.Problem {
	links := []topology.Link{
		topology.MakeLink(0, 1, topology.IntraOrbit),
		topology.MakeLink(1, 3, topology.IntraOrbit),
		topology.MakeLink(0, 2, topology.IntraOrbit),
		topology.MakeLink(2, 3, topology.IntraOrbit),
	}
	p := &te.Problem{
		NumNodes: 4,
		Links:    links,
		LinkCap:  []float64{10, 10, 10, 10},
		Flows: []te.FlowDemand{{
			Src: 0, Dst: 3, DemandMbps: demand,
			Paths: []paths.Path{paths.NewPath(0, 1, 3), paths.NewPath(0, 2, 3)},
		}},
	}
	if err := p.Finalize(); err != nil {
		panic(err)
	}
	return p
}

func TestCompileDiamond(t *testing.T) {
	p := diamond(30)
	a := te.NewAllocation(p)
	a.X[0][0] = 10
	a.X[0][1] = 5

	rs := rules.Compile(p, a)
	// Node 0 carries both labels: label 0 (rate 10) to node 1, label 1
	// (rate 5) to node 2.
	t0 := rs.Tables[0]
	if t0 == nil || len(t0.Rules) != 2 {
		t.Fatalf("node 0 table: %+v", t0)
	}
	if t0.Rules[0].Label != 0 || t0.Rules[0].Next != 1 || t0.Rules[0].RateMbps != 10 {
		t.Errorf("node 0 rule 0: %+v", t0.Rules[0])
	}
	if t0.Rules[1].Label != 1 || t0.Rules[1].Next != 2 || t0.Rules[1].RateMbps != 5 {
		t.Errorf("node 0 rule 1: %+v", t0.Rules[1])
	}
	// Nodes 1 and 2 forward their label to 3.
	for _, n := range []topology.NodeID{1, 2} {
		tbl := rs.Tables[n]
		if tbl == nil || len(tbl.Rules) != 1 || tbl.Rules[0].Next != 3 {
			t.Errorf("node %d table: %+v", n, tbl)
		}
	}
	// The destination has no forwarding rules.
	if rs.Tables[3] != nil {
		t.Errorf("destination has rules: %+v", rs.Tables[3])
	}
	if rs.NumRules() != 4 {
		t.Errorf("rule count = %d want 4", rs.NumRules())
	}
	if err := rules.Verify(p, a, rs); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestCompileLabelsStayDistinct(t *testing.T) {
	// Two paths of one flow sharing their first hop must remain separate
	// labelled rules (label switching preserves path identity).
	links := []topology.Link{
		topology.MakeLink(0, 1, topology.IntraOrbit),
		topology.MakeLink(1, 2, topology.IntraOrbit),
		topology.MakeLink(1, 3, topology.IntraOrbit),
		topology.MakeLink(2, 4, topology.IntraOrbit),
		topology.MakeLink(3, 4, topology.IntraOrbit),
	}
	p := &te.Problem{
		NumNodes: 5,
		Links:    links,
		LinkCap:  []float64{100, 100, 100, 100, 100},
		Flows: []te.FlowDemand{{
			Src: 0, Dst: 4, DemandMbps: 20,
			Paths: []paths.Path{paths.NewPath(0, 1, 2, 4), paths.NewPath(0, 1, 3, 4)},
		}},
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	a := te.NewAllocation(p)
	a.X[0][0] = 7
	a.X[0][1] = 3
	rs := rules.Compile(p, a)
	t0 := rs.Tables[0]
	if len(t0.Rules) != 2 {
		t.Fatalf("node 0 should carry both labels: %+v", t0.Rules)
	}
	if t0.Rules[0].RateMbps != 7 || t0.Rules[1].RateMbps != 3 {
		t.Fatalf("node 0 should split 7 and 3: %+v", t0.Rules)
	}
	// Node 1 forwards label 0 to node 2 and label 1 to node 3, as a transit
	// hop: rate 0.
	t1 := rs.Tables[1]
	if len(t1.Rules) != 2 || t1.Rules[0].Next != 2 || t1.Rules[0].RateMbps != 0 ||
		t1.Rules[1].Next != 3 || t1.Rules[1].RateMbps != 0 {
		t.Fatalf("node 1 rules: %+v", t1.Rules)
	}
	if err := rules.Verify(p, a, rs); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	p := diamond(30)
	a := te.NewAllocation(p)
	a.X[0][0] = 10
	rs := rules.Compile(p, a)
	// Corrupt: the ingress halves the rate of its rule.
	rs.Tables[0].Rules[0].RateMbps = 5
	if err := rules.Verify(p, a, rs); err == nil {
		t.Error("corrupted ingress rate passed verification")
	}
	// Corrupt: transit node 1 carries a rate; only the ingress splits.
	rs = rules.Compile(p, a)
	rs.Tables[1].Rules[0].RateMbps = 10
	if err := rules.Verify(p, a, rs); err == nil || !strings.Contains(err.Error(), "transit node 1") {
		t.Errorf("a rate at a transit hop: Verify = %v", err)
	}
}

// TestVerifyRejectsNonFiniteRates: a NaN or infinite allocated rate compiles
// into rules that carry it, and Verify must refuse them rather than let them
// be published.
func TestVerifyRejectsNonFiniteRates(t *testing.T) {
	for _, rate := range []float64{math.NaN(), math.Inf(1)} {
		p := diamond(30)
		a := te.NewAllocation(p)
		a.X[0][0] = rate
		rs := rules.Compile(p, a)
		if rs.NumRules() == 0 {
			t.Fatalf("rate %v: no rules compiled", rate)
		}
		if err := rules.Verify(p, a, rs); err == nil {
			t.Errorf("rate %v passed verification", rate)
		}
	}
}

// TestVerifyReportsShuffledTable: Table.Rules sorted by (src, dst, label) is
// an invariant lookups rely on, so a table holding the right rules in the
// wrong order is an inconsistency Verify names — not a rule it fails to find.
func TestVerifyReportsShuffledTable(t *testing.T) {
	p := diamond(30)
	a := te.NewAllocation(p)
	a.X[0][0] = 10
	a.X[0][1] = 5
	rs := rules.Compile(p, a)
	if err := rules.Verify(p, a, rs); err != nil {
		t.Fatalf("compiled rules: %v", err)
	}
	r := rs.Tables[0].Rules
	r[0], r[1] = r[1], r[0]
	err := rules.Verify(p, a, rs)
	if err == nil || !strings.Contains(err.Error(), "table at node 0 is not strictly sorted") {
		t.Errorf("shuffled table at node 0: Verify = %v, want the order inconsistency", err)
	}
	// With two bad tables Verify names the lower node, whichever side of the
	// problem's nodes (0-3) the other one lies.
	unsorted := func(node topology.NodeID) *rules.Table {
		return &rules.Table{Node: node, Rules: []rules.Rule{
			{Flow: rules.FlowKey{Src: 1, Dst: 2}, Next: 3}, {Flow: rules.FlowKey{Src: 0, Dst: 2}, Next: 3},
		}}
	}
	for _, c := range []struct {
		other, want topology.NodeID
	}{{7, 0}, {-1, -1}} {
		rs.Tables[c.other] = unsorted(c.other)
		want := fmt.Sprintf("table at node %d is not strictly sorted", c.want)
		if err := rules.Verify(p, a, rs); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("bad tables at nodes 0 and %d: Verify = %v, want %q", c.other, err, want)
		}
		delete(rs.Tables, c.other)
	}
	// A duplicated key breaks "strictly" too.
	r[0] = r[1]
	if err := rules.Verify(p, a, rs); err == nil {
		t.Error("table with a duplicated (flow, label) passed verification")
	}
}

func TestCompileZeroAllocation(t *testing.T) {
	p := diamond(30)
	a := te.NewAllocation(p)
	rs := rules.Compile(p, a)
	if rs.NumRules() != 0 {
		t.Errorf("zero allocation produced %d rules", rs.NumRules())
	}
	if err := rules.Verify(p, a, rs); err != nil {
		t.Errorf("verify empty: %v", err)
	}
}

func TestCompileEndToEndScenario(t *testing.T) {
	// Full pipeline: scenario -> LP allocation -> rules -> conservation.
	s := sim.NewScenario(constellation.Toy(5, 6), sim.ScenarioConfig{
		Mode:              topology.CrossShellLasers,
		Intensity:         6,
		Seed:              3,
		MinElevDeg:        5,
		FlowDurationScale: 0.05,
	})
	p, _, _, err := s.ProblemAt(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Flows) == 0 {
		t.Skip("no flows")
	}
	a, err := (baselines.LPAuto{}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	rs := rules.Compile(p, a)
	if err := rules.Verify(p, a, rs); err != nil {
		t.Fatalf("end-to-end rule verification: %v", err)
	}
	if rs.NumRules() == 0 {
		t.Error("no rules compiled from a non-zero allocation")
	}
}

func TestCompileLinkLoadsMatchProperty(t *testing.T) {
	// Property: for any feasible allocation, link loads recomputed from the
	// compiled rules equal the problem's own link-load accounting.
	s := sim.NewScenario(constellation.Toy(5, 6), sim.ScenarioConfig{
		Mode:              topology.CrossShellLasers,
		Intensity:         6,
		Seed:              5,
		MinElevDeg:        5,
		FlowDurationScale: 0.05,
	})
	p, _, _, err := s.ProblemAt(120)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Flows) == 0 {
		t.Skip("no flows")
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		a := te.NewAllocation(p)
		for fi := range a.X {
			for pi := range a.X[fi] {
				a.X[fi][pi] = rng.Float64() * 100
			}
		}
		p.Trim(a) // make it feasible (and clamp negatives)
		rs := rules.Compile(p, a)
		if err := rules.Verify(p, a, rs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		fromRules := rules.LinkLoadsFromRules(p, rs)
		wantLoads := p.LinkLoads(a)
		for li, l := range p.Links {
			key := uint64(l.A)<<32 | uint64(uint32(l.B))
			got := fromRules[key]
			if diff := got - wantLoads[li]; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("trial %d link %d: rules %v, problem %v", trial, li, got, wantLoads[li])
			}
		}
	}
}

// refCompile is the direct spelling of rules.Compile: a map probe per hop,
// an append per rule and a sort per table; the rate at a path's first hop,
// 0 at the others. TestCompileMatchesReference holds
// Compile to it.
func refCompile(p *te.Problem, a *te.Allocation) *rules.RuleSet {
	rs := &rules.RuleSet{Tables: make(map[topology.NodeID]*rules.Table)}
	for fi := range p.Flows {
		f := &p.Flows[fi]
		key := rules.FlowKey{Src: f.Src, Dst: f.Dst}
		for pi, path := range f.Paths {
			if a.X[fi][pi] <= 0 {
				continue
			}
			for h := 0; h+1 < len(path.Nodes); h++ {
				node, next := path.Nodes[h], path.Nodes[h+1]
				rate := 0.0
				if h == 0 {
					rate = a.X[fi][pi]
				}
				tbl := rs.Tables[node]
				if tbl == nil {
					tbl = &rules.Table{Node: node}
					rs.Tables[node] = tbl
				}
				tbl.Rules = append(tbl.Rules, rules.Rule{
					Flow: key, Label: pi, Next: next, RateMbps: rate,
				})
			}
		}
	}
	for _, tbl := range rs.Tables {
		slices.SortFunc(tbl.Rules, rules.CompareKey)
	}
	return rs
}

// TestCompileMatchesReference compiles random valid problems — flows in
// random order over a few nodes that many of them share, loop-free paths of
// one to six nodes, positive, zero and negative rates — and requires the
// rule set to deep-equal refCompile's. Half the problems leave NumNodes
// unset, so the per-node counts grow as nodes turn up.
func TestCompileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(10)
		p := &te.Problem{NumNodes: n * (trial % 2)}
		seen := map[rules.FlowKey]bool{}
		for f := rng.Intn(3 * n); f > 0; f-- {
			key := rules.FlowKey{Src: topology.NodeID(rng.Intn(n)), Dst: topology.NodeID(rng.Intn(n))}
			if seen[key] {
				continue
			}
			seen[key] = true
			fd := te.FlowDemand{Src: key.Src, Dst: key.Dst, DemandMbps: 1}
			for k := rng.Intn(4); k > 0; k-- {
				nodes := []topology.NodeID{key.Src}
				if key.Src != key.Dst {
					for _, v := range rng.Perm(n)[:rng.Intn(min(n, 5))] {
						if v := topology.NodeID(v); v != key.Src && v != key.Dst {
							nodes = append(nodes, v)
						}
					}
					nodes = append(nodes, key.Dst)
				}
				fd.Paths = append(fd.Paths, paths.Path{Nodes: nodes})
			}
			p.Flows = append(p.Flows, fd)
		}
		a := te.NewAllocation(p)
		for fi := range a.X {
			for pi := range a.X[fi] {
				switch rng.Intn(4) {
				case 0:
					a.X[fi][pi] = 0
				case 1:
					a.X[fi][pi] = -rng.Float64()
				default:
					a.X[fi][pi] = rng.Float64() * 50
				}
			}
		}
		got, want := rules.Compile(p, a), refCompile(p, a)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d flows over %d nodes): Compile differs from the reference", trial, len(p.Flows), n)
		}
	}
}

// diamonds: n disjoint copies of diamond, flow k from 4k to 4k+3, each
// allocated on both paths.
func diamonds(n int) (*te.Problem, *te.Allocation) {
	p := &te.Problem{NumNodes: 4 * n}
	for k := 0; k < n; k++ {
		b := topology.NodeID(4 * k)
		p.Links = append(p.Links,
			topology.MakeLink(b, b+1, topology.IntraOrbit),
			topology.MakeLink(b+1, b+3, topology.IntraOrbit),
			topology.MakeLink(b, b+2, topology.IntraOrbit),
			topology.MakeLink(b+2, b+3, topology.IntraOrbit))
		p.LinkCap = append(p.LinkCap, 10, 10, 10, 10)
		p.Flows = append(p.Flows, te.FlowDemand{
			Src: b, Dst: b + 3, DemandMbps: 20,
			Paths: []paths.Path{paths.NewPath(b, b+1, b+3), paths.NewPath(b, b+2, b+3)},
		})
	}
	if err := p.Finalize(); err != nil {
		panic(err)
	}
	a := te.NewAllocation(p)
	for fi := range a.X {
		a.X[fi][0], a.X[fi][1] = 4, 6
	}
	return p, a
}

// TestVerifyErrorIndependentOfWorkers: with two flows corrupted in different
// chunks of the parallel walk, Verify names the lower one — the error a walk
// in flow order meets first — at every worker count, and passes the intact
// set at every worker count.
func TestVerifyErrorIndependentOfWorkers(t *testing.T) {
	p, a := diamonds(200)
	rs := rules.Compile(p, a)
	for _, workers := range []int{1, 2, 8} {
		restore := par.SetWorkers(workers)
		err := rules.Verify(p, a, rs)
		restore()
		if err != nil {
			t.Fatalf("workers=%d: intact rules: %v", workers, err)
		}
	}
	// Flow 50: a wrong rate at its first hop. Flow 170: no rule at node 681.
	rs.Tables[200].Rules[0].RateMbps = 5
	delete(rs.Tables, 681)
	const want = "rules: flow 200->203 label 0 at node 200: rate 5.000000, allocated 4.000000"
	for _, workers := range []int{1, 2, 8} {
		restore := par.SetWorkers(workers)
		err := rules.Verify(p, a, rs)
		restore()
		if err == nil || err.Error() != want {
			t.Errorf("workers=%d: Verify = %v, want %q", workers, err, want)
		}
	}
}
