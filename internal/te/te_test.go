package te

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sate/internal/constellation"
	"sate/internal/groundnet"
	"sate/internal/orbit"
	"sate/internal/paths"
	"sate/internal/topology"
	"sate/internal/traffic"
)

// diamond builds a tiny 4-node problem:
//
//	0 --(a)-- 1 --(b)-- 3
//	0 --(c)-- 2 --(d)-- 3
//
// with one flow 0->3 over both 2-hop paths.
func diamond(capA, capB, capC, capD, demand float64) *Problem {
	links := []topology.Link{
		topology.MakeLink(0, 1, topology.IntraOrbit),
		topology.MakeLink(1, 3, topology.IntraOrbit),
		topology.MakeLink(0, 2, topology.IntraOrbit),
		topology.MakeLink(2, 3, topology.IntraOrbit),
	}
	p := &Problem{
		NumNodes: 4,
		Links:    links,
		LinkCap:  []float64{capA, capB, capC, capD},
		Flows: []FlowDemand{{
			Src: 0, Dst: 3, DemandMbps: demand,
			Paths: []paths.Path{paths.NewPath(0, 1, 3), paths.NewPath(0, 2, 3)},
		}},
	}
	if err := p.Finalize(); err != nil {
		panic(err)
	}
	return p
}

func TestFinalizeDropsObsoletePaths(t *testing.T) {
	p := diamond(10, 10, 10, 10, 5)
	// Add a path over a non-existent link.
	p.Flows[0].Paths = append(p.Flows[0].Paths, paths.NewPath(0, 3))
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	if len(p.Flows[0].Paths) != 2 {
		t.Errorf("paths after finalize = %d, want 2", len(p.Flows[0].Paths))
	}
}

func TestFinalizeCapMismatch(t *testing.T) {
	p := &Problem{Links: []topology.Link{topology.MakeLink(0, 1, topology.IntraOrbit)}}
	if err := p.Finalize(); err == nil {
		t.Error("expected error on cap/link mismatch")
	}
}

func TestMetrics(t *testing.T) {
	p := diamond(10, 10, 10, 10, 30)
	a := NewAllocation(p)
	a.X[0][0] = 10
	a.X[0][1] = 5
	if got := a.Throughput(); got != 15 {
		t.Errorf("throughput = %v", got)
	}
	if got := p.SatisfiedDemand(a); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("satisfied = %v", got)
	}
	loads := p.LinkLoads(a)
	want := []float64{10, 10, 5, 5}
	for i := range want {
		//lint:ignore no-float-equality small-integer link loads are exact in float64
		if loads[i] != want[i] {
			t.Errorf("load[%d] = %v want %v", i, loads[i], want[i])
		}
	}
	if got := p.MLU(a); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("MLU = %v", got)
	}
	up, down := p.NodeLoads(a)
	if up[0] != 15 || down[3] != 15 {
		t.Errorf("node loads up=%v down=%v", up, down)
	}
}

func TestCheckViolations(t *testing.T) {
	p := diamond(10, 10, 10, 10, 12)
	a := NewAllocation(p)
	a.X[0][0] = 11 // link over by 1 on links a,b; flow total 11 < 12 OK
	a.X[0][1] = -2 // negative
	v := p.Check(a)
	if v.LinkOver != 2 {
		t.Errorf("linkOver = %v want 2", v.LinkOver)
	}
	if v.Negative != 2 {
		t.Errorf("negative = %v", v.Negative)
	}
	if !v.Any(1e-9) {
		t.Error("violations not detected")
	}
	a2 := NewAllocation(p)
	a2.X[0][0] = 5
	if p.Check(a2).Any(1e-9) {
		t.Error("feasible allocation flagged")
	}
}

func TestDemandOverViolation(t *testing.T) {
	p := diamond(100, 100, 100, 100, 8)
	a := NewAllocation(p)
	a.X[0][0] = 6
	a.X[0][1] = 6
	v := p.Check(a)
	if math.Abs(v.DemandOver-4) > 1e-12 {
		t.Errorf("demandOver = %v want 4", v.DemandOver)
	}
}

func TestTrimRestoresFeasibility(t *testing.T) {
	p := diamond(10, 10, 10, 10, 12)
	a := NewAllocation(p)
	a.X[0][0] = 25
	a.X[0][1] = math.NaN()
	p.Trim(a)
	if v := p.Check(a); v.Any(1e-9) {
		t.Errorf("trim left violations: %+v", v)
	}
	if a.Throughput() <= 0 {
		t.Error("trim zeroed everything")
	}
}

func TestTrimPreservesFeasible(t *testing.T) {
	p := diamond(10, 10, 10, 10, 12)
	a := NewAllocation(p)
	a.X[0][0] = 6
	a.X[0][1] = 6
	p.Trim(a)
	if math.Abs(a.X[0][0]-6) > 1e-12 || math.Abs(a.X[0][1]-6) > 1e-12 {
		t.Errorf("feasible allocation modified: %v", a.X[0])
	}
}

func TestTrimProperty(t *testing.T) {
	p := diamond(10, 7, 4, 9, 15)
	f := func(x0, x1 float64) bool {
		a := NewAllocation(p)
		a.X[0][0] = math.Mod(x0, 100)
		a.X[0][1] = math.Mod(x1, 100)
		p.Trim(a)
		return !p.Check(a).Any(1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrimWithAccessCaps(t *testing.T) {
	p := diamond(100, 100, 100, 100, 80)
	p.UpCap = []float64{20, math.Inf(1), math.Inf(1), math.Inf(1)}
	p.DownCap = []float64{math.Inf(1), math.Inf(1), math.Inf(1), 15}
	a := NewAllocation(p)
	a.X[0][0] = 40
	a.X[0][1] = 40
	p.Trim(a)
	if v := p.Check(a); v.Any(1e-9) {
		t.Errorf("violations after trim: %+v", v)
	}
	// Downlink at node 3 (15) is the binding constraint.
	if got := a.Throughput(); got > 15+1e-9 {
		t.Errorf("throughput %v exceeds downlink cap 15", got)
	}
}

func TestFlowStats(t *testing.T) {
	p := diamond(10, 10, 10, 10, 20)
	a := NewAllocation(p)
	a.X[0][0] = 5
	st := p.FlowStats(a)
	if len(st) != 1 || math.Abs(st[0]-0.25) > 1e-12 {
		t.Errorf("stats = %v", st)
	}
}

func TestBuildFromScenario(t *testing.T) {
	cons := constellation.Toy(6, 8)
	gen := topology.NewGenerator(cons, topology.DefaultConfig(topology.CrossShellLasers))
	snap := gen.Snapshot(0)

	grid := groundnet.SyntheticPopulation(1)
	seg := groundnet.Build(grid, groundnet.Config{
		Users: 3000, UserClusters: 80, Gateways: 10, Relays: 5, Gamma: 0.1, Seed: 2,
	})
	loc := groundnet.NewSatLocator(cons)
	loc.Update(snap.Pos[:snap.NumSats])
	tg := traffic.NewGenerator(seg, traffic.DefaultConfig(40, 11))
	tg.AdvanceTo(20)
	m := tg.Matrix(loc, orbit.Deg(5), cons.Size())
	if len(m.Entries) == 0 {
		t.Fatal("no demand")
	}

	db := paths.NewDB(cons, snap, 4)
	p, err := Build(snap, m, db, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Flows) != len(m.Entries) {
		t.Errorf("flows = %d, entries = %d", len(p.Flows), len(m.Entries))
	}
	if math.Abs(p.TotalDemand()-m.Total()) > 1e-9 {
		t.Errorf("demand mismatch: %v vs %v", p.TotalDemand(), m.Total())
	}
	withPaths := 0
	for _, f := range p.Flows {
		if len(f.Paths) > 0 {
			withPaths++
		}
	}
	if withPaths == 0 {
		t.Fatal("no flow has candidate paths")
	}
	// Access caps: finite for nodes with demand.
	someFinite := false
	for _, c := range p.UpCap {
		if !math.IsInf(c, 1) {
			someFinite = true
		}
	}
	if !someFinite {
		t.Error("no finite uplink capacity")
	}
	if p.NumPaths() == 0 {
		t.Error("no path variables")
	}
}

func TestBuildRandomizedTrimAlwaysFeasible(t *testing.T) {
	cons := constellation.Toy(4, 6)
	gen := topology.NewGenerator(cons, topology.DefaultConfig(topology.CrossShellLasers))
	snap := gen.Snapshot(0)
	grid := groundnet.SyntheticPopulation(1)
	seg := groundnet.Build(grid, groundnet.Config{
		Users: 1000, UserClusters: 40, Gateways: 5, Relays: 3, Gamma: 0.2, Seed: 4,
	})
	loc := groundnet.NewSatLocator(cons)
	loc.Update(snap.Pos[:snap.NumSats])
	tg := traffic.NewGenerator(seg, traffic.DefaultConfig(30, 13))
	tg.AdvanceTo(15)
	m := tg.Matrix(loc, orbit.Deg(5), cons.Size())
	db := paths.NewDB(cons, snap, 3)
	p, err := Build(snap, m, db, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		a := NewAllocation(p)
		for fi := range a.X {
			for pi := range a.X[fi] {
				a.X[fi][pi] = (rng.Float64() - 0.1) * 500
			}
		}
		p.Trim(a)
		if v := p.Check(a); v.Any(1e-6) {
			t.Fatalf("trial %d: violations %+v", trial, v)
		}
	}
}

// TestRebindFlowsMatchesFinalize drives one problem through a random
// sequence of flow sets — growing, shrinking, with paths over absent links —
// rebinding each against its retained arrays. After every step the kept
// paths, PathLinks and incidence pairs must equal those of a freshly
// finalized copy, and both must match the path filter and hop-order link
// indices read off Path.Links.
func TestRebindFlowsMatchesFinalize(t *testing.T) {
	const n = 8 // ring 0-1-...-7-0
	links := make([]topology.Link, n)
	caps := make([]float64, n)
	index := map[uint64]int{}
	for i := range links {
		links[i] = topology.MakeLink(topology.NodeID(i), topology.NodeID((i+1)%n), topology.IntraOrbit)
		caps[i] = 10
		index[links[i].Key()] = i
	}
	rng := rand.New(rand.NewSource(5))
	randPath := func() paths.Path {
		nodes := []topology.NodeID{topology.NodeID(rng.Intn(n))}
		dir := 1 + rng.Intn(2)*(n-2) // +1 or -1 around the ring
		for h := 1 + rng.Intn(4); h > 0; h-- {
			step := dir
			if rng.Intn(6) == 0 { // never a ring neighbour: the hop's link is absent
				step = 2 + rng.Intn(n-3)
			}
			nodes = append(nodes, topology.NodeID((int(nodes[len(nodes)-1])+step)%n))
		}
		return paths.Path{Nodes: nodes}
	}
	clone := func(flows []FlowDemand) []FlowDemand {
		out := append([]FlowDemand(nil), flows...)
		for fi := range out {
			out[fi].Paths = append([]paths.Path(nil), out[fi].Paths...)
		}
		return out
	}

	rebound := &Problem{NumNodes: n, Links: links, LinkCap: caps}
	for step := 0; step < 300; step++ {
		flows := make([]FlowDemand, rng.Intn(12))
		for fi := range flows {
			flows[fi].DemandMbps = 1
			for k := rng.Intn(5); k > 0; k-- {
				flows[fi].Paths = append(flows[fi].Paths, randPath())
			}
		}
		rebound.Flows = clone(flows)
		if err := rebound.RebindFlows(); err != nil {
			t.Fatal(err)
		}
		fresh := &Problem{NumNodes: n, Links: links, LinkCap: caps, Flows: clone(flows)}
		if err := fresh.Finalize(); err != nil {
			t.Fatal(err)
		}

		var wantVars, wantLinks []int
		j := 0
		for fi, f := range flows {
			var kept []paths.Path
			for _, path := range f.Paths {
				var idx []int
				for _, l := range path.Links() {
					if li, ok := index[l.Key()]; ok {
						idx = append(idx, li)
					}
				}
				if len(idx) < path.Hops() {
					continue
				}
				pi := len(kept)
				kept = append(kept, path)
				for _, q := range []*Problem{rebound, fresh} {
					if got := q.PathLinks(fi, pi); !slices.Equal(got, idx) {
						t.Fatalf("step %d flow %d path %d: PathLinks %v, want %v", step, fi, pi, got, idx)
					}
				}
				for _, li := range idx {
					wantVars, wantLinks = append(wantVars, j), append(wantLinks, li)
				}
				j++
			}
			for _, q := range []*Problem{rebound, fresh} {
				if !slices.EqualFunc(q.Flows[fi].Paths, kept, func(a, b paths.Path) bool { return slices.Equal(a.Nodes, b.Nodes) }) {
					t.Fatalf("step %d flow %d: kept %v, want %v", step, fi, q.Flows[fi].Paths, kept)
				}
			}
		}
		for _, q := range []*Problem{rebound, fresh} {
			if vars, links := q.Incidence(); !slices.Equal(vars, wantVars) || !slices.Equal(links, wantLinks) {
				t.Fatalf("step %d: incidence (%v, %v), want (%v, %v)", step, vars, links, wantVars, wantLinks)
			}
		}
	}
}

// TestRebindFlowsZeroAllocs pins the warm rebind at zero allocations
// (DESIGN.md §8): the incidence arrays are rebuilt in retained storage and
// paths are walked node pair by node pair, one of them dropped every time.
func TestRebindFlowsZeroAllocs(t *testing.T) {
	p := diamond(10, 10, 10, 10, 5)
	base := []paths.Path{paths.NewPath(0, 1, 3), paths.NewPath(0, 3), paths.NewPath(0, 2, 3)}
	for len(p.Flows) < 64 {
		p.Flows = append(p.Flows, FlowDemand{Src: 0, Dst: 3, DemandMbps: 1})
	}
	bufs := make([][]paths.Path, len(p.Flows))
	for fi := range bufs {
		bufs[fi] = make([]paths.Path, len(base))
	}
	var err error
	rebind := func() {
		for fi := range p.Flows {
			copy(bufs[fi], base)
			p.Flows[fi].Paths = bufs[fi]
		}
		err = p.RebindFlows()
	}
	rebind() // grows the arrays to this flow set's high-water mark
	if n := testing.AllocsPerRun(100, rebind); n != 0 || err != nil {
		t.Errorf("warm RebindFlows over %d flows: %.0f allocs (err %v), want 0", len(p.Flows), n, err)
	}
	if vars, _ := p.Incidence(); len(p.Flows[63].Paths) != 2 || len(vars) != 4*len(p.Flows) {
		t.Errorf("rebind kept %d paths of the last flow and %d incidence pairs", len(p.Flows[63].Paths), len(vars))
	}
}

// TestNewAllocationAllocs pins the decoder's output buffer at three objects
// whatever the flow count: the row headers, one slab for every split ratio,
// and the Allocation itself (DESIGN.md §8).
func TestNewAllocationAllocs(t *testing.T) {
	p := diamond(10, 10, 10, 10, 5)
	for len(p.Flows) < 64 {
		p.Flows = append(p.Flows, p.Flows[0])
	}
	var a *Allocation // escapes, as it does from a solver
	if n := testing.AllocsPerRun(100, func() { a = NewAllocation(p) }); n != 3 || len(a.X) != len(p.Flows) {
		t.Errorf("NewAllocation over %d flows: %.0f allocs, want 3", len(p.Flows), n)
	}
}

// TestFlowFingerprint moves the fingerprint with every flow field a forward
// pass reads and holds it still under edits to what it leaves out: the
// access capacities and the topology side.
func TestFlowFingerprint(t *testing.T) {
	base := func() *Problem {
		p := diamond(10, 10, 10, 10, 5)
		p.Flows = append(p.Flows, FlowDemand{
			Src: 3, Dst: 0, DemandMbps: 2,
			Paths: []paths.Path{paths.NewPath(3, 1, 0), paths.NewPath(3, 2, 0)},
		})
		p.UpCap = []float64{9, 9, 9, 9}
		p.DownCap = []float64{9, 9, 9, 9}
		return p
	}
	want := base().FlowFingerprint()
	for _, tc := range []struct {
		name  string
		edit  func(p *Problem)
		moves bool
	}{
		{"nothing", func(p *Problem) {}, false},
		{"uplink capacity", func(p *Problem) { p.UpCap[1] = 1 }, false},
		{"downlink capacity", func(p *Problem) { p.DownCap[3] = math.Inf(1) }, false},
		{"access caps dropped", func(p *Problem) { p.UpCap, p.DownCap = nil, nil }, false},
		{"link capacity", func(p *Problem) { p.LinkCap[0] = 1 }, false},
		{"source", func(p *Problem) { p.Flows[1].Src = 2 }, true},
		{"destination", func(p *Problem) { p.Flows[0].Dst = 2 }, true},
		{"demand", func(p *Problem) { p.Flows[0].DemandMbps = 5.000000000000001 }, true},
		{"path dropped", func(p *Problem) { p.Flows[1].Paths = p.Flows[1].Paths[:1] }, true},
		{"paths swapped", func(p *Problem) { f := &p.Flows[0]; f.Paths[0], f.Paths[1] = f.Paths[1], f.Paths[0] }, true},
		{"path node", func(p *Problem) { p.Flows[0].Paths[1].Nodes[1] = 1 }, true},
		{"path extended", func(p *Problem) { p.Flows[0].Paths[0].Nodes = append(p.Flows[0].Paths[0].Nodes, 2) }, true},
		{"hop moved between paths", func(p *Problem) {
			f := &p.Flows[0]
			f.Paths[0].Nodes, f.Paths[1].Nodes = f.Paths[0].Nodes[:2], append(f.Paths[1].Nodes, f.Paths[0].Nodes[2])
		}, true},
		{"flows swapped", func(p *Problem) { p.Flows[0], p.Flows[1] = p.Flows[1], p.Flows[0] }, true},
		{"flow dropped", func(p *Problem) { p.Flows = p.Flows[:1] }, true},
	} {
		p := base()
		tc.edit(p)
		if moved := p.FlowFingerprint() != want; moved != tc.moves {
			t.Errorf("%s: fingerprint moved = %v, want %v", tc.name, moved, tc.moves)
		}
	}
}
