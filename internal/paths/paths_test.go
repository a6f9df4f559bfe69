package paths

import (
	"math/rand"
	"testing"

	"sate/internal/constellation"
	"sate/internal/groundnet"
	"sate/internal/topology"
)

func snapFor(c *constellation.Constellation, mode topology.CrossShellMode) *topology.Snapshot {
	cfg := topology.DefaultConfig(mode)
	if mode == topology.CrossShellGroundRelays {
		g := groundnet.SyntheticPopulation(1)
		cfg.Relays = groundnet.PlaceSites(60, g.Probabilities(0.3), rand.New(rand.NewSource(5)))
	}
	return topology.NewGenerator(c, cfg).Snapshot(0)
}

func TestPathBasics(t *testing.T) {
	p := NewPath(1, 2, 3)
	if p.Src() != 1 || p.Dst() != 3 || p.Hops() != 2 {
		t.Fatalf("path basics: %+v", p)
	}
	if p.Key() != "1-2-3" {
		t.Errorf("key = %q", p.Key())
	}
	if p.HasLoop() {
		t.Error("no loop expected")
	}
	if !NewPath(1, 2, 1).HasLoop() {
		t.Error("loop not detected")
	}
	links := p.Links()
	if len(links) != 2 || links[0] != topology.MakeLink(1, 2, topology.IntraOrbit) {
		t.Errorf("links = %v", links)
	}
}

func TestConcat(t *testing.T) {
	a := NewPath(1, 2, 3)
	b := NewPath(3, 4)
	c, ok := Concat(a, b)
	if !ok || c.Key() != "1-2-3-4" {
		t.Fatalf("concat: %v %v", c, ok)
	}
	if _, ok := Concat(a, NewPath(9, 10)); ok {
		t.Error("non-joining concat must fail")
	}
	if _, ok := Concat(a, NewPath(3, 2)); ok {
		t.Error("looping concat must fail")
	}
}

func TestDedup(t *testing.T) {
	ps := []Path{NewPath(1, 2), NewPath(1, 3), NewPath(1, 2)}
	d := Dedup(ps)
	if len(d) != 2 {
		t.Errorf("dedup -> %d", len(d))
	}
}

func TestShortestPathBFS(t *testing.T) {
	c := constellation.SingleShell(6, 8)
	s := snapFor(c, topology.CrossShellNone)
	g := GraphFrom(s)
	p, ok := g.ShortestPath(0, 3)
	if !ok {
		t.Fatal("no path")
	}
	// Slots 0 and 3 in one plane: 3 hops along the orbit.
	if p.Hops() != 3 {
		t.Errorf("hops = %d want 3", p.Hops())
	}
}

func TestKShortestProperties(t *testing.T) {
	c := constellation.SingleShell(6, 8)
	s := snapFor(c, topology.CrossShellNone)
	g := GraphFrom(s)
	links := s.LinkSet()
	ps := g.KShortest(0, 20, 10)
	if len(ps) == 0 {
		t.Fatal("no paths")
	}
	prevHops := 0
	seen := map[string]bool{}
	for _, p := range ps {
		if p.Src() != 0 || p.Dst() != 20 {
			t.Fatal("endpoints wrong")
		}
		if p.HasLoop() {
			t.Fatal("loop in k-shortest result")
		}
		if !p.ValidIn(links) {
			t.Fatal("invalid hop in result")
		}
		if p.Hops() < prevHops {
			t.Fatal("paths not sorted by hops")
		}
		prevHops = p.Hops()
		if seen[p.Key()] {
			t.Fatal("duplicate path")
		}
		seen[p.Key()] = true
	}
}

func TestKShortestMatchesYenHopCounts(t *testing.T) {
	c := constellation.SingleShell(5, 6)
	s := snapFor(c, topology.CrossShellNone)
	g := GraphFrom(s)
	for _, pair := range [][2]topology.NodeID{{0, 7}, {2, 17}, {1, 28}} {
		a := g.KShortest(pair[0], pair[1], 4)
		b := g.YenKShortest(pair[0], pair[1], 4)
		if len(a) == 0 || len(b) == 0 {
			t.Fatalf("no paths for %v", pair)
		}
		// Both must find the same minimum hop count, and the same multiset of
		// hop counts when both return k paths.
		if a[0].Hops() != b[0].Hops() {
			t.Errorf("pair %v: min hops %d vs %d", pair, a[0].Hops(), b[0].Hops())
		}
		if len(a) == len(b) {
			for i := range a {
				if a[i].Hops() != b[i].Hops() {
					t.Errorf("pair %v: path %d hops %d vs %d", pair, i, a[i].Hops(), b[i].Hops())
				}
			}
		}
	}
}

func TestYenLoopless(t *testing.T) {
	c := constellation.SingleShell(4, 5)
	s := snapFor(c, topology.CrossShellNone)
	g := GraphFrom(s)
	ps := g.YenKShortest(0, 11, 6)
	seen := map[string]bool{}
	for _, p := range ps {
		if p.HasLoop() {
			t.Fatal("Yen produced loop")
		}
		if seen[p.Key()] {
			t.Fatal("Yen produced duplicate")
		}
		seen[p.Key()] = true
	}
}

func TestTorusDelta(t *testing.T) {
	cases := []struct{ a, b, n, want int }{
		{0, 3, 10, 3},
		{3, 0, 10, -3},
		{0, 7, 10, -3},
		{9, 0, 10, 1},
		{0, 5, 10, 5},
		{2, 2, 7, 0},
	}
	for _, c := range cases {
		if got := torusDelta(c.a, c.b, c.n); got != c.want && !(c.a == 0 && c.b == 5 && got == -5) {
			t.Errorf("torusDelta(%d,%d,%d) = %d want %d", c.a, c.b, c.n, got, c.want)
		}
	}
}

func TestIntraShellPathsManhattan(t *testing.T) {
	c := constellation.SingleShell(8, 8)
	s := snapFor(c, topology.CrossShellNone)
	r := NewGridRouter(c, s)
	// (0,0) -> (2,1): Manhattan distance 3, C(3,1)=3 minimum-hop paths.
	src := c.SatAt(constellation.GridCoord{Plane: 0, Slot: 0}).ID
	dst := c.SatAt(constellation.GridCoord{Plane: 2, Slot: 1}).ID
	ps := r.IntraShellPaths(src, dst, 10)
	if len(ps) != 3 {
		t.Fatalf("paths = %d want 3", len(ps))
	}
	links := s.LinkSet()
	for _, p := range ps {
		if p.Hops() != 3 {
			t.Errorf("hops = %d want 3 (Manhattan)", p.Hops())
		}
		if !p.ValidIn(links) {
			t.Error("invalid grid path")
		}
		if p.Src() != topology.NodeID(src) || p.Dst() != topology.NodeID(dst) {
			t.Error("endpoints wrong")
		}
	}
	if len(Dedup(ps)) != 3 {
		t.Error("duplicate lattice paths")
	}
}

func TestIntraShellPathsWrapAround(t *testing.T) {
	c := constellation.SingleShell(8, 8)
	s := snapFor(c, topology.CrossShellNone)
	r := NewGridRouter(c, s)
	// (0,0) -> (7,0): wrapping is 1 hop, not 7.
	src := c.SatAt(constellation.GridCoord{Plane: 0, Slot: 0}).ID
	dst := c.SatAt(constellation.GridCoord{Plane: 7, Slot: 0}).ID
	ps := r.IntraShellPaths(src, dst, 5)
	if len(ps) == 0 || ps[0].Hops() != 1 {
		t.Fatalf("wrap-around path: %+v", ps)
	}
}

func TestGridMatchesBFSMinimumHops(t *testing.T) {
	c := constellation.SingleShell(7, 9)
	s := snapFor(c, topology.CrossShellNone)
	r := NewGridRouter(c, s)
	g := GraphFrom(s)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		a := constellation.SatID(rng.Intn(c.Size()))
		b := constellation.SatID(rng.Intn(c.Size()))
		if a == b {
			continue
		}
		ps := r.IntraShellPaths(a, b, 3)
		if len(ps) == 0 {
			t.Fatalf("grid found no path %d->%d", a, b)
		}
		bfs, _ := g.ShortestPath(topology.NodeID(a), topology.NodeID(b))
		if ps[0].Hops() != bfs.Hops() {
			t.Errorf("%d->%d: grid %d hops, BFS %d", a, b, ps[0].Hops(), bfs.Hops())
		}
	}
}

func TestInterShellLasers(t *testing.T) {
	c := constellation.Toy(6, 8)
	s := snapFor(c, topology.CrossShellLasers)
	r := NewGridRouter(c, s)
	links := s.LinkSet()
	src := c.ShellSats(0)[5].ID
	dst := c.ShellSats(1)[30].ID
	ps := r.KShortest(src, dst, 10)
	if len(ps) == 0 {
		t.Fatal("no inter-shell paths")
	}
	for _, p := range ps {
		if p.Src() != topology.NodeID(src) || p.Dst() != topology.NodeID(dst) {
			t.Fatal("bad endpoints")
		}
		if p.HasLoop() || !p.ValidIn(links) {
			t.Fatal("invalid path")
		}
	}
}

func TestInterShellGroundRelays(t *testing.T) {
	c := constellation.Toy(6, 8)
	s := snapFor(c, topology.CrossShellGroundRelays)
	r := NewGridRouter(c, s)
	links := s.LinkSet()
	src := c.ShellSats(0)[2].ID
	dst := c.ShellSats(1)[20].ID
	ps := r.KShortest(src, dst, 5)
	if len(ps) == 0 {
		t.Skip("no relay-mode path at t=0 for this pair (coverage gap)")
	}
	foundRelayHop := false
	for _, p := range ps {
		if !p.ValidIn(links) {
			t.Fatal("invalid path")
		}
		for _, n := range p.Nodes {
			if int(n) >= s.NumSats {
				foundRelayHop = true
			}
		}
	}
	if !foundRelayHop {
		t.Log("note: generic fallback avoided relays; acceptable but unexpected")
	}
}

func TestKShortestSamePair(t *testing.T) {
	c := constellation.Toy(4, 4)
	s := snapFor(c, topology.CrossShellLasers)
	r := NewGridRouter(c, s)
	if ps := r.KShortest(3, 3, 5); ps != nil {
		t.Error("src==dst must yield no paths")
	}
}

func TestDBLazyAndIncremental(t *testing.T) {
	c := constellation.Toy(6, 8)
	cfg := topology.DefaultConfig(topology.CrossShellLasers)
	gen := topology.NewGenerator(c, cfg)
	s0 := gen.Snapshot(0)
	db := NewDB(c, s0, 4)

	// Request a few pairs.
	rng := rand.New(rand.NewSource(8))
	var pairs []Pair
	for i := 0; i < 25; i++ {
		a := constellation.SatID(rng.Intn(c.Size()))
		b := constellation.SatID(rng.Intn(c.Size()))
		if a == b {
			continue
		}
		ps := db.Paths(a, b)
		if len(ps) == 0 {
			t.Fatalf("no paths %d->%d", a, b)
		}
		pairs = append(pairs, Pair{a, b})
	}
	known := db.KnownPairs()
	if known == 0 {
		t.Fatal("no pairs cached")
	}

	// Advance until the topology changes, then update.
	var s1 *topology.Snapshot
	for dt := 10.0; dt <= 1200; dt += 10 {
		s1 = gen.Snapshot(dt)
		if !s1.SameTopology(s0) {
			break
		}
	}
	if s1.SameTopology(s0) {
		t.Skip("no topology change within 20 min at toy scale")
	}
	rec := db.Update(s1)
	if rec > known {
		t.Fatalf("recomputed %d of %d pairs", rec, known)
	}
	// All cached paths must now be valid in s1.
	links := s1.LinkSet()
	for _, pr := range pairs {
		for _, p := range db.Paths(pr.Src, pr.Dst) {
			if !p.ValidIn(links) {
				t.Fatalf("stale path survived update: %s", p.Key())
			}
		}
	}
	if db.Stats.Updates != 1 || db.Stats.PairsRecomputed != rec {
		t.Errorf("stats: %+v", db.Stats)
	}
}

func TestDBUpdateNoChange(t *testing.T) {
	c := constellation.Toy(4, 6)
	gen := topology.NewGenerator(c, topology.DefaultConfig(topology.CrossShellNone))
	s0 := gen.Snapshot(0)
	db := NewDB(c, s0, 3)
	db.Paths(0, 10)
	// Same topology (intra-shell only at 53 deg never changes).
	s1 := gen.Snapshot(1)
	if rec := db.Update(s1); rec != 0 {
		t.Errorf("recomputed %d pairs on unchanged topology", rec)
	}
}

func TestObsoleteFraction(t *testing.T) {
	c := constellation.Toy(6, 8)
	gen := topology.NewGenerator(c, topology.DefaultConfig(topology.CrossShellLasers))
	s0 := gen.Snapshot(0)
	r := NewGridRouter(c, s0)
	var configured []Path
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 30; i++ {
		a := constellation.SatID(rng.Intn(c.Size()))
		b := constellation.SatID(rng.Intn(c.Size()))
		if a == b {
			continue
		}
		configured = append(configured, r.KShortest(a, b, 3)...)
	}
	if f := ObsoleteFraction(configured, s0); f != 0 {
		t.Errorf("fresh paths obsolete fraction = %v", f)
	}
	// Much later, some paths should be obsolete (cross links re-pair).
	s2 := gen.Snapshot(1800)
	f := ObsoleteFraction(configured, s2)
	if f < 0 || f > 1 {
		t.Fatalf("fraction out of range: %v", f)
	}
	if ObsoleteFraction(nil, s2) != 0 {
		t.Error("empty set must give 0")
	}
}

func TestShortestPathByDistance(t *testing.T) {
	c := constellation.Toy(6, 8)
	s := snapFor(c, topology.CrossShellLasers)
	g := GraphFrom(s)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		a := topology.NodeID(rng.Intn(c.Size()))
		b := topology.NodeID(rng.Intn(c.Size()))
		if a == b {
			continue
		}
		p, km, ok := g.ShortestPathByDistance(a, b, s.Pos)
		if !ok {
			t.Fatalf("no distance path %d->%d", a, b)
		}
		if p.Src() != a || p.Dst() != b || p.HasLoop() {
			t.Fatal("malformed distance path")
		}
		// Reported length matches the path geometry.
		if gotKm := p.LengthKm(s); gotKm-km > 1e-6 || km-gotKm > 1e-6 {
			t.Fatalf("length mismatch: %v vs %v", gotKm, km)
		}
		// Distance-optimal length cannot exceed the min-hop path's length.
		hopPath, ok2 := g.ShortestPath(a, b)
		if !ok2 {
			t.Fatal("no hop path")
		}
		if km > hopPath.LengthKm(s)+1e-6 {
			t.Errorf("distance path longer than hop path: %v > %v", km, hopPath.LengthKm(s))
		}
		if !p.ValidIn(s.LinkSet()) {
			t.Fatal("distance path uses dead links")
		}
	}
}

func TestShortestPathByDistanceTrivial(t *testing.T) {
	c := constellation.SingleShell(4, 4)
	s := snapFor(c, topology.CrossShellNone)
	g := GraphFrom(s)
	p, km, ok := g.ShortestPathByDistance(3, 3, s.Pos)
	if !ok || km != 0 || p.Hops() != 0 {
		t.Errorf("self path: %v %v %v", p, km, ok)
	}
	// Disconnected: isolated snapshot.
	empty := &topology.Snapshot{NumSats: 4, NumNodes: 4, Pos: s.Pos[:4]}
	empty.Finalize()
	ge := GraphFrom(empty)
	if _, _, ok := ge.ShortestPathByDistance(0, 3, empty.Pos); ok {
		t.Error("disconnected nodes should have no path")
	}
}

func TestKShortestCrossShellProperty(t *testing.T) {
	// Property: for random cross-shell pairs, every returned path is valid,
	// loop-free, correctly terminated, and no longer than twice the BFS
	// minimum (the grid composition may detour via the nearest cross link).
	c := constellation.Toy(6, 8)
	s := snapFor(c, topology.CrossShellLasers)
	r := NewGridRouter(c, s)
	g := GraphFrom(s)
	links := s.LinkSet()
	rng := rand.New(rand.NewSource(21))
	checked := 0
	for i := 0; i < 60 && checked < 30; i++ {
		a := c.ShellSats(0)[rng.Intn(48)].ID
		b := c.ShellSats(1)[rng.Intn(48)].ID
		ps := r.KShortest(a, b, 6)
		if len(ps) == 0 {
			continue
		}
		bfs, ok := g.ShortestPath(topology.NodeID(a), topology.NodeID(b))
		if !ok {
			continue
		}
		checked++
		for _, p := range ps {
			if p.Src() != topology.NodeID(a) || p.Dst() != topology.NodeID(b) {
				t.Fatalf("endpoints wrong for %d->%d", a, b)
			}
			if p.HasLoop() || !p.ValidIn(links) {
				t.Fatalf("invalid path %s", p.Key())
			}
		}
		if ps[0].Hops() > 2*bfs.Hops()+4 {
			t.Errorf("%d->%d: grid best %d hops, BFS %d", a, b, ps[0].Hops(), bfs.Hops())
		}
	}
	if checked < 10 {
		t.Fatalf("only %d pairs checked", checked)
	}
}

func TestGridRouterDeterministic(t *testing.T) {
	c := constellation.Toy(5, 6)
	s := snapFor(c, topology.CrossShellLasers)
	r1 := NewGridRouter(c, s)
	r2 := NewGridRouter(c, s)
	for _, pair := range [][2]constellation.SatID{{0, 45}, {3, 31}, {10, 58}} {
		a := r1.KShortest(pair[0], pair[1], 5)
		b := r2.KShortest(pair[0], pair[1], 5)
		if len(a) != len(b) {
			t.Fatalf("pair %v: %d vs %d paths", pair, len(a), len(b))
		}
		for i := range a {
			if a[i].Key() != b[i].Key() {
				t.Fatalf("pair %v path %d differs", pair, i)
			}
		}
	}
}
