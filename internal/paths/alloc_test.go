package paths

import (
	"testing"

	"sate/internal/constellation"
	"sate/internal/par"
	"sate/internal/topology"
)

// TestGridKShortestSteadyAllocs pins the steady-state allocation cost of a
// pooled KShortest query. A warm query allocates only the returned paths
// (the result slice plus each path's node storage — a few dozen objects for
// k=10); the search itself runs on the router's recycled slab heap and
// scratch. The bound is a generous margin over the ~80 objects a
// long-route query returns, and two orders of magnitude below the
// thousands/op a benchmark run records when a short -benchtime
// amortises the lazily-built generic fallback graph into the per-query
// figure (see BenchmarkGridKShortestStarlink's Prewarm).
func TestGridKShortestSteadyAllocs(t *testing.T) {
	cons := constellation.StarlinkPhase1()
	gen := topology.NewGenerator(cons, topology.DefaultConfig(topology.CrossShellLasers))
	snap := gen.Snapshot(0)
	router := NewGridRouter(cons, snap)
	router.Prewarm()
	const limit = 128
	for _, q := range [][2]int{{0, cons.Size() / 2}, {97, 390}, {485, 1}} {
		a, c := constellation.SatID(q[0]), constellation.SatID(q[1])
		router.KShortest(a, c, 10) // warm per-query pools
		n := testing.AllocsPerRun(20, func() { router.KShortest(a, c, 10) })
		if n > limit {
			t.Errorf("KShortest(%d, %d, 10): %.0f allocs/query, want <= %d", a, c, n, limit)
		}
	}
}

// TestDBSteadyAllocs pins the path database's two per-cycle entry points in
// the steady state (DESIGN.md §8). A cache hit in Paths allocates nothing,
// nor does the sharded solver's per-path range test on what it returns.
// An Update to a new snapshot of an unchanged topology recomputes no pair
// and pays only Snapshot.Diff's two link sets — 6 objects at Iridium's 66
// satellites, growing with the link count, never with the cached pairs.
func TestDBSteadyAllocs(t *testing.T) {
	defer par.SetWorkers(1)()
	cons := constellation.Iridium()
	gen := topology.NewGenerator(cons, topology.DefaultConfig(topology.CrossShellLasers))
	db := NewDB(cons, gen.Snapshot(0), 4)
	var pairs []Pair
	for a := 0; a < cons.Size(); a += 5 {
		for c := 1; c < cons.Size(); c += 7 {
			if a != c {
				pairs = append(pairs, Pair{constellation.SatID(a), constellation.SatID(c)})
			}
		}
	}
	db.Precompute(pairs)

	if n := testing.AllocsPerRun(100, func() {
		for _, p := range pairs {
			for _, q := range db.Paths(p.Src, p.Dst) {
				q.WithinRange(0, topology.NodeID(cons.Size()/2))
			}
		}
	}); n != 0 {
		t.Errorf("Paths + WithinRange on %d cached pairs: %.0f allocs, want 0", len(pairs), n)
	}

	same := gen.Snapshot(0)
	const limit = 8
	if n := testing.AllocsPerRun(20, func() {
		if db.Update(same) != 0 {
			panic("unchanged topology recomputed pairs")
		}
	}); n > limit {
		t.Errorf("Update on an unchanged topology with %d cached pairs: %.0f allocs, want <= %d", len(pairs), n, limit)
	}
}
