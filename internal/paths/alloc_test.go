package paths

import (
	"testing"

	"sate/internal/constellation"
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
