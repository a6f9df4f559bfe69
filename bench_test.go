// Kernel micro-benchmarks of the hot components (solvers, topology
// generation, path computation, trim, rule compilation), run with plain
// `go test -bench`. Whole TE cycles — inference, sharding, serving, the
// packet engine — are measured by `go run ./benchmark` (BENCHMARK.json);
// the paper's tables and figures regenerate with `sate bench`.
package sate

import (
	"bytes"
	"testing"

	"sate/internal/baselines"
	"sate/internal/constellation"
	"sate/internal/graphembed"
	"sate/internal/paths"
	"sate/internal/rules"
	"sate/internal/sim"
	"sate/internal/te"
	"sate/internal/topology"
)

func benchProblem(b testing.TB, cons *constellation.Constellation, intensity float64) (*sim.Scenario, *te.Problem) {
	b.Helper()
	s := sim.NewScenario(cons, sim.ScenarioConfig{
		Mode:       topology.CrossShellLasers,
		Intensity:  intensity,
		Seed:       1,
		MinElevDeg: 10,
	})
	p, _, _, err := s.ProblemAt(30)
	if err != nil {
		b.Fatal(err)
	}
	return s, p
}

func BenchmarkGKSolver(b *testing.B) {
	_, p := benchProblem(b, constellation.Iridium(), 60)
	solver := baselines.GK{Epsilon: 0.05}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkECMPWF(b *testing.B) {
	_, p := benchProblem(b, constellation.Iridium(), 60)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (baselines.ECMPWF{}).Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopologySnapshotStarlink(b *testing.B) {
	cons := constellation.StarlinkPhase1()
	gen := topology.NewGenerator(cons, topology.DefaultConfig(topology.CrossShellLasers))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gen.Snapshot(float64(i) * 0.0125)
	}
}

func BenchmarkGridKShortestStarlink(b *testing.B) {
	cons := constellation.StarlinkPhase1()
	gen := topology.NewGenerator(cons, topology.DefaultConfig(topology.CrossShellLasers))
	snap := gen.Snapshot(0)
	router := paths.NewGridRouter(cons, snap)
	// Build the lazily-constructed generic fallback graph before timing.
	// Without this, short -benchtime runs amortise its one-time cost over a
	// handful of iterations and report thousands of phantom allocs/op.
	router.Prewarm()
	router.KShortest(0, constellation.SatID(cons.Size()/2), 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := constellation.SatID(i * 97 % cons.Size()) // deterministic spread
		c := constellation.SatID((i*389 + 1) % cons.Size())
		if a != c {
			router.KShortest(a, c, 10)
		}
	}
}

func BenchmarkYenKShortest(b *testing.B) {
	cons := constellation.Iridium()
	gen := topology.NewGenerator(cons, topology.DefaultConfig(topology.CrossShellNone))
	snap := gen.Snapshot(0)
	g := paths.GraphFrom(snap)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.YenKShortest(topology.NodeID(i%60), topology.NodeID((i+33)%66), 10)
	}
}

func BenchmarkGraphEmbed(b *testing.B) {
	cons := constellation.MidSize1()
	gen := topology.NewGenerator(cons, topology.DefaultConfig(topology.CrossShellLasers))
	snap := gen.Snapshot(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		graphembed.Embed(snap, 128, 3)
	}
}

func BenchmarkTrimAllocation(b *testing.B) {
	_, p := benchProblem(b, constellation.Iridium(), 120)
	a, err := (baselines.ECMPWF{}).Solve(p)
	if err != nil {
		b.Fatal(err)
	}
	// Inflate to force trimming work each iteration.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := te.NewAllocation(p)
		for fi := range c.X {
			for pi := range c.X[fi] {
				c.X[fi][pi] = 3 * a.X[fi][pi]
			}
		}
		p.Trim(c)
	}
}

func BenchmarkRuleCompilation(b *testing.B) {
	_, p := benchProblem(b, constellation.Iridium(), 60)
	a, err := (baselines.ECMPWF{}).Solve(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := rules.Compile(p, a)
		if rs.NumRules() == 0 {
			b.Fatal("no rules")
		}
	}
}

func BenchmarkSnapshotSerialization(b *testing.B) {
	cons := constellation.MidSize1()
	gen := topology.NewGenerator(cons, topology.DefaultConfig(topology.CrossShellLasers))
	snap := gen.Snapshot(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := snap.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := topology.ReadSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
