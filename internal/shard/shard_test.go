package shard_test

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"sate/internal/baselines"
	"sate/internal/constellation"
	"sate/internal/core"
	"sate/internal/par"
	"sate/internal/paths"
	"sate/internal/shard"
	"sate/internal/sim"
	"sate/internal/solve"
	"sate/internal/te"
	"sate/internal/topology"
	"sate/internal/traffic"
)

// scenarioProblem builds a finalized TE problem from a scenario snapshot.
func scenarioProblem(t testing.TB, cons *constellation.Constellation, intensity float64) *te.Problem {
	t.Helper()
	s := sim.NewScenario(cons, sim.ScenarioConfig{
		Mode:       topology.CrossShellLasers,
		Intensity:  intensity,
		Seed:       1,
		MinElevDeg: 10,
	})
	p, _, _, err := s.ProblemAt(30)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// cons2k is a single-shell ~2k-satellite constellation (32 planes x 66).
func cons2k() *constellation.Constellation {
	return constellation.MustNew("walker-2k", []constellation.Shell{{
		Name: "shell", AltitudeKm: 550, InclinationDeg: 53,
		Planes: 32, SatsPerPlane: 66, PhaseFactor: 17, RAANSpanDeg: 360,
	}})
}

func allocEqual(a, b *te.Allocation) bool {
	if len(a.X) != len(b.X) {
		return false
	}
	for i := range a.X {
		if len(a.X[i]) != len(b.X[i]) {
			return false
		}
		for j := range a.X[i] {
			// Bitwise comparison on purpose: shards=1 must reproduce the
			// monolithic allocation exactly, not approximately.
			if math.Float64bits(a.X[i][j]) != math.Float64bits(b.X[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestShardedEquivalence is the acceptance gate of the sharded solver:
// shards=1 is bitwise-identical to the monolithic inner solve, and shards=4
// and shards=16 stay within 2% satisfied demand of monolithic while
// remaining feasible, on MidSize1 and on a ~2k-satellite constellation —
// deterministically across worker counts.
func TestShardedEquivalence(t *testing.T) {
	cases := []struct {
		name      string
		cons      *constellation.Constellation
		intensity float64
	}{
		{"midsize1", constellation.MidSize1(), 125},
		{"walker2k", cons2k(), 60},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := scenarioProblem(t, tc.cons, tc.intensity)
			inner := baselines.GK{Epsilon: 0.05}
			mono, err := inner.Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			monoSat := p.SatisfiedDemand(mono)

			one, err := shard.New(inner, 1).Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			if !allocEqual(mono, one) {
				t.Fatal("shards=1 is not bitwise-identical to the monolithic solve")
			}

			for _, k := range []int{4, 16} {
				s := shard.New(inner, k)
				a, err := s.Solve(p)
				if err != nil {
					t.Fatalf("shards=%d: %v", k, err)
				}
				if v := p.Check(a); v.Any(1e-6) {
					t.Fatalf("shards=%d: infeasible allocation: %+v", k, v)
				}
				sat := p.SatisfiedDemand(a)
				if monoSat-sat > 0.02 {
					t.Fatalf("shards=%d: satisfied demand %.4f vs monolithic %.4f (gap %.4f > 2%%)",
						k, sat, monoSat, monoSat-sat)
				}
				t.Logf("shards=%d: satisfied %.4f (monolithic %.4f), stats %+v", k, sat, monoSat, s.Stats)

				// Bitwise determinism across worker counts.
				restore := par.SetWorkers(1)
				a1, err := shard.New(inner, k).Solve(p)
				restore()
				if err != nil {
					t.Fatal(err)
				}
				restore = par.SetWorkers(4)
				a4, err := shard.New(inner, k).Solve(p)
				restore()
				if err != nil {
					t.Fatal(err)
				}
				if !allocEqual(a1, a4) || !allocEqual(a1, a) {
					t.Fatalf("shards=%d: allocation differs across worker counts", k)
				}
			}
		})
	}
}

// handProblem builds an 8-node line problem whose partition at k=4 is the
// pairs {0,1} {2,3} {4,5} {6,7}: flows 0..2 are internal to shards 0..2 and
// flow 3 crosses the 1-2 cut.
func handProblem() *te.Problem {
	line := func(ns ...topology.NodeID) paths.Path { return paths.Path{Nodes: ns} }
	p := &te.Problem{
		NumNodes: 8,
		Links: []topology.Link{
			topology.MakeLink(0, 1, topology.IntraOrbit),
			topology.MakeLink(1, 2, topology.IntraOrbit),
			topology.MakeLink(2, 3, topology.IntraOrbit),
			topology.MakeLink(4, 5, topology.IntraOrbit),
			topology.MakeLink(6, 7, topology.IntraOrbit),
		},
		LinkCap: []float64{10, 10, 10, 10, 10},
		Flows: []te.FlowDemand{
			{Src: 0, Dst: 1, DemandMbps: 4, Paths: []paths.Path{line(0, 1)}},
			{Src: 2, Dst: 3, DemandMbps: 4, Paths: []paths.Path{line(2, 3)}},
			{Src: 4, Dst: 5, DemandMbps: 4, Paths: []paths.Path{line(4, 5)}},
			{Src: 1, Dst: 3, DemandMbps: 4, Paths: []paths.Path{line(1, 2, 3)}},
		},
	}
	if err := p.Finalize(); err != nil {
		panic(err)
	}
	return p
}

// TestShardedDirtySet verifies the incremental per-cycle machinery: a second
// solve over an unchanged link set marks every shard clean, and a capacity
// change dirties exactly the owning shard.
func TestShardedDirtySet(t *testing.T) {
	p := handProblem()
	s := shard.New(baselines.GK{Epsilon: 0.05}, 4)

	a, err := s.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats.Shards != 4 || s.Stats.DirtyShards != 4 {
		t.Fatalf("first cycle: want 4/4 dirty shards, got %+v", s.Stats)
	}
	if s.Stats.InternalFlows != 3 || s.Stats.BoundaryFlows != 1 {
		t.Fatalf("want 3 internal + 1 boundary flow, got %+v", s.Stats)
	}
	if v := p.Check(a); v.Any(1e-9) {
		t.Fatalf("infeasible: %+v", v)
	}
	// Uncongested line: every flow should be fully satisfied, including the
	// boundary one (the regional solves leave the cut links untouched).
	if sat := p.SatisfiedDemand(a); sat < 1-1e-9 {
		t.Fatalf("uncongested problem not fully satisfied: %.6f", sat)
	}

	b, err := s.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats.DirtyShards != 0 {
		t.Fatalf("unchanged cycle: want 0 dirty shards, got %d", s.Stats.DirtyShards)
	}
	if !allocEqual(a, b) {
		t.Fatal("clean replay changed the allocation")
	}

	// Shrink the capacity of link (4,5) — intra to shard 2 only.
	p.LinkCap[3] = 2
	c, err := s.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats.DirtyShards != 1 {
		t.Fatalf("capacity change: want 1 dirty shard, got %d", s.Stats.DirtyShards)
	}
	if got := c.X[2][0]; got > 2+1e-9 {
		t.Fatalf("flow 2 exceeds shrunk capacity: %f", got)
	}
}

// TestShardedBoundaryResiduals pins the reconciliation semantics in both
// orders: the dominant demand class solves first against the full
// capacities and the minority class is squeezed to the residuals of the
// shared link (0,1).
func TestShardedBoundaryResiduals(t *testing.T) {
	line := func(ns ...topology.NodeID) paths.Path { return paths.Path{Nodes: ns} }
	build := func(intDem, bndDem float64) *te.Problem {
		p := &te.Problem{
			NumNodes: 4, // k=2 -> shards {0,1} and {2,3}
			Links: []topology.Link{
				topology.MakeLink(0, 1, topology.IntraOrbit),
				topology.MakeLink(1, 2, topology.IntraOrbit),
			},
			LinkCap: []float64{10, 10},
			Flows: []te.FlowDemand{
				// Internal to shard 0, sharing link (0,1) with the boundary flow.
				{Src: 0, Dst: 1, DemandMbps: intDem, Paths: []paths.Path{line(0, 1)}},
				// Boundary: needs (0,1) and the cut link (1,2).
				{Src: 0, Dst: 2, DemandMbps: bndDem, Paths: []paths.Path{line(0, 1, 2)}},
			},
		}
		if err := p.Finalize(); err != nil {
			t.Fatal(err)
		}
		return p
	}

	t.Run("internal-first", func(t *testing.T) {
		// Internal demand 6 dominates boundary demand 5: the shard keeps its
		// full 6 and the boundary flow is squeezed to the residual 4.
		p := build(6, 5)
		s := shard.New(baselines.GK{Epsilon: 0.01}, 2)
		a, err := s.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if s.Stats.BoundaryFirst {
			t.Fatal("internal demand dominates but the boundary solved first")
		}
		if v := p.Check(a); v.Any(1e-9) {
			t.Fatalf("infeasible: %+v", v)
		}
		if got := a.X[0][0]; math.Abs(got-6) > 1e-6 {
			t.Fatalf("internal flow: want 6, got %f", got)
		}
		if got := a.X[1][0]; got > 4+1e-6 || got < 4-0.2 {
			t.Fatalf("boundary flow: want ~4 (residual), got %f", got)
		}
	})
	t.Run("boundary-first", func(t *testing.T) {
		// Boundary demand 100 dominates: it takes the full bottleneck 10 and
		// the internal flow gets the (zero) residual.
		p := build(6, 100)
		s := shard.New(baselines.GK{Epsilon: 0.01}, 2)
		a, err := s.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Stats.BoundaryFirst {
			t.Fatal("boundary demand dominates but the shards solved first")
		}
		if v := p.Check(a); v.Any(1e-9) {
			t.Fatalf("infeasible: %+v", v)
		}
		if got := a.X[1][0]; got < 10-0.2 {
			t.Fatalf("boundary flow: want ~10 (full bottleneck), got %f", got)
		}
		if got := a.X[0][0]; got > 0.3 {
			t.Fatalf("internal flow: want ~0 (residual), got %f", got)
		}
	})
}

// TestShardedEdgeCases covers degenerate inputs: zero-path flows, shard
// counts above the node count, empty problems, and the MLU delegation.
func TestShardedEdgeCases(t *testing.T) {
	t.Run("zero-path flow", func(t *testing.T) {
		p := handProblem()
		p.Flows = append(p.Flows, te.FlowDemand{Src: 0, Dst: 7, DemandMbps: 5})
		if err := p.Finalize(); err != nil {
			t.Fatal(err)
		}
		a, err := shard.New(baselines.GK{Epsilon: 0.05}, 4).Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.X[4]) != 0 {
			t.Fatalf("zero-path flow got an allocation row of %d", len(a.X[4]))
		}
	})
	t.Run("k above node count", func(t *testing.T) {
		p := handProblem()
		s := shard.New(baselines.GK{Epsilon: 0.05}, 64)
		a, err := s.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if s.Stats.Shards != 8 {
			t.Fatalf("want shard count clamped to 8 nodes, got %d", s.Stats.Shards)
		}
		if v := p.Check(a); v.Any(1e-9) {
			t.Fatalf("infeasible: %+v", v)
		}
	})
	t.Run("empty problem", func(t *testing.T) {
		p := &te.Problem{NumNodes: 4}
		if err := p.Finalize(); err != nil {
			t.Fatal(err)
		}
		if _, err := shard.New(baselines.GK{}, 2).Solve(p); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("mlu delegates", func(t *testing.T) {
		p := handProblem()
		inner := baselines.GK{Epsilon: 0.05}
		want, err := inner.Solve(p, solve.WithObjective(solve.MLU))
		if err != nil {
			t.Fatal(err)
		}
		got, err := shard.New(inner, 4).Solve(p, solve.WithObjective(solve.MLU))
		if err != nil {
			t.Fatal(err)
		}
		if !allocEqual(want, got) {
			t.Fatal("MLU solve is not delegated monolithically")
		}
	})
	t.Run("no inner", func(t *testing.T) {
		if _, err := (&shard.Solver{}).Solve(handProblem()); err == nil {
			t.Fatal("want error for missing inner solver")
		}
	})
	t.Run("k is read per solve", func(t *testing.T) {
		p := handProblem()
		inner := baselines.GK{Epsilon: 0.05}
		s := shard.New(inner, 4)
		s.K = 2
		if _, err := s.Solve(p); err != nil {
			t.Fatal(err)
		}
		if s.Stats.Shards != 2 {
			t.Fatalf("K=2: want 2 shards, got %d", s.Stats.Shards)
		}
		mono, err := inner.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		s.K = 1
		b, err := s.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if !allocEqual(mono, b) {
			t.Fatal("K=1 is not bitwise-identical to monolithic")
		}
	})
}

// regionalProblem builds a finalized problem on a planes x spp Walker shell
// with region-local traffic: each flow stays within two adjacent planes and a
// few slots of its source, so most flows are internal to one shard.
func regionalProblem(t testing.TB, planes, spp, flows int) *te.Problem {
	t.Helper()
	cons := constellation.MustNew("walker-regional", []constellation.Shell{{
		Name: "shell", AltitudeKm: 550, InclinationDeg: 53,
		Planes: planes, SatsPerPlane: spp, PhaseFactor: 1, RAANSpanDeg: 360,
	}})
	snap := topology.NewGenerator(cons, topology.DefaultConfig(topology.CrossShellNone)).Snapshot(0)
	rng := rand.New(rand.NewSource(1))
	tm := &traffic.Matrix{NumSats: planes * spp}
	seen := map[[2]int]bool{}
	for len(tm.Entries) < flows {
		sp := rng.Intn(planes)
		dp := min(sp+rng.Intn(2), planes-1)
		ss := rng.Intn(spp)
		ds := (ss + 1 + rng.Intn(4)) % spp
		src, dst := sp*spp+ss, dp*spp+ds
		if src != dst && !seen[[2]int{src, dst}] {
			seen[[2]int{src, dst}] = true
			tm.Entries = append(tm.Entries, traffic.Demand{
				Src: constellation.SatID(src), Dst: constellation.SatID(dst), DemandMbps: 20,
			})
		}
	}
	p, err := te.Build(snap, tm, paths.NewDB(cons, snap, 4), te.BuildConfig{LinkCapMbps: 200, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestShardedWarmR1Reuse runs the SaTE model as the inner solver across
// cycles: an unchanged second cycle replays the whole forward of every band
// and boundary component (and so hits R1 everywhere) and equals a cold
// solver bit for bit; a cycle that fails links inside one band recomputes
// that band and still replays every other.
func TestShardedWarmR1Reuse(t *testing.T) {
	p := regionalProblem(t, 16, 12, 80)
	m := core.NewModel(core.DefaultConfig())
	s := shard.New(m, 4)

	a, err := s.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	hits0, miss0 := s.R1Stats()
	if hits0 != 0 || miss0 == 0 {
		t.Fatalf("first cycle: want 0 hits and some misses, got %d/%d", hits0, miss0)
	}
	if r, rm := s.ReplayStats(); r != 0 || rm != miss0 {
		t.Fatalf("first cycle: %d forward replays and %d misses, want 0 and %d", r, rm, miss0)
	}
	b, err := s.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	hits1, miss1 := s.R1Stats()
	if hits1 != miss0 || miss1 != miss0 {
		t.Fatalf("second cycle over an unchanged problem: R1 %d hits, %d misses; want %d and %d", hits1, miss1, miss0, miss0)
	}
	if r, rm := s.ReplayStats(); r != miss0 || rm != miss0 {
		t.Fatalf("second cycle over an unchanged problem: %d forward replays, %d misses; want %d each", r, rm, miss0)
	}
	if !allocEqual(a, b) {
		t.Fatal("warm replay is not bitwise identical")
	}
	requireCold(t, m, "unchanged cycle", p, b)

	// Fail the first hop of every path of one internal flow: only its band's
	// sub-problem moves.
	bounds := topology.PartitionNodes(p.NumNodes, 4)
	bands := map[int]bool{}
	victim := -1
	for fi, f := range p.Flows {
		if si := bandOf(bounds, f); si >= 0 && len(f.Paths) > 0 {
			bands[si] = true
			if victim < 0 {
				victim = fi
			}
		}
	}
	if len(bands) < 2 {
		t.Fatalf("internal flows in %d bands, want at least 2", len(bands))
	}
	failed := map[int]bool{}
	for pi := range p.Flows[victim].Paths {
		failed[p.PathLinks(victim, pi)[0]] = true
	}
	q := &te.Problem{NumNodes: p.NumNodes, UpCap: p.UpCap, DownCap: p.DownCap}
	for li, l := range p.Links {
		if !failed[li] {
			q.Links = append(q.Links, l)
			q.LinkCap = append(q.LinkCap, p.LinkCap[li])
		}
	}
	for _, f := range p.Flows {
		f.Paths = append(f.Paths[:0:0], f.Paths...) // Finalize filters in place
		q.Flows = append(q.Flows, f)
	}
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}
	r0, rm0 := s.ReplayStats()
	c, err := s.Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	r1, rm1 := s.ReplayStats()
	if s.Stats.DirtyShards != 1 || rm1 == rm0 || r1-r0 < uint64(len(bands)-1) {
		t.Fatalf("links failed in one band: %d dirty shards, %d forward replays, %d misses; want 1 dirty and >= %d replays",
			s.Stats.DirtyShards, r1-r0, rm1-rm0, len(bands)-1)
	}
	requireCold(t, m, "links failed in one band", q, c)
}

// requireCold fails the test unless got is bitwise the allocation a cold
// four-shard solver around m computes for q.
func requireCold(t *testing.T, m *core.Model, what string, q *te.Problem, got *te.Allocation) {
	t.Helper()
	want, err := shard.New(m, 4).Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	if !allocEqual(got, want) {
		t.Fatalf("%s: warm solve is not bitwise a cold solver's", what)
	}
}

// bandOf returns the band a flow is internal to under a partition, or -1
// for a boundary flow.
func bandOf(bounds []topology.NodeID, f te.FlowDemand) int {
	si := topology.ShardOfNode(bounds, f.Src)
	for _, path := range f.Paths {
		if !path.WithinRange(bounds[si], bounds[si+1]) {
			return -1
		}
	}
	return si
}

// countingInner counts the sub-solves a sharded solve hands its inner model.
type countingInner struct {
	*core.Model
	n atomic.Int64
}

func (c *countingInner) Solve(p *te.Problem, opts ...solve.Option) (*te.Allocation, error) {
	c.n.Add(1)
	return c.Model.Solve(p, opts...)
}

// TestShardedR1StatsSurviveChurn churns the one boundary component for five
// cycles (the cut link's capacity moves, so its fingerprint does): its
// recomputes must stay in R1Stats after the pool has moved on, so
// hits+misses equals the number of sub-solves performed.
func TestShardedR1StatsSurviveChurn(t *testing.T) {
	p := handProblem()
	inner := &countingInner{Model: core.NewModel(core.DefaultConfig())}
	s := shard.New(inner, 4)
	for cycle := 0; cycle < 5; cycle++ {
		p.LinkCap[1] = 10 + float64(cycle) // link (1,2): boundary-only
		if _, err := s.Solve(p); err != nil {
			t.Fatal(err)
		}
		if s.Stats.BoundaryComponents != 1 || s.Stats.BoundaryFirst {
			t.Fatalf("cycle %d: want one boundary component after the shards, got %+v", cycle, s.Stats)
		}
	}
	hits, misses := s.R1Stats()
	if got, want := hits+misses, uint64(inner.n.Load()); got != want || want != 5*4 {
		t.Fatalf("R1Stats accounts for %d sub-solves (%d hits, %d misses), inner solved %d, want 20", got, hits, misses, want)
	}
	// Three bands replay after their first solve; the component never does.
	if hits != 3*4 || misses != 3+5 {
		t.Fatalf("want 12 hits and 8 misses, got %d/%d", hits, misses)
	}
}

// TestShardedR1StatsAfterPlanRebuild changes the shard count between two
// solves: the rebuilt partition starts every workspace afresh, boundary
// components included, so hits+misses counts only the sub-solves since.
func TestShardedR1StatsAfterPlanRebuild(t *testing.T) {
	p := handProblem()
	inner := &countingInner{Model: core.NewModel(core.DefaultConfig())}
	s := shard.New(inner, 4)
	if _, err := s.Solve(p); err != nil {
		t.Fatal(err)
	}
	if s.Stats.BoundaryComponents != 1 {
		t.Fatalf("K=4: want one boundary component, got %+v", s.Stats)
	}
	inner.n.Store(0)
	s.K = 2 // every flow is internal to one of two bands
	if _, err := s.Solve(p); err != nil {
		t.Fatal(err)
	}
	if s.Stats.Shards != 2 || s.Stats.BoundaryComponents != 0 {
		t.Fatalf("K=2: want two shards and no boundary component, got %+v", s.Stats)
	}
	hits, misses := s.R1Stats()
	if got, want := hits+misses, uint64(inner.n.Load()); got != want || want != 2 {
		t.Fatalf("after the rebuild R1Stats accounts for %d sub-solves (%d hits, %d misses), inner solved %d, want 2", got, hits, misses, want)
	}
}

// TestShardedComponentIdsShift prepends a cut-crossing flow that forms a
// boundary component of its own, so every existing component's id — first
// seen in flow order — moves up by one and each lands in the retained
// sub-problem and workspace another component used last cycle. The
// allocation must still be bitwise a cold solver's, and R1Stats must still
// account for every sub-solve.
func TestShardedComponentIdsShift(t *testing.T) {
	p := regionalProblem(t, 16, 12, 80)
	inner := &countingInner{Model: core.NewModel(core.DefaultConfig())}
	s := shard.New(inner, 4)
	for cycle := 0; cycle < 2; cycle++ {
		if _, err := s.Solve(p); err != nil {
			t.Fatal(err)
		}
	}
	ncomp := s.Stats.BoundaryComponents
	if ncomp < 2 {
		t.Fatalf("want at least two boundary components, got %+v", s.Stats)
	}

	// A cut link neither of whose endpoints any boundary path touches.
	bounds := topology.PartitionNodes(p.NumNodes, 4)
	touched := map[topology.NodeID]bool{}
	for _, f := range p.Flows {
		if bandOf(bounds, f) < 0 {
			for _, path := range f.Paths {
				for _, n := range path.Nodes {
					touched[n] = true
				}
			}
		}
	}
	cut := -1
	for li, l := range p.Links {
		if topology.ShardOfNode(bounds, l.A) != topology.ShardOfNode(bounds, l.B) && !touched[l.A] && !touched[l.B] {
			cut = li
			break
		}
	}
	if cut < 0 {
		t.Fatal("no cut link clear of the boundary flows")
	}
	l := p.Links[cut]
	q := &te.Problem{NumNodes: p.NumNodes, Links: p.Links, LinkCap: p.LinkCap, UpCap: p.UpCap, DownCap: p.DownCap}
	q.Flows = append(q.Flows, te.FlowDemand{
		Src: l.A, Dst: l.B, DemandMbps: 20,
		Paths: []paths.Path{{Nodes: []topology.NodeID{l.A, l.B}}},
	})
	for _, f := range p.Flows {
		f.Paths = append(f.Paths[:0:0], f.Paths...) // Finalize filters in place
		q.Flows = append(q.Flows, f)
	}
	if err := q.Finalize(); err != nil {
		t.Fatal(err)
	}

	a, err := s.Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats.BoundaryComponents != ncomp+1 {
		t.Fatalf("want the new flow as a component of its own: %d components, got %+v", ncomp+1, s.Stats)
	}
	requireCold(t, inner.Model, "component ids shifted", q, a)
	hits, misses := s.R1Stats()
	if got, want := hits+misses, uint64(inner.n.Load()); got != want {
		t.Fatalf("R1Stats accounts for %d sub-solves (%d hits, %d misses), inner solved %d", got, hits, misses, want)
	}
}
