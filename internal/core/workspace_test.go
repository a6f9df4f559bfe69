package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"sate/internal/autodiff"
	"sate/internal/obs"
	"sate/internal/par"
	"sate/internal/solve"
	"sate/internal/te"
)

// variant derives a finalized problem from p: the flows keep selects (each
// with its demand scaled) over p's links minus dropLink (-1 keeps all).
func variant(tb testing.TB, p *te.Problem, dropLink int, demandScale float64, keep func(fi int) bool) *te.Problem {
	tb.Helper()
	q := &te.Problem{NumNodes: p.NumNodes, UpCap: p.UpCap, DownCap: p.DownCap}
	for li, l := range p.Links {
		if li != dropLink {
			q.Links = append(q.Links, l)
			q.LinkCap = append(q.LinkCap, p.LinkCap[li])
		}
	}
	for fi, f := range p.Flows {
		if keep(fi) {
			f.DemandMbps *= demandScale
			f.Paths = append(f.Paths[:0:0], f.Paths...)
			q.Flows = append(q.Flows, f)
		}
	}
	if err := q.Finalize(); err != nil {
		tb.Fatal(err)
	}
	return q
}

func requireSameAlloc(t *testing.T, what string, got, want *te.Allocation) {
	t.Helper()
	if len(got.X) != len(want.X) {
		t.Fatalf("%s: %d flows, want %d", what, len(got.X), len(want.X))
	}
	for fi := range want.X {
		for pi := range want.X[fi] {
			if math.Float64bits(got.X[fi][pi]) != math.Float64bits(want.X[fi][pi]) {
				t.Fatalf("%s: flow %d path %d = %v, want %v", what, fi, pi, got.X[fi][pi], want.X[fi][pi])
			}
		}
	}
}

// TestWorkspaceAbsorbsShapeDrift solves a sequence whose flow count wanders
// by ±10% through one workspace: once the arena has seen the largest pass it
// stops growing, and a drifting solve allocates what a repeated shape does —
// tensor storage is not keyed by shape, and neither is the retained forward
// column. A replayed solve allocates no more than an inferred one.
func TestWorkspaceAbsorbsShapeDrift(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race runtime perturbs alloc accounting (see obs.RaceEnabled)")
	}
	base := buildScenario60(t)
	defer par.SetWorkers(1)()
	// Variant i drops every flow whose index falls in a sliding residue
	// class: between 0 and ~10% of the flows, a different set each time.
	var vs []*te.Problem
	for i := 0; i < 20; i++ {
		mod, hit := 10+i%7, i%5
		vs = append(vs, variant(t, base, -1, 1, func(fi int) bool { return i%4 == 0 || fi%mod != hit }))
	}
	m := NewModel(DefaultConfig())
	cs := &CycleState{}
	warm := solve.WithWarm(cs)
	var settled uint64
	for i, p := range vs {
		if _, err := m.Solve(p, warm); err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			settled = cs.f64.tape.ArenaStats().TensorAlloc
		}
	}
	if !cs.f64.tape.NoGrad() {
		t.Fatal("workspace tape records gradients")
	}
	if got := cs.f64.tape.ArenaStats().TensorAlloc; got != settled {
		t.Fatalf("arena kept growing under shape drift: %d chunk allocations after solve 6, %d after solve 20", settled, got)
	}
	// Two same-shape problems that differ only in demand, alternated: each
	// solve rebuilds the graph and runs the forward, where repeating one
	// problem would replay it.
	pair := [2]*te.Problem{vs[0], variant(t, base, -1, 0.9, func(int) bool { return true })}
	turn := 0
	fixed := testing.AllocsPerRun(5, func() {
		turn++
		if _, err := m.Solve(pair[turn%2], warm); err != nil {
			t.Fatal(err)
		}
	})
	// A warm solve's whole budget belongs to its product (DESIGN.md §8):
	// te.NewAllocation 3, Trim's load and scale slices 6, solve.Build 1 —
	// the graph build, the GNN forward and the fused kernels add nothing.
	if fixed > 10 {
		t.Fatalf("a warm solve of a repeated shape allocates %v objects, want <= 10", fixed)
	}
	next := 0
	retained := &cs.f64.fwd.data[:1][0] // the largest variant has been solved
	drifting := testing.AllocsPerRun(len(vs)-1, func() {
		next++
		if _, err := m.Solve(vs[next%len(vs)], warm); err != nil {
			t.Fatal(err)
		}
	})
	if drifting > fixed+1 {
		t.Fatalf("drifting shapes allocate %v per solve, a repeated shape %v", drifting, fixed)
	}
	if &cs.f64.fwd.data[:1][0] != retained {
		t.Fatal("the retained forward column was reallocated under shape drift")
	}
	// Repeating one problem replays the retained forward: the replay itself
	// allocates nothing, so the solve costs its product alone.
	r0, _ := cs.ReplayStats()
	replayed := testing.AllocsPerRun(5, func() {
		if _, err := m.Solve(vs[3], warm); err != nil {
			t.Fatal(err)
		}
	})
	if r1, _ := cs.ReplayStats(); r1 != r0+5 {
		t.Fatalf("6 solves of one problem replayed the forward %d times, want 5", r1-r0)
	}
	if replayed > fixed {
		t.Fatalf("a replayed solve allocates %v objects, an inferred one %v", replayed, fixed)
	}
}

// edited derives a finalized copy of p with edit applied to its flows.
func edited(tb testing.TB, p *te.Problem, edit func(q *te.Problem)) *te.Problem {
	tb.Helper()
	q := variant(tb, p, -1, 1, func(int) bool { return true })
	edit(q)
	if err := q.Finalize(); err != nil {
		tb.Fatal(err)
	}
	return q
}

// TestWorkspaceDetectsTopologyItself drives one workspace through topology,
// demand, flow-order, path and weight changes with no hint from the caller,
// in both dtypes and the MLU head at several worker counts: every result is
// bitwise what a fresh workspace returns, the R1 cache hits exactly when the
// topology and weights held still, and a throughput solve replays the whole
// forward exactly when it is handed the previous problem value with its
// flows unchanged too.
func TestWorkspaceDetectsTopologyItself(t *testing.T) {
	base := buildScenario60(t)
	all := func(int) bool { return true }
	capChanged := variant(t, base, -1, 1, all)
	capChanged.LinkCap[len(capChanged.LinkCap)/2] *= 0.5 // in place, after Finalize
	demands := variant(t, capChanged, 3, 0.7, all)
	swapped := edited(t, demands, func(q *te.Problem) { q.Flows[0], q.Flows[1] = q.Flows[1], q.Flows[0] })
	multi := slices.IndexFunc(swapped.Flows, func(f te.FlowDemand) bool { return len(f.Paths) > 1 })
	if multi < 0 {
		t.Fatal("no flow with two candidate paths")
	}
	rerouted := edited(t, swapped, func(q *te.Problem) { q.Flows[multi].Paths[0] = q.Flows[multi].Paths[1] })
	invalidate := func(m *Model) { m.InvalidateWeightCaches() }
	steps := []struct {
		name       string
		before     func(m *Model)
		p          *te.Problem
		wantHit    bool // R1 replayed
		wantReplay bool // forward replayed (throughput only)
	}{
		{"first solve", nil, base, false, false},
		{"one capacity changed", nil, capChanged, false, false},
		{"one link dropped", nil, variant(t, capChanged, 3, 1, all), false, false},
		{"demands changed", nil, demands, true, false},
		{"same problem again", nil, demands, true, true},
		{"an equal copy of it", nil, variant(t, capChanged, 3, 0.7, all), true, false},
		{"two flows swapped", nil, swapped, true, false},
		{"one path's nodes changed", nil, rerouted, true, false},
		{"weights invalidated", invalidate, rerouted, false, false},
		{"identical again", nil, rerouted, true, true},
	}
	heads := []struct {
		name string
		opts []solve.Option
	}{
		{"float64", nil},
		{"float32", []solve.Option{solve.WithDtype(solve.Float32)}},
		{"MLU", []solve.Option{solve.WithObjective(solve.MLU)}}, // no forward cache
	}
	for _, workers := range []int{1, 2, 3, 8} {
		restore := par.SetWorkers(workers)
		for _, head := range heads {
			m := NewModel(DefaultConfig())
			cs := &CycleState{}
			for _, st := range steps {
				if st.before != nil {
					st.before(m)
				}
				h0, m0 := cs.R1Stats()
				r0, rm0 := cs.ReplayStats()
				got, err := m.Solve(st.p, append([]solve.Option{solve.WithWarm(cs)}, head.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				want, err := m.Solve(st.p, append([]solve.Option{solve.WithWarm(&CycleState{})}, head.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("workers %d, %s: %s", workers, head.name, st.name)
				requireSameAlloc(t, what, got, want)
				h1, m1 := cs.R1Stats()
				if hit := h1 == h0+1 && m1 == m0; hit != st.wantHit || h1+m1 != h0+m0+1 {
					t.Fatalf("%s: R1 hits %d->%d, misses %d->%d; want hit=%v", what, h0, h1, m0, m1, st.wantHit)
				}
				r1, rm1 := cs.ReplayStats()
				if head.name == "MLU" {
					if r1 != r0 || rm1 != rm0 {
						t.Fatalf("%s: the MLU head counted forward replays %d->%d, misses %d->%d", what, r0, r1, rm0, rm1)
					}
				} else if replayed := r1 == r0+1 && rm1 == rm0; replayed != st.wantReplay || r1+rm1 != r0+rm0+1 {
					t.Fatalf("%s: forward replays %d->%d, misses %d->%d; want replay=%v", what, r0, r1, rm0, rm1, st.wantReplay)
				}
			}
		}
		restore()
	}
}

// TestBorrowedWorkspaceNeverReplays solves one problem repeatedly without a
// workspace of its own: the borrowed one reuses R1 but never the forward, so
// timing repeated Solve(p) calls keeps timing an inference.
func TestBorrowedWorkspaceNeverReplays(t *testing.T) {
	p := buildScenario60(t)
	m := NewModel(DefaultConfig())
	for _, opts := range [][]solve.Option{nil, {solve.WithDtype(solve.Float32)}} {
		for i := 0; i < 3; i++ {
			if _, err := m.Solve(p, opts...); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(m.wsFree) != 1 {
		t.Fatalf("serial solves left %d workspaces in the pool, want 1", len(m.wsFree))
	}
	cs := m.wsFree[0]
	if hits, misses := cs.ReplayStats(); hits != 0 || misses != 0 || cs.f64.fwd.ok || cs.f32.fwd.ok {
		t.Fatalf("borrowed workspace counted %d forward replays and %d misses (retained: f64 %v, f32 %v)", hits, misses, cs.f64.fwd.ok, cs.f32.fwd.ok)
	}
	if hits, misses := cs.R1Stats(); hits != 4 || misses != 2 {
		t.Fatalf("borrowed workspace R1: %d hits, %d misses; want 4 and 2", hits, misses)
	}
}

// TestSolveConcurrentWithoutWarm calls Solve from several goroutines with no
// workspace of their own, on different problems and in both dtypes: each
// borrows one from the model for the call, so the results match the serial
// ones. Run under -race by scripts/race.sh.
func TestSolveConcurrentWithoutWarm(t *testing.T) {
	base := buildScenario60(t)
	m := NewModel(DefaultConfig())
	const callers = 8
	ps := make([]*te.Problem, callers)
	want := make([]*te.Allocation, callers)
	dtype := func(i int) solve.Option { return solve.WithDtype(solve.Dtype(i % 2)) }
	for i := range ps {
		ps[i] = variant(t, base, i%3-1, 1+0.05*float64(i), func(fi int) bool { return fi%callers != i })
		var err error
		if want[i], err = NewModel(DefaultConfig()).Solve(ps[i], dtype(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][3]*te.Allocation, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range ps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range got[i] {
				if got[i][r], errs[i] = m.Solve(ps[i], dtype(i)); errs[i] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := range ps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for _, a := range got[i] {
			requireSameAlloc(t, "concurrent solve", a, want[i])
		}
	}
	if n := len(m.wsFree); n == 0 || n > callers {
		t.Fatalf("model pool holds %d workspaces after %d concurrent callers", n, callers)
	}
}

// TestSolveMatchesGradientTapeForward pins the inference/training fork to one
// value: Model.Solve runs the edge kernel over deduplicated edge features on
// an inference tape, Model.Allocate the composed ops over per-edge features
// on a gradient tape, and on a 60-satellite problem every path variable
// comes out bit for bit the same — before the feasibility correction, and so
// after it.
func TestSolveMatchesGradientTapeForward(t *testing.T) {
	p := buildScenario60(t)
	m := NewModel(DefaultConfig())
	want := m.Allocate(autodiff.NewTape(), BuildTEGraph(p), p).Val.Data

	cs := m.workspace(nil)
	defer m.release(cs)
	x := inferThroughput(&m.netOf, cs, &cs.f64, p, solve.Build())
	g := &cs.g
	if len(g.R2FeatIx) != len(g.R2Feat) || len(g.R2FeatU) >= len(g.R2Feat) {
		t.Fatalf("inference ran without edge-feature dedup: %d R2 features, %d distinct", len(g.R2Feat), len(g.R2FeatU))
	}
	if len(x) != len(want) || len(want) == 0 {
		t.Fatalf("%d path variables, gradient tape %d", len(x), len(want))
	}
	for j, w := range want {
		if math.Float64bits(x[j]) != math.Float64bits(w) {
			t.Fatalf("path variable %d: inference %v, gradient tape %v", j, x[j], w)
		}
	}

	// The graph's path nodes are te's flow-major path variables.
	trimmed := te.NewAllocation(p)
	j := 0
	for fi, row := range trimmed.X {
		for pi := range row {
			if g.VarFlow[j] != fi {
				t.Fatalf("path node %d belongs to flow %d, te numbers it in flow %d (path %d)", j, g.VarFlow[j], fi, pi)
			}
			row[pi] = want[j]
			j++
		}
	}
	p.Trim(trimmed)
	got, err := m.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAlloc(t, "Solve vs trimmed gradient-tape allocation", got, trimmed)
}
