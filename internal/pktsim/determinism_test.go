package pktsim

import (
	"reflect"
	"testing"

	"sate/internal/constellation"
	"sate/internal/par"
	"sate/internal/paths"
	"sate/internal/te"
	"sate/internal/topology"
)

// richSpec builds a toy-constellation run with every stochastic feature on:
// many streams (so the par.For schedule build actually spans chunks), an
// update window with per-node lags, burst, jitter, spikes, and handovers.
func richSpec(t testing.TB) (*RunSpec, Config) {
	t.Helper()
	gen := topology.NewGenerator(constellation.Toy(4, 6), topology.DefaultConfig(topology.CrossShellLasers))
	snap := gen.Snapshot(0)
	g := paths.GraphFrom(snap)
	p := &te.Problem{NumNodes: snap.NumNodes, Links: snap.Links}
	p.LinkCap = make([]float64, len(p.Links))
	for i := range p.LinkCap {
		p.LinkCap[i] = 200
	}
	for src := 0; src < snap.NumSats; src += 2 {
		dst := topology.NodeID((src + snap.NumSats/2) % snap.NumSats)
		ps := g.KShortest(topology.NodeID(src), dst, 3)
		if len(ps) == 0 {
			continue
		}
		p.Flows = append(p.Flows, te.FlowDemand{
			Src: topology.NodeID(src), Dst: dst, DemandMbps: 30, Paths: ps,
		})
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	if len(p.Flows) < 8 {
		t.Fatalf("only %d flows; the determinism test needs a real fan-out", len(p.Flows))
	}
	prev := te.NewAllocation(p)
	cur := te.NewAllocation(p)
	delays := make([]float64, snap.NumNodes)
	for fi := range p.Flows {
		// Previous cycle spreads over the first two paths, new cycle shifts
		// weight onto the last — every flow changes rules at the update.
		prev.X[fi][0] = 20
		if len(p.Flows[fi].Paths) > 1 {
			prev.X[fi][1] = 10
			cur.X[fi][len(p.Flows[fi].Paths)-1] = 15
		}
		cur.X[fi][0] = 15
	}
	for i := range delays {
		delays[i] = float64(i%7) * 0.02
	}
	spec := &RunSpec{
		Snap: snap, Problem: p, Alloc: cur,
		Update: &RuleUpdate{PrevProblem: p, PrevAlloc: prev, AtSec: 0.25, DelaysSec: delays},
	}
	cfg := Config{
		Seed:       42,
		HorizonSec: 0.6,
		JitterFrac: 0.1,
		Spikes:     3,
		Handovers:  2,
		Burst:      &Burst{StartSec: 0.3, DurSec: 0.2, Factor: 3},
	}
	return spec, cfg
}

// TestBitwiseDeterministicAcrossWorkers is the acceptance gate: one seed,
// every SATE_WORKERS setting, bit-identical results — including the float64
// latency series, compared bitwise via DeepEqual.
func TestBitwiseDeterministicAcrossWorkers(t *testing.T) {
	spec, cfg := richSpec(t)
	var base *Result
	for _, workers := range []int{1, 2, 3, 8} {
		restore := par.SetWorkers(workers)
		res, err := Run(spec, cfg)
		restore()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Injected == 0 || res.Delivered == 0 {
			t.Fatalf("workers=%d: degenerate run %+v", workers, res)
		}
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(base, res) {
			t.Fatalf("workers=%d diverged from workers=1:\n  base: inj=%d del=%d drops=%d\n  got:  inj=%d del=%d drops=%d",
				workers, base.Injected, base.Delivered, base.Dropped(),
				res.Injected, res.Delivered, res.Dropped())
		}
	}
}

// TestSeedChangesDisturbances guards against the opposite failure: the seed
// actually reaching the stochastic machinery (a constant-schedule bug would
// also pass the determinism test).
func TestSeedChangesDisturbances(t *testing.T) {
	spec, cfg := richSpec(t)
	a, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 43
	b, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.LatenciesSec, b.LatenciesSec) {
		t.Fatal("different seeds produced identical latency series")
	}
}
