// Package sim provides the data-driven evaluation engine of Sec. 4/5:
// scenario assembly (constellation + topology generator + ground segment +
// traffic, with link-failure injection), the one TE cycle every driver runs
// (cycle.go: scenario step → timed solve, and what is done with a cycle), the
// ONLINE satisfied-demand metric that accounts for TE computation latency
// (allocations stay in effect — and go stale — until the next computation
// finishes), offline evaluation, and per-cycle packet replay.
package sim

import (
	"math/rand"

	"sate/internal/constellation"
	"sate/internal/groundnet"
	"sate/internal/orbit"
	"sate/internal/paths"
	"sate/internal/te"
	"sate/internal/topology"
	"sate/internal/traffic"
)

// Scenario bundles everything needed to produce TE problems over time.
type Scenario struct {
	Cons    *constellation.Constellation
	TopoGen *topology.Generator
	Seg     *groundnet.Segment
	Traffic *traffic.Generator
	Loc     *groundnet.SatLocator
	Build   te.BuildConfig

	// MinElevRad is the user-terminal minimum elevation for satellite access.
	MinElevRad float64
	// PathDB is maintained incrementally across snapshots.
	PathDB *paths.DB

	lastSnap *topology.Snapshot
	// failFrac/failRNG are the standing failure injection (InjectFailures).
	failFrac float64
	failRNG  *rand.Rand
}

// ScenarioConfig parameterises scenario construction.
type ScenarioConfig struct {
	Mode      topology.CrossShellMode
	Intensity float64 // flows per second
	Seed      int64
	// Ground-segment size knobs; zero values scale with constellation size.
	Users        int
	UserClusters int
	Gateways     int
	Relays       int
	// MinElevDeg is the user-terminal minimum elevation (default 25, the
	// paper's value). Small test constellations have sparse coverage at 25
	// degrees; tests lower this so that enough flows resolve to satellites.
	MinElevDeg float64
	// FlowDurationScale multiplies the Table-2 flow durations (default 1).
	// The paper's durations (minutes to hours) put the steady state of the
	// arrival process thousands of seconds out; scaled-down runs reach
	// steady state quickly, mirroring the paper's own down-scaling of
	// bandwidth and flow counts (Sec. 4, footnote 5).
	FlowDurationScale float64
}

// NewScenario assembles a scenario with paper-default parameters scaled to
// the constellation.
func NewScenario(cons *constellation.Constellation, cfg ScenarioConfig) *Scenario {
	n := cons.Size()
	if cfg.Users == 0 {
		cfg.Users = 700 * n // 3M users at Starlink scale
	}
	if cfg.UserClusters == 0 {
		cfg.UserClusters = min(2000, 20+n/2)
	}
	if cfg.Gateways == 0 {
		cfg.Gateways = min(1000, 10+n/4)
	}
	if cfg.Relays == 0 {
		cfg.Relays = min(222, 10+n/20)
	}
	grid := groundnet.SyntheticPopulation(cfg.Seed)
	seg := groundnet.Build(grid, groundnet.Config{
		Users:        cfg.Users,
		UserClusters: cfg.UserClusters,
		Gateways:     cfg.Gateways,
		Relays:       cfg.Relays,
		Gamma:        0.05,
		Seed:         cfg.Seed,
	})
	topoCfg := topology.DefaultConfig(cfg.Mode)
	if cfg.Mode == topology.CrossShellGroundRelays {
		topoCfg.Relays = seg.Relays
	}
	gen := topology.NewGenerator(cons, topoCfg)
	minElev := cfg.MinElevDeg
	if minElev == 0 {
		minElev = 25
	}
	tcfg := traffic.DefaultConfig(cfg.Intensity, cfg.Seed)
	if cfg.FlowDurationScale > 0 && cfg.FlowDurationScale != 1 {
		scaled := make([]traffic.Class, len(tcfg.Classes))
		copy(scaled, tcfg.Classes)
		for i := range scaled {
			scaled[i].MinDurationSec *= cfg.FlowDurationScale
			scaled[i].MaxDurationSec *= cfg.FlowDurationScale
		}
		tcfg.Classes = scaled
	}
	s := &Scenario{
		Cons:       cons,
		TopoGen:    gen,
		Seg:        seg,
		Traffic:    traffic.NewGenerator(seg, tcfg),
		Loc:        groundnet.NewSatLocator(cons),
		Build:      te.DefaultBuildConfig(),
		MinElevRad: orbit.Deg(minElev),
	}
	return s
}

// SnapshotAt returns (and caches) the topology at time t, keeping the path
// database synchronised via incremental updates.
func (s *Scenario) SnapshotAt(tSec float64) *topology.Snapshot {
	snap := s.TopoGen.Snapshot(tSec)
	if s.PathDB == nil {
		s.PathDB = paths.NewDB(s.Cons, snap, s.Build.K)
	} else if s.lastSnap == nil || !s.lastSnap.SameTopology(snap) {
		s.PathDB.Update(snap)
	}
	s.lastSnap = snap
	return snap
}

// MatrixAt advances traffic to time t and aggregates the live flows into a
// sparse traffic matrix against the positions of the given snapshot.
func (s *Scenario) MatrixAt(tSec float64, snap *topology.Snapshot) *traffic.Matrix {
	s.Traffic.AdvanceTo(tSec)
	s.Loc.Update(snap.Pos[:snap.NumSats])
	return s.Traffic.Matrix(s.Loc, s.MinElevRad, s.Cons.Size())
}

// InjectFailures makes every later step (ProblemAt, RunCycle, RunOnline)
// pass its topology through failure injection: a random fraction frac of the
// links, drawn from rng, is removed before traffic is mapped and the problem
// built (Appendix H.3; the controller's chaos mode). frac <= 0 or a nil rng
// turns injection off again.
func (s *Scenario) InjectFailures(frac float64, rng *rand.Rand) {
	if frac <= 0 {
		rng = nil
	}
	s.failFrac, s.failRNG = frac, rng
}

// ProblemAt builds the complete TE problem for time t: the scenario step of
// a TE cycle. With failure injection configured the returned snapshot is
// the failure-injected one.
func (s *Scenario) ProblemAt(tSec float64) (*te.Problem, *topology.Snapshot, *traffic.Matrix, error) {
	return s.problemAt(tSec, s.failFrac, s.failRNG)
}

// ProblemWithFailures builds the TE problem at time t with a random fraction
// of links failed for this one step, whatever the standing injection. It
// also returns the failure-injected snapshot so callers can score stale
// allocations against the degraded link set.
func (s *Scenario) ProblemWithFailures(tSec, failFrac float64, rng *rand.Rand) (*te.Problem, *topology.Snapshot, error) {
	p, snap, _, err := s.problemAt(tSec, failFrac, rng)
	return p, snap, err
}

func (s *Scenario) problemAt(tSec, failFrac float64, rng *rand.Rand) (*te.Problem, *topology.Snapshot, *traffic.Matrix, error) {
	snap := s.SnapshotAt(tSec)
	if rng != nil {
		// Paths stay configured for the pre-failure topology (no rerouting,
		// as in the paper's failure experiment); Build drops path hops over
		// dead links at Finalize time.
		snap = topology.InjectFailures(snap, failFrac, rng)
	}
	m := s.MatrixAt(tSec, snap)
	p, err := te.Build(snap, m, s.PathDB, s.Build)
	return p, snap, m, err
}
