// Package sate is the public API of the SaTE reproduction: low-latency
// traffic engineering for large-scale LEO satellite constellations
// (SIGCOMM 2025), implemented from scratch in pure Go.
//
// The package re-exports the building blocks a downstream user needs:
// constellations and topology generation, traffic workloads, TE problems,
// the SaTE GNN model (training + millisecond inference), the competing
// schemes, and the online evaluation engine. The heavy lifting lives in the
// internal packages; this facade keeps a small, stable surface.
//
// Quick start:
//
//	cons := sate.Iridium() // or sate.Starlink() for the full Phase 1
//	scen := sate.NewScenario(cons, sate.ScenarioConfig{
//		Mode: sate.CrossShellLasers, Intensity: 8, Seed: 1,
//		MinElevDeg: 10, FlowDurationScale: 0.05, // steady state quickly
//	})
//	model, err := sate.Train(scen, sate.TrainOptions{Samples: 4, Epochs: 30})
//	problem, _, _, _ := scen.ProblemAt(700) // unseen topology + traffic
//	alloc, _ := model.Solve(problem)        // milliseconds
//	fmt.Println(problem.SatisfiedDemand(alloc))
package sate

import (
	"cmp"

	"sate/internal/constellation"
	"sate/internal/controller"
	"sate/internal/core"
	"sate/internal/experiments"
	"sate/internal/obs"
	"sate/internal/ruledist"
	"sate/internal/shard"
	"sate/internal/sim"
	"sate/internal/solve"
	"sate/internal/te"
	"sate/internal/topology"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Constellation is an instantiated satellite constellation.
	Constellation = constellation.Constellation
	// Scenario bundles topology, ground segment and traffic over time.
	Scenario = sim.Scenario
	// ScenarioConfig parameterises scenario construction.
	ScenarioConfig = sim.ScenarioConfig
	// Problem is a TE problem instance (Appendix A formulation).
	Problem = te.Problem
	// Allocation is a TE solution x_fp.
	Allocation = te.Allocation
	// Model is the SaTE GNN.
	Model = core.Model
	// ModelConfig holds SaTE hyperparameters.
	ModelConfig = core.Config
	// Allocator is anything that solves TE problems.
	Allocator = sim.Allocator
	// OnlineConfig controls online evaluation.
	OnlineConfig = sim.OnlineConfig
	// OnlineResult is an online evaluation outcome.
	OnlineResult = sim.OnlineResult
	// Report is a rendered experiment result.
	Report = experiments.Report
	// Registry collects metrics (counters, gauges, histograms, spans) with
	// zero allocation on hot paths; see the obs package and DESIGN.md §9.
	Registry = obs.Registry
	// SolveOption configures a single Solve call (objective, registry,
	// worker budget); see the solve package.
	SolveOption = solve.Option
	// SolveOptions is the resolved option set a SolveOption mutates.
	SolveOptions = solve.Options
	// Objective selects what a solver optimises.
	Objective = solve.Objective
	// Dtype selects the floating-point element type a solver computes in.
	Dtype = solve.Dtype
	// CycleState carries SaTE warm-start state across successive TE cycles;
	// pass one value through WithWarm on every cycle of a loop.
	CycleState = core.CycleState
	// Controller is the HTTP control center: it recomputes allocations on a
	// cadence and serves immutable published snapshots under /v1/
	// (DESIGN.md §14).
	Controller = controller.Server
	// ControllerSnapshot is one immutable published control-plane state:
	// problem, allocation, compiled rules, and their pre-encoded responses.
	ControllerSnapshot = controller.Snapshot
	// RuleChangelog is the sequence-numbered rule-distribution changelog;
	// consumers at any version catch up via deltas or a full sync.
	RuleChangelog = ruledist.Changelog
	// RuleDelta is the rule difference between two consecutive versions.
	RuleDelta = ruledist.Delta
)

// Solve objectives.
const (
	// Throughput maximises total satisfied demand (the default).
	Throughput = solve.Throughput
	// MLU minimises the maximum link utilisation (Appendix H.2).
	MLU = solve.MLU
)

// Solve dtypes (DESIGN.md §11).
const (
	// Float64 is the default full-precision inference path.
	Float64 = solve.Float64
	// Float32 halves inference memory traffic; solvers without a float32
	// implementation (and the MLU refinement stage) silently stay float64.
	Float32 = solve.Float32
)

// NewRegistry creates an enabled metrics registry. A nil *Registry is also
// valid everywhere one is accepted: every operation becomes a no-op.
func NewRegistry() *Registry { return obs.NewRegistry() }

// Solve option constructors, re-exported from the solve package.
var (
	// WithObjective selects the solve objective (Throughput or MLU).
	WithObjective = solve.WithObjective
	// WithRegistry records per-solve latency (and solver-internal spans)
	// into a registry.
	WithRegistry = solve.WithRegistry
	// WithWorkers overrides the worker-pool parallelism for the call.
	WithWorkers = solve.WithWorkers
	// WithDtype selects the inference element type (Float32 halves memory
	// traffic; solvers without a narrower path ignore it).
	WithDtype = solve.WithDtype
	// WithWarm threads a *CycleState through the solver so consecutive
	// low-churn cycles reuse topology-derived work (DESIGN.md §11).
	WithWarm = solve.WithWarm
)

// Solve runs any allocator through the unified option-aware entry point:
//
//	alloc, err := sate.Solve(model, problem, sate.WithRegistry(reg))
func Solve(al Allocator, p *Problem, opts ...SolveOption) (*Allocation, error) {
	return al.Solve(p, opts...)
}

// Cross-shell link modes (Fig. 2).
const (
	CrossShellLasers       = topology.CrossShellLasers
	CrossShellGroundRelays = topology.CrossShellGroundRelays
	CrossShellNone         = topology.CrossShellNone
)

// Shell describes one Walker-style orbital shell for custom constellations.
type Shell = constellation.Shell

// NewConstellation builds a custom constellation from shell descriptions
// (see constellation.New); the Table-4 presets below cover the paper's.
func NewConstellation(name string, shells []Shell) (*Constellation, error) {
	return constellation.New(name, shells)
}

// Constellation presets (Table 4).
var (
	// Starlink returns the 4-shell, 4236-satellite Starlink Phase 1.
	Starlink = constellation.StarlinkPhase1
	// Iridium returns the 66-satellite Iridium constellation.
	Iridium = constellation.Iridium
	// MidSize1 returns the 396-satellite constellation of Sec. 4.
	MidSize1 = constellation.MidSize1
	// MidSize2 returns the 1584-satellite constellation of Sec. 4.
	MidSize2 = constellation.MidSize2
)

// NewScenario assembles a simulation scenario (see sim.NewScenario).
func NewScenario(c *Constellation, cfg ScenarioConfig) *Scenario {
	return sim.NewScenario(c, cfg)
}

// NewModel builds an untrained SaTE model.
func NewModel(cfg ModelConfig) *Model { return core.NewModel(cfg) }

// DefaultModelConfig returns CPU-scale SaTE hyperparameters.
func DefaultModelConfig() ModelConfig { return core.DefaultConfig() }

// TrainOptions controls Train.
type TrainOptions struct {
	// Samples is the number of (topology, traffic) instants to train on;
	// they are labelled with the reference LP solver (default 8).
	Samples int
	// Epochs of Adam over the samples (default 20).
	Epochs int
	// Seed for model initialisation.
	Seed int64
	// Config overrides the model hyperparameters (zero value = defaults).
	Config ModelConfig
	// Registry receives training metrics (per-epoch loss, step latency,
	// tape-arena counters); nil disables instrumentation.
	Registry *Registry
}

// Train fits a SaTE model to the scenario by the one training recipe
// (sim.Recipe, run by Scenario.Fit): opt.Samples instants spaced 97 s apart
// from t = 120 s, each labelled by the reference LP solver.
func Train(s *Scenario, opt TrainOptions) (*Model, error) {
	opt.Samples, opt.Epochs = cmp.Or(opt.Samples, 8), cmp.Or(opt.Epochs, 20)
	cfg := opt.Config
	if cfg.EmbedDim == 0 {
		cfg = core.DefaultConfig()
	}
	cfg.Seed = opt.Seed
	m := core.NewModel(cfg)
	// Spaced instants past the arrival process's initial ramp; with
	// ScenarioConfig.FlowDurationScale at its default the load still grows
	// for a long time — scale durations down (e.g. 0.05) to train and
	// evaluate at steady state.
	r := sim.Recipe{
		Instants:    sim.Instants(120, 97, opt.Samples),
		TrainConfig: core.TrainConfig{Epochs: opt.Epochs, Registry: opt.Registry},
	}
	if _, err := s.Fit(m, r); err != nil {
		return nil, err
	}
	return m, nil
}

// ShardedSolver decomposes TE problems into regional subproblems solved
// concurrently by an inner solver, with boundary-flow reconciliation and
// incremental per-cycle reuse (DESIGN.md §13).
type ShardedSolver = shard.Solver

// Sharded wraps any solver in the regional decomposition: subproblems solve
// concurrently, cut-crossing flows reconcile against residual capacities,
// and per-shard warm state carries across cycles. k <= 0 picks the default
// shard count and 1 is monolithic.
func Sharded(inner Allocator, k int) *ShardedSolver { return shard.New(inner, k) }

// NewController builds the TE control center around a scenario and solver;
// serve its Handler over HTTP and drive it with RunContext (or explicit
// RecomputeContext calls). See cmd/sate-controld for the full daemon.
func NewController(s *Scenario, al Allocator, opts ...controller.Option) *Controller {
	return controller.New(s, al, opts...)
}

// NewRuleChangelog builds a standalone rule changelog retaining maxEntries
// versions of deltas (<= 0 picks the default); Append published rule sets
// and serve Since() to catch consumers up.
func NewRuleChangelog(maxEntries int) *RuleChangelog { return ruledist.NewChangelog(maxEntries) }

// ApplyRuleDelta applies one version delta to a rule set, returning the next
// version's rules; the input is not mutated.
var ApplyRuleDelta = ruledist.Apply

// Solvers gives access to the paper's baselines as ready-to-use allocators,
// keyed by their names in the solver table (sim.SolverNames) that every
// driver resolves "-solver" through.
func Solvers() map[string]Allocator {
	out := map[string]Allocator{}
	for _, name := range sim.SolverNames() {
		if name == "sate" {
			continue // needs a trained model: Train or LoadModel
		}
		al, err := sim.Spec{Solver: name}.NewSolver()
		if err != nil {
			panic("sate: building baseline " + name + ": " + err.Error()) // baselines take no input that can fail
		}
		out[name] = al
	}
	return out
}

// SaveModel writes a trained model to a file; LoadModel restores it.
func SaveModel(m *Model, path string) error { return m.SaveFile(path) }

// LoadModel restores a model saved by SaveModel.
func LoadModel(path string) (*Model, error) { return core.LoadFile(path) }

// RunExperiment executes a registered paper experiment (e.g. "fig8a") and
// returns its report. Use ExperimentIDs for the catalogue.
func RunExperiment(id string, full bool, seed int64) (*Report, error) {
	d, ok := experiments.Registry[id]
	if !ok {
		return nil, &UnknownExperimentError{ID: id}
	}
	return d(experiments.Options{Full: full, Seed: seed})
}

// ExperimentIDs lists the registered experiment IDs.
func ExperimentIDs() []string { return experiments.IDs() }

// UnknownExperimentError reports an unregistered experiment ID.
type UnknownExperimentError struct{ ID string }

func (e *UnknownExperimentError) Error() string {
	return "sate: unknown experiment " + e.ID
}
