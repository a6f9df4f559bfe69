// Package solve defines the unified solver-call surface: every TE solver in
// the repo — the SaTE model, the LP references, the heuristics and the
// learned baselines — exposes the same entry point,
//
//	Solve(p *te.Problem, opts ...solve.Option) (*te.Allocation, error)
//
// where the variadic options select the objective (throughput vs. MLU),
// inject an observability registry, or override the worker budget for the
// call; `Solve(p)` with no options takes every default.
//
// Solvers apply the options with two lines:
//
//	o := solve.Build(opts...)
//	defer solve.Begin(o, s.Name()).End()
//
// Begin/End record the per-solve latency histogram keyed by solver name
// (sate_solve_seconds{solver=...}) and scope any worker override to the
// call. Both are no-ops when the corresponding option is absent, and neither
// allocates when the options slice is pre-built — the instrumented solve
// hot paths stay at 0 allocs/op (TestSolveObsAddsZeroAllocs).
package solve

import (
	"sate/internal/obs"
	"sate/internal/par"
	"sate/internal/te"
)

// Solver is the one solver contract: the SaTE model, the LP references, the
// heuristics, the learned baselines and the sharded decomposition all
// implement it, and every driver (controller, evaluators, shard, POP)
// accepts it.
type Solver interface {
	Name() string
	Solve(p *te.Problem, opts ...Option) (*te.Allocation, error)
}

// Objective selects what a solver optimises.
type Objective uint8

const (
	// Throughput maximises satisfied demand (the paper's main objective).
	Throughput Objective = iota
	// MLU minimises maximum link utilisation (Appendix H.2). Solvers that
	// have no MLU mode ignore the objective and solve for throughput.
	MLU
)

// String returns the objective's metric-label spelling.
func (o Objective) String() string {
	if o == MLU {
		return "mlu"
	}
	return "throughput"
}

// Dtype selects the floating-point element type a solver computes in.
type Dtype uint8

const (
	// Float64 is the default: full-precision inference, bitwise identical to
	// the pre-dtype solvers.
	Float64 Dtype = iota
	// Float32 requests the half-memory-traffic inference path. Solvers
	// without a float32 implementation (all baselines, and SaTE's MLU head)
	// ignore the request and compute in float64.
	Float32
)

// String returns the dtype's metric-label spelling.
func (d Dtype) String() string {
	if d == Float32 {
		return "float32"
	}
	return "float64"
}

// Options is the resolved option set a solver sees. The zero value means:
// throughput objective, no instrumentation, default worker budget.
type Options struct {
	// Objective selects throughput (default) or MLU.
	Objective Objective
	// Registry receives per-solve latency histograms and phase spans; nil
	// disables instrumentation (every obs handle degrades to a no-op).
	Registry *obs.Registry
	// Workers overrides the par worker budget for the duration of the call;
	// 0 keeps the process-wide setting. The budget sets how many of par's
	// persistent helpers join each kernel dispatch (the caller works too);
	// the results are the same bits at every budget. The override is
	// process-global while active (par's budget is), so concurrent solves
	// with different overrides race on it — use per-call overrides from one
	// driver loop. Concurrent solves share the one pool: a kernel that finds
	// it busy runs on its caller's goroutine.
	Workers int
	// Dtype selects the element type of the solver's numeric kernels.
	// Solvers without a narrower implementation ignore it (see Dtype).
	Dtype Dtype
	// Warm carries solver-specific cross-call state for temporal-coherence
	// reuse (e.g. core.CycleState for SaTE: the solve workspace — graph
	// storage, inference tape, cached R1 embeddings). The concrete type is
	// owned by the solver; a solver that does not recognise the value
	// ignores it. The state is mutated by the solve, so callers must not
	// share one value across concurrent solves.
	Warm any
}

// Option mutates Options. Options values are cheap closures built once at
// the call site; hot loops build the []Option slice outside the loop and
// pass it with `opts...` so no per-call allocation occurs.
type Option func(*Options)

// WithObjective selects the optimisation objective.
func WithObjective(obj Objective) Option { return func(o *Options) { o.Objective = obj } }

// WithRegistry attaches an observability registry to the call.
func WithRegistry(r *obs.Registry) Option { return func(o *Options) { o.Registry = r } }

// WithWorkers overrides the worker budget for the call (n <= 0 keeps the
// current budget).
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithDtype selects the floating-point element type for the call.
func WithDtype(d Dtype) Option { return func(o *Options) { o.Dtype = d } }

// WithWarm attaches solver-specific warm-start state to the call; pass the
// same value on every cycle of a replay loop to let the solver reuse work
// across topologically-coherent problems.
func WithWarm(w any) Option { return func(o *Options) { o.Warm = w } }

// Build folds a variadic option list into an Options value.
func Build(opts ...Option) Options {
	var o Options
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o
}

// solveSeconds is the per-solve latency histogram family, keyed by solver
// name (DESIGN.md §9).
const solveSeconds = "sate_solve_seconds"

// SolveHistogram resolves the per-solver latency histogram on a registry —
// exposed for tests and dashboards that assert on recorded counts.
func SolveHistogram(r *obs.Registry, solver string) *obs.Histogram {
	return r.HistogramVec(solveSeconds, "solver", obs.DefLatencyBuckets).With(solver)
}

// Active is an in-flight instrumented solve; see Begin.
type Active struct {
	sp      obs.Span
	restore func()
}

// Begin starts the per-solve instrumentation for a solver name: it applies
// the worker override (if any) and opens the latency span. The returned
// Active must be End()ed; the idiomatic form is
//
//	defer solve.Begin(o, s.Name()).End()
//
// With no registry and no worker override both Begin and End are no-ops,
// and with a registry they perform no heap allocation (Active and the span
// are stack values; the histogram lookup is a map read).
func Begin(o Options, solver string) Active {
	var a Active
	if o.Workers > 0 {
		a.restore = par.SetWorkers(o.Workers)
	}
	if o.Registry != nil {
		a.sp = obs.StartTimer(SolveHistogram(o.Registry, solver))
	}
	return a
}

// End records the solve latency and restores any worker override.
func (a Active) End() {
	a.sp.End()
	if a.restore != nil {
		a.restore()
	}
}
