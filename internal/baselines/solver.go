// Package baselines implements the six competing schemes of Sec. 4:
//
//   - LPExact: exact LP via primal simplex — the role of the commercial
//     solver (Gurobi) in the paper, exact at any scale it can afford.
//   - GK: Garg–Könemann / Fleischer multiplicative-weights packing solver,
//     (1-O(eps))-optimal with polynomial runtime; LPAuto switches between the
//     two by problem size, mirroring how a commercial solver is the
//     high-quality/slow reference at every scale.
//   - POP: random flow partition into k subproblems with 1/k capacities [55].
//   - ECMPWF: equal split over minimum-hop paths with water filling [35].
//   - Backpressure: distributed queue-differential satellite routing [56].
//   - Teal-like and HARP-like learned baselines live in this package too
//     (teal.go, harp.go), built on the same autodiff substrate as SaTE.
package baselines

import (
	"math"

	"sate/internal/lp"
	"sate/internal/obs"
	"sate/internal/solve"
	"sate/internal/te"
)

// LPExact solves the TE LP exactly with the dense simplex. Suitable for
// small and mid-size instances; cost grows polynomially (the behaviour the
// paper reports for commercial solvers).
type LPExact struct{}

// Name implements solve.Solver.
func (LPExact) Name() string { return "lp-exact" }

// Solve implements solve.Solver.
func (LPExact) Solve(p *te.Problem, opts ...solve.Option) (*te.Allocation, error) {
	o := solve.Build(opts...)
	defer solve.Begin(o, "lp-exact").End()
	b, colOf := buildRows(p)
	return solveExact(p, o, b, colOf)
}

// solveExact is LPExact over rows already built by buildRows.
func solveExact(p *te.Problem, o solve.Options, b []float64, colOf func(fi, pi int) []int) (*te.Allocation, error) {
	n := p.NumPaths()
	c := make([]float64, n)
	a := make([][]float64, len(b))
	for i := range a {
		a[i] = make([]float64, n)
	}
	j := 0
	for fi := range p.Flows {
		for pi := range p.Flows[fi].Paths {
			c[j] = 1
			for _, r := range colOf(fi, pi) {
				a[r][j] = 1
			}
			j++
		}
	}
	sp := o.Registry.StartSpan(obs.PhaseLPSolve)
	res, err := lp.Maximize(c, a, b)
	sp.End()
	if err != nil {
		return nil, err
	}
	alloc := te.NewAllocation(p)
	j = 0
	for fi := range p.Flows {
		for pi := range p.Flows[fi].Paths {
			alloc.X[fi][pi] = res.X[j]
			j++
		}
	}
	p.Trim(alloc) // numerical hygiene
	return alloc, nil
}

// resource kinds for row construction
const (
	resLink = iota
	resUp
	resDown
	resDemand
)

type resourceKey struct {
	kind int
	id   int
}

// buildRows enumerates the packing rows actually reachable by some path
// variable: used links, finite up/down caps of active endpoints, and one
// demand row per flow. It returns the bounds (the row count is len(b)) and
// a function giving the row indices of a (flow, path) column.
func buildRows(p *te.Problem) (b []float64, colOf func(fi, pi int) []int) {
	rows := make(map[resourceKey]int)
	addRow := func(k resourceKey, bound float64) int {
		if i, ok := rows[k]; ok {
			return i
		}
		i := len(b)
		rows[k] = i
		b = append(b, bound)
		return i
	}
	// Demand rows.
	for fi, f := range p.Flows {
		addRow(resourceKey{resDemand, fi}, f.DemandMbps)
	}
	// Link and access rows for links/nodes actually used by candidate paths.
	for fi, f := range p.Flows {
		for pi := range f.Paths {
			for _, li := range p.PathLinks(fi, pi) {
				addRow(resourceKey{resLink, li}, p.LinkCap[li])
			}
		}
		if len(f.Paths) > 0 {
			if len(p.UpCap) > 0 && !math.IsInf(p.UpCap[f.Src], 1) {
				addRow(resourceKey{resUp, int(f.Src)}, p.UpCap[f.Src])
			}
			if len(p.DownCap) > 0 && !math.IsInf(p.DownCap[f.Dst], 1) {
				addRow(resourceKey{resDown, int(f.Dst)}, p.DownCap[f.Dst])
			}
		}
	}
	colOf = func(fi, pi int) []int {
		f := &p.Flows[fi]
		var out []int
		out = append(out, rows[resourceKey{resDemand, fi}])
		for _, li := range p.PathLinks(fi, pi) {
			out = append(out, rows[resourceKey{resLink, li}])
		}
		if len(p.UpCap) > 0 {
			if r, ok := rows[resourceKey{resUp, int(f.Src)}]; ok {
				out = append(out, r)
			}
		}
		if len(p.DownCap) > 0 {
			if r, ok := rows[resourceKey{resDown, int(f.Dst)}]; ok {
				out = append(out, r)
			}
		}
		return out
	}
	return b, colOf
}

// LPAuto is the commercial-solver stand-in: exact simplex when the dense
// tableau is affordable, Garg–Könemann otherwise. Either way it is the
// slow, high-quality reference the paper calls "Gurobi".
type LPAuto struct {
	// MaxDenseCells bounds m*n for the simplex path (default 4e6).
	MaxDenseCells int
	// Epsilon for the GK path (default 0.05).
	Epsilon float64
}

// Name implements solve.Solver.
func (LPAuto) Name() string { return "lp-auto" }

// Solve implements solve.Solver. The rows are built once, sized against the
// dense budget and handed to the solver the heuristic picks; instrumented
// runs record the latency under both "lp-auto" and that solver's name.
func (s LPAuto) Solve(p *te.Problem, opts ...solve.Option) (*te.Allocation, error) {
	o := solve.Build(opts...)
	defer solve.Begin(o, "lp-auto").End()
	maxCells := s.MaxDenseCells
	if maxCells == 0 {
		maxCells = 4_000_000
	}
	b, colOf := buildRows(p)
	if len(b)*p.NumPaths() <= maxCells {
		defer solve.Begin(o, "lp-exact").End()
		return solveExact(p, o, b, colOf)
	}
	eps := s.Epsilon
	if eps == 0 {
		eps = 0.05
	}
	defer solve.Begin(o, "gk").End()
	return solveGK(p, eps, b, colOf)
}
