package baselines

import (
	"math"

	"sate/internal/solve"
	"sate/internal/te"
)

// GK is a Garg–Könemann-style multiplicative-weights solver for the TE
// packing LP, with Fleischer's phase organisation: per phase, every flow
// keeps routing along its cheapest candidate path while that path's weighted
// length stays within (1+eps) of the phase lower bound. The final primal is
// scaled to feasibility by the standard log factor and trimmed.
//
// Guarantee: (1 - O(eps)) of optimal. At eps = 0.05 the solutions are within
// a few percent of the simplex optimum (cross-checked in tests), with runtime
// polynomial in the number of resources — the scalable "commercial solver"
// path for mega-constellation instances.
type GK struct {
	Epsilon float64
}

// Name implements solve.Solver.
func (GK) Name() string { return "gk" }

// Solve implements solve.Solver.
func (g GK) Solve(p *te.Problem, opts ...solve.Option) (*te.Allocation, error) {
	defer solve.Begin(solve.Build(opts...), "gk").End()
	bounds, colOf := buildRows(p)
	return solveGK(p, g.Epsilon, bounds, colOf)
}

// solveGK is GK over rows already built by buildRows.
func solveGK(p *te.Problem, eps float64, bounds []float64, colOf func(fi, pi int) []int) (*te.Allocation, error) {
	if eps <= 0 || eps >= 1 {
		eps = 0.1
	}
	m := len(bounds)
	alloc := te.NewAllocation(p)
	if m == 0 || p.NumPaths() == 0 {
		return alloc, nil
	}

	// Column cache: resource rows per (flow, path).
	type column struct {
		fi, pi int
		rows   []int
	}
	cols := make([][]column, len(p.Flows)) // per flow
	for fi := range p.Flows {
		for pi := range p.Flows[fi].Paths {
			cols[fi] = append(cols[fi], column{fi, pi, colOf(fi, pi)})
		}
	}

	delta := (1 + eps) * math.Pow((1+eps)*float64(m), -1/eps)
	y := make([]float64, m)
	for i := range y {
		y[i] = delta / bounds[i]
	}
	// D = sum_i y_i * b_i; algorithm stops when D >= 1.
	d := delta * float64(m)

	x := make([][]float64, len(p.Flows))
	for fi := range p.Flows {
		x[fi] = make([]float64, len(p.Flows[fi].Paths))
	}

	lenOf := func(c column) float64 {
		var s float64
		for _, r := range c.rows {
			s += y[r]
		}
		return s
	}

	// Initial phase bound: the global minimum column length.
	alpha := math.Inf(1)
	for fi := range cols {
		for _, c := range cols[fi] {
			if l := lenOf(c); l < alpha {
				alpha = l
			}
		}
	}
	if math.IsInf(alpha, 1) {
		return alloc, nil
	}

	maxPhases := int(math.Ceil(math.Log(1/delta)/math.Log(1+eps))) + 2
	for phase := 0; phase < maxPhases && d < 1; phase++ {
		for fi := range cols {
			if d >= 1 {
				break
			}
			for {
				// Cheapest candidate path of this flow.
				best := -1
				bestLen := math.Inf(1)
				for ci, c := range cols[fi] {
					if l := lenOf(c); l < bestLen {
						bestLen, best = l, ci
					}
				}
				if best < 0 || bestLen > (1+eps)*alpha {
					break
				}
				c := cols[fi][best]
				// Bottleneck amount over the column's resources.
				amt := math.Inf(1)
				for _, r := range c.rows {
					if bounds[r] < amt {
						amt = bounds[r]
					}
				}
				if amt <= 0 || math.IsInf(amt, 1) {
					break
				}
				x[c.fi][c.pi] += amt
				for _, r := range c.rows {
					grow := eps * amt / bounds[r]
					d += y[r] * bounds[r] * grow
					y[r] *= 1 + grow
				}
				if d >= 1 {
					break
				}
			}
		}
		alpha *= 1 + eps
	}

	// Scale to feasibility: every resource r satisfies
	// sum_cols x * 1 <= b_r * log_{1+eps}(1/delta).
	scale := math.Log(1/delta) / math.Log(1+eps)
	if scale <= 0 {
		scale = 1
	}
	for fi := range x {
		for pi := range x[fi] {
			alloc.X[fi][pi] = x[fi][pi] / scale
		}
	}
	p.Trim(alloc) // exact feasibility (scaling bound is slightly loose)
	return alloc, nil
}
