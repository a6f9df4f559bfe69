package baselines

import (
	"math"

	"sate/internal/solve"
	"sate/internal/te"
)

// ECMPWF implements "ECMP with water filling" [35]: each flow splits traffic
// equally across its minimum-hop candidate paths, and all flows are raised
// together max-min style until paths saturate. Flows freeze when any resource
// on their equal-cost paths is exhausted or their demand is met; remaining
// flows keep filling.
type ECMPWF struct {
	// Rounds bounds the water-filling iterations (default 64).
	Rounds int
}

// Name implements solve.Solver.
func (ECMPWF) Name() string { return "ecmp-wf" }

// Solve implements solve.Solver.
func (s ECMPWF) Solve(p *te.Problem, opts ...solve.Option) (*te.Allocation, error) {
	defer solve.Begin(solve.Build(opts...), "ecmp-wf").End()
	rounds := s.Rounds
	if rounds <= 0 {
		rounds = 64
	}
	alloc := te.NewAllocation(p)
	bounds, colOf := buildRows(p)
	residual := append([]float64(nil), bounds...)

	// Equal-cost path sets: minimum-hop candidates per flow.
	type fstate struct {
		paths  []int   // indices of min-hop paths
		rows   [][]int // resource rows per such path
		rate   float64 // per-path rate
		frozen bool
	}
	fs := make([]fstate, len(p.Flows))
	active := 0
	for fi, f := range p.Flows {
		if len(f.Paths) == 0 {
			fs[fi].frozen = true
			continue
		}
		minHops := math.MaxInt32
		for _, path := range f.Paths {
			if h := path.Hops(); h < minHops {
				minHops = h
			}
		}
		for pi, path := range f.Paths {
			if path.Hops() == minHops {
				fs[fi].paths = append(fs[fi].paths, pi)
				fs[fi].rows = append(fs[fi].rows, colOf(fi, pi))
			}
		}
		active++
	}

	for r := 0; r < rounds && active > 0; r++ {
		// Largest uniform per-path increment every unfrozen flow can take:
		// for each resource, capacity is consumed by every unfrozen path
		// through it, so increment <= residual / users.
		users := make([]float64, len(residual))
		for fi := range fs {
			if fs[fi].frozen {
				continue
			}
			for _, rows := range fs[fi].rows {
				for _, rr := range rows {
					users[rr]++
				}
			}
		}
		inc := math.Inf(1)
		for rr := range residual {
			if users[rr] > 0 {
				if v := residual[rr] / users[rr]; v < inc {
					inc = v
				}
			}
		}
		if math.IsInf(inc, 1) || inc <= 1e-12 {
			break
		}
		// Apply the increment, freeze flows at exhausted resources or at
		// demand (demand rows are resources too, so both freeze uniformly).
		for fi := range fs {
			st := &fs[fi]
			if st.frozen {
				continue
			}
			st.rate += inc
			for pj, pi := range st.paths {
				alloc.X[fi][pi] += inc
				for _, rr := range st.rows[pj] {
					residual[rr] -= inc
				}
			}
		}
		for fi := range fs {
			st := &fs[fi]
			if st.frozen {
				continue
			}
			for _, rows := range st.rows {
				for _, rr := range rows {
					if residual[rr] <= 1e-9 {
						st.frozen = true
					}
				}
			}
			if st.frozen {
				active--
			}
		}
	}
	p.Trim(alloc)
	return alloc, nil
}
