package baselines

import (
	"math"

	"sate/internal/solve"
	"sate/internal/te"
)

// MaxMinFair implements progressive-filling max-min fair allocation over the
// candidate paths: all unfrozen flows' rates rise together; a flow freezes
// when its demand is met or every incremental path it uses hits a saturated
// resource. This is the fairness-first point of the efficiency-fairness
// trade-off the paper discusses in Appendix A (Eq. 3's utility objectives);
// it complements the throughput-maximising solvers.
type MaxMinFair struct {
	// Rounds bounds the filling iterations (default 128).
	Rounds int
}

// Name implements solve.Solver.
func (MaxMinFair) Name() string { return "maxmin-fair" }

// Solve implements solve.Solver.
func (s MaxMinFair) Solve(p *te.Problem, opts ...solve.Option) (*te.Allocation, error) {
	defer solve.Begin(solve.Build(opts...), "maxmin-fair").End()
	rounds := s.Rounds
	if rounds <= 0 {
		rounds = 128
	}
	alloc := te.NewAllocation(p)
	bounds, colOf := buildRows(p)
	residual := append([]float64(nil), bounds...)

	type fstate struct {
		rows   [][]int // resource rows per candidate path
		frozen bool
	}
	fs := make([]fstate, len(p.Flows))
	active := 0
	for fi, f := range p.Flows {
		if len(f.Paths) == 0 {
			fs[fi].frozen = true
			continue
		}
		for pi := range f.Paths {
			fs[fi].rows = append(fs[fi].rows, colOf(fi, pi))
		}
		active++
	}

	for r := 0; r < rounds && active > 0; r++ {
		// Each unfrozen flow routes its increment along its single best
		// (most-residual-bottleneck) path this round; compute the largest
		// uniform increment all can take together.
		bestPath := make([]int, len(p.Flows))
		users := make([]float64, len(residual))
		for fi := range fs {
			st := &fs[fi]
			if st.frozen {
				continue
			}
			bestPath[fi] = -1
			bestBottleneck := 0.0
			for pi, rows := range st.rows {
				b := math.Inf(1)
				for _, rr := range rows {
					if residual[rr] < b {
						b = residual[rr]
					}
				}
				if b > bestBottleneck {
					bestBottleneck, bestPath[fi] = b, pi
				}
			}
			if bestPath[fi] < 0 || bestBottleneck <= 1e-9 {
				st.frozen = true
				active--
				continue
			}
			for _, rr := range st.rows[bestPath[fi]] {
				users[rr]++
			}
		}
		if active == 0 {
			break
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
		for fi := range fs {
			st := &fs[fi]
			if st.frozen || bestPath[fi] < 0 {
				continue
			}
			alloc.X[fi][bestPath[fi]] += inc
			for _, rr := range st.rows[bestPath[fi]] {
				residual[rr] -= inc
			}
		}
		// Freeze flows whose chosen path hit a saturated resource (includes
		// the demand row, so met demands freeze too).
		for fi := range fs {
			st := &fs[fi]
			if st.frozen || bestPath[fi] < 0 {
				continue
			}
			for _, rr := range st.rows[bestPath[fi]] {
				if residual[rr] <= 1e-9 {
					// Only freeze if ALL paths are exhausted; otherwise the
					// next round re-picks a path.
					allDead := true
					for _, rows := range st.rows {
						ok := true
						for _, r2 := range rows {
							if residual[r2] <= 1e-9 {
								ok = false
								break
							}
						}
						if ok {
							allDead = false
							break
						}
					}
					if allDead {
						st.frozen = true
						active--
					}
					break
				}
			}
		}
	}
	p.Trim(alloc)
	return alloc, nil
}
