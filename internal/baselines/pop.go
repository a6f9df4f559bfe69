package baselines

import (
	"math"
	"math/rand"
	"time"

	"sate/internal/solve"
	"sate/internal/te"
)

// POP implements the resource-allocation decomposition of Narayanan et al.
// [SOSP'21]: flows are randomly partitioned into K groups; each group is
// solved against a copy of the network with capacities scaled by 1/K; the
// sub-allocations are combined. Subproblems are independent, so a K-way
// parallel deployment takes max (not sum) of subproblem latencies;
// MaxSubLatency records that for the latency experiments.
type POP struct {
	// K is the group count: 0 picks the default (4), 1 degenerates to a
	// single unscaled subproblem (equivalent to the inner solver alone).
	K     int
	Seed  int64
	Inner solve.Solver // solver for subproblems; LPAuto if nil

	// MaxSubLatency is the latency of the slowest subproblem in the most
	// recent Solve (the parallel-execution latency model of Fig. 8).
	MaxSubLatency time.Duration
}

// Name implements solve.Solver.
func (POP) Name() string { return "pop" }

// Solve implements solve.Solver. Options are forwarded to the subproblem solver,
// so instrumented runs also record per-subproblem latencies under the inner
// solver's name.
func (s *POP) Solve(p *te.Problem, opts ...solve.Option) (*te.Allocation, error) {
	defer solve.Begin(solve.Build(opts...), "pop").End()
	k := s.K
	if k <= 0 {
		k = 4
	}
	inner := s.Inner
	if inner == nil {
		inner = LPAuto{}
	}
	rng := rand.New(rand.NewSource(s.Seed))
	group := make([]int, len(p.Flows))
	for i := range group {
		group[i] = rng.Intn(k)
	}

	alloc := te.NewAllocation(p)
	s.MaxSubLatency = 0
	for gi := 0; gi < k; gi++ {
		sub := &te.Problem{
			NumNodes: p.NumNodes,
			Links:    p.Links,
			LinkCap:  scaleSlice(p.LinkCap, 1/float64(k)),
		}
		if len(p.UpCap) > 0 {
			sub.UpCap = scaleSlice(p.UpCap, 1/float64(k))
			sub.DownCap = scaleSlice(p.DownCap, 1/float64(k))
		}
		var back []int // sub flow index -> original flow index
		for fi, f := range p.Flows {
			if group[fi] != gi {
				continue
			}
			sub.Flows = append(sub.Flows, f)
			back = append(back, fi)
		}
		if len(sub.Flows) == 0 {
			continue
		}
		if err := sub.Finalize(); err != nil {
			return nil, err
		}
		start := time.Now()
		sa, err := inner.Solve(sub, opts...)
		if el := time.Since(start); el > s.MaxSubLatency {
			s.MaxSubLatency = el
		}
		if err != nil {
			return nil, err
		}
		for sfi, fi := range back {
			copy(alloc.X[fi], sa.X[sfi])
		}
	}
	p.Trim(alloc)
	return alloc, nil
}

func scaleSlice(x []float64, s float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		if math.IsInf(v, 1) {
			out[i] = v
			continue
		}
		out[i] = v * s
	}
	return out
}
