package sim

import (
	"fmt"
	"math"
	"time"

	"sate/internal/obs"
	"sate/internal/pktsim"
	"sate/internal/solve"
)

// OnlineConfig controls an online evaluation run.
type OnlineConfig struct {
	HorizonSec int
	// StartSec offsets the evaluation window (e.g. past the arrival
	// process's ramp-up into steady state).
	StartSec float64
	// IntervalSec is the recomputation interval in simulated seconds. The
	// paper sets it to the method's average computational latency (1 s for
	// SaTE, 47 s for Gurobi, ...). Values below StepSec (zero included)
	// mean StepSec: recompute every step. The measured wall-clock solve
	// latency never paces the run — it is reported in MeanSolveLatency
	// only — so every other result field is a function of (seed, config).
	IntervalSec float64
	// StepSec is the metric sampling step (default 1 s). The run scores
	// the instants StartSec + i·StepSec for the ceil(HorizonSec/StepSec)
	// values of i (stepCount).
	StepSec float64
	// Registry receives online-evaluation metrics: per-step satisfaction
	// gauge, recompute counter, route-churn counter/gauge, problem-build
	// spans, and the per-solve latency histograms recorded by the allocator
	// itself (DESIGN.md §9). Nil disables instrumentation.
	Registry *obs.Registry
	// PacketReplay, when set, additionally executes every recomputation
	// cycle through the discrete-event packet engine and accumulates the
	// per-packet accounting in OnlineResult.PacketStats (DESIGN.md §15).
	PacketReplay *PacketReplay
}

// OnlineResult summarises an online run.
type OnlineResult struct {
	Method string
	// SatisfiedMean is the average per-step online satisfied demand.
	SatisfiedMean float64
	// Satisfied holds the per-step values.
	Satisfied []float64
	// Recomputations counts TE solves performed.
	Recomputations int
	// MeanSolveLatency is the average measured solve wall time.
	MeanSolveLatency time.Duration
	// RouteChurn counts route (pair, path) changes across consecutive
	// recomputations: paths that newly carry traffic plus paths that
	// stopped carrying traffic. The first allocation counts all its routes.
	RouteChurn int
	// PacketStats aggregates the packet-level replay of every recompute
	// cycle; nil unless OnlineConfig.PacketReplay was set.
	PacketStats *pktsim.Result
}

// RunOnline evaluates an allocator in the online setting: the cycle run at
// each recomputation instant stays in effect until the next one; every step
// scores the active (possibly stale) cycle against the then-current topology
// and demand. A start before the scenario's traffic clock is an error.
func (s *Scenario) RunOnline(al Allocator, cfg OnlineConfig) (*OnlineResult, error) {
	if cfg.StepSec <= 0 {
		cfg.StepSec = 1
	}
	if cfg.HorizonSec <= 0 {
		cfg.HorizonSec = 60
	}
	if err := s.notBefore(cfg.StartSec); err != nil {
		return nil, err
	}
	reg := cfg.Registry
	var (
		satGauge   = reg.Gauge("sate_online_satisfied_ratio")
		recomputes = reg.Counter("sate_online_recomputes_total")
		churnTotal = reg.Counter("sate_online_route_churn_total")
		churnGauge = reg.Gauge("sate_online_route_churn")
		sopts      = []solve.Option{solve.WithRegistry(reg)}
	)
	res := &OnlineResult{Method: al.Name()}
	var active *Cycle
	nextCompute := cfg.StartSec
	var totalLatency time.Duration
	for i := range stepCount(cfg.HorizonSec, cfg.StepSec) {
		// From the index, not t += StepSec: a fractional step drifts when
		// accumulated, and a drifted t adds a step to the horizon.
		t := cfg.StartSec + float64(i)*cfg.StepSec
		c, err := s.observe(t, reg)
		if err != nil {
			return nil, err
		}
		if t >= nextCompute {
			if err := c.Solve(al, sopts...); err != nil {
				return nil, err
			}
			totalLatency += c.Stages.Solve
			res.Recomputations++
			recomputes.Inc()
			churn := routeChurn(active, c)
			res.RouteChurn += churn
			churnTotal.Add(uint64(churn))
			churnGauge.Set(float64(churn))
			if cfg.PacketReplay != nil {
				// Replay this cycle at packet granularity: `active` still
				// holds the PREVIOUS cycle, which is exactly the rule
				// generation the network runs until the new push lands.
				pres, err := cfg.PacketReplay.replay(s, active, c, res.Recomputations)
				if err != nil {
					return nil, err
				}
				if res.PacketStats == nil {
					res.PacketStats = &pktsim.Result{}
				}
				res.PacketStats.Merge(pres)
			}
			active = c
			nextCompute = t + max(cfg.IntervalSec, cfg.StepSec)
		}
		sat := active.Satisfied(c.Problem, c.Snap.LinkSet())
		satGauge.Set(sat)
		res.Satisfied = append(res.Satisfied, sat)
	}
	res.finish(totalLatency)
	return res, nil
}

// stepCount is the number of sampling instants in a horizon:
// ceil(horizonSec/stepSec), where a quotient within 1e-9 (relative) of a
// whole number counts as that number — 3 s in steps of 0.3 s is 10 steps,
// though 0.3 has no exact binary value.
func stepCount(horizonSec int, stepSec float64) int {
	q := float64(horizonSec) / stepSec
	if r := math.Round(q); math.Abs(q-r) <= 1e-9*r {
		return int(r)
	}
	return int(math.Ceil(q))
}

// RunOffline evaluates the allocator with zero computation delay: the
// problems at steps instants spaced strideSec apart from startSec are each
// solved and scored against themselves (Appendix H.1). Instants without
// traffic are skipped; a window with no traffic at all, or one starting
// before the scenario's traffic clock, is an error.
func (s *Scenario) RunOffline(al Allocator, startSec, strideSec float64, steps int) (*OnlineResult, error) {
	res := &OnlineResult{Method: al.Name()}
	var totalLatency time.Duration
	err := s.SolveEach(al, Instants(startSec, strideSec, steps), func(c *Cycle) error {
		totalLatency += c.Stages.Solve
		res.Recomputations++
		res.Satisfied = append(res.Satisfied, c.Problem.SatisfiedDemand(c.Alloc))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if res.Recomputations == 0 {
		return nil, fmt.Errorf("sim: no traffic at any of the %d evaluated instants", steps)
	}
	res.finish(totalLatency)
	return res, nil
}

// finish fills in the means over the recorded steps and solves.
func (r *OnlineResult) finish(totalLatency time.Duration) {
	var sum float64
	for _, v := range r.Satisfied {
		sum += v
	}
	if len(r.Satisfied) > 0 {
		r.SatisfiedMean = sum / float64(len(r.Satisfied))
	}
	if r.Recomputations > 0 {
		r.MeanSolveLatency = totalLatency / time.Duration(r.Recomputations)
	}
}
