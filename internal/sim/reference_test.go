package sim

// The parent commit's hand-spelled evaluation loops (RunOnline, RunOffline,
// the activeAlloc/Fallback scorer and PacketReplay.replay, as of f9a5838),
// kept verbatim under ref* names as the reference the shared cycle is
// checked against bit for bit (cycle_test.go).

import (
	"time"

	"sate/internal/obs"
	"sate/internal/pktsim"
	"sate/internal/ruledist"
	"sate/internal/solve"
	"sate/internal/te"
	"sate/internal/topology"
)

// refActiveAlloc is the allocation currently loaded into the network, with the
// pair-indexed view used to score it against fresh demand.
type refActiveAlloc struct {
	problem *te.Problem
	alloc   *te.Allocation
	// perPair[src<<32|dst] = candidate paths with their allocated rates.
	perPair map[uint64][]refRatedPath
}

type refRatedPath struct {
	nodes []topology.NodeID
	rate  float64
}

func refPairKey(a, b topology.NodeID) uint64 { return uint64(a)<<32 | uint64(uint32(b)) }

func refNewActiveAlloc(p *te.Problem, a *te.Allocation) *refActiveAlloc {
	aa := &refActiveAlloc{problem: p, alloc: a, perPair: make(map[uint64][]refRatedPath)}
	for fi, f := range p.Flows {
		k := refPairKey(f.Src, f.Dst)
		for pi, path := range f.Paths {
			if a.X[fi][pi] <= 0 {
				continue
			}
			aa.perPair[k] = append(aa.perPair[k], refRatedPath{nodes: path.Nodes, rate: a.X[fi][pi]})
		}
	}
	return aa
}

// refSatisfiedAgainst scores the active allocation against the CURRENT problem:
// per pair, the deliverable rate is the allocated rate on paths still valid
// in the current topology, capped by current demand. Pairs without an active
// allocation deliver nothing — the cost of stale TE (Sec. 2.3.2).
func (aa *refActiveAlloc) refSatisfiedAgainst(cur *te.Problem, links topology.LinkSet) float64 {
	total := cur.TotalDemand()
	if total <= 0 {
		return 1
	}
	var delivered float64
	for _, f := range cur.Flows {
		rps := aa.perPair[refPairKey(f.Src, f.Dst)]
		var rate float64
		for _, rp := range rps {
			if refPathValid(rp.nodes, links) {
				rate += rp.rate
			}
		}
		if rate > f.DemandMbps {
			rate = f.DemandMbps
		}
		delivered += rate
	}
	return delivered / total
}

// refPathValid reports whether every hop of the path survives in the link set.
// Membership is kind-agnostic (topology.LinkSet.Has): a configured path does
// not know — and must not care — which LinkKind the live topology assigns to
// a surviving hop.
func refPathValid(nodes []topology.NodeID, links topology.LinkSet) bool {
	for i := 0; i+1 < len(nodes); i++ {
		if !links.Has(nodes[i], nodes[i+1]) {
			return false
		}
	}
	return true
}

// refSameNodes reports whether two paths traverse the same node sequence.
func refSameNodes(a, b []topology.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refMissingRoutes counts routes of a absent from b (compared by node
// sequence; rate changes on a surviving route are not churn).
func refMissingRoutes(a, b map[uint64][]refRatedPath) int {
	n := 0
	for k, aps := range a {
		bps := b[k]
	next:
		for _, ap := range aps {
			for _, bp := range bps {
				if refSameNodes(ap.nodes, bp.nodes) {
					continue next
				}
			}
			n++
		}
	}
	return n
}

// refRouteChurn counts route changes between consecutive active allocations:
// routes added plus routes removed. A nil prev (first recomputation) counts
// every installed route — the initial table push is churn too.
func refRouteChurn(prev, next *refActiveAlloc) int {
	if next == nil {
		return 0
	}
	if prev == nil {
		n := 0
		for _, rps := range next.perPair {
			n += len(rps)
		}
		return n
	}
	return refMissingRoutes(next.perPair, prev.perPair) + refMissingRoutes(prev.perPair, next.perPair)
}

// RunOnline evaluates an allocator in the online setting: the allocation
// computed from the state at each recomputation instant remains in effect
// until the next one; every step scores the active (possibly stale)
// allocation against the then-current topology and demand.
func refRunOnline(s *Scenario, al Allocator, cfg OnlineConfig) (*OnlineResult, error) {
	if cfg.StepSec <= 0 {
		cfg.StepSec = 1
	}
	if cfg.HorizonSec <= 0 {
		cfg.HorizonSec = 60
	}
	reg := cfg.Registry
	var (
		satGauge     = reg.Gauge("sate_online_satisfied_ratio")
		recomputes   = reg.Counter("sate_online_recomputes_total")
		churnTotal   = reg.Counter("sate_online_route_churn_total")
		churnGauge   = reg.Gauge("sate_online_route_churn")
		problemBuild = reg.SpanHistogram(obs.PhasePathPrecompute)
	)
	var sopts []solve.Option
	if reg != nil {
		sopts = []solve.Option{solve.WithRegistry(reg)}
	}
	res := &OnlineResult{Method: al.Name()}
	var active *refActiveAlloc
	nextCompute := cfg.StartSec
	var totalLatency time.Duration
	for t := cfg.StartSec; t < cfg.StartSec+float64(cfg.HorizonSec); t += cfg.StepSec {
		sp := obs.StartTimer(problemBuild)
		cur, snap, _, err := s.ProblemAt(t)
		sp.End()
		if err != nil {
			return nil, err
		}
		if t >= nextCompute {
			start := time.Now()
			alloc, err := al.Solve(cur, sopts...)
			lat := time.Since(start)
			if err != nil {
				return nil, err
			}
			totalLatency += lat
			res.Recomputations++
			recomputes.Inc()
			next := refNewActiveAlloc(cur, alloc)
			churn := refRouteChurn(active, next)
			res.RouteChurn += churn
			churnTotal.Add(uint64(churn))
			churnGauge.Set(float64(churn))
			if cfg.PacketReplay != nil {
				// Replay this cycle at packet granularity: `active` still
				// holds the PREVIOUS allocation, which is exactly the rule
				// generation the network runs until the new push lands.
				pres, perr := refReplay(cfg.PacketReplay, s, snap, active, cur, alloc, res.Recomputations)
				if perr != nil {
					return nil, perr
				}
				if res.PacketStats == nil {
					res.PacketStats = &pktsim.Result{}
				}
				res.PacketStats.Merge(pres)
			}
			active = next
			nextCompute = t + max(cfg.IntervalSec, cfg.StepSec)
		}
		links := snap.LinkSet()
		sat := active.refSatisfiedAgainst(cur, links)
		satGauge.Set(sat)
		res.Satisfied = append(res.Satisfied, sat)
	}
	var sum float64
	for _, v := range res.Satisfied {
		sum += v
	}
	if len(res.Satisfied) > 0 {
		res.SatisfiedMean = sum / float64(len(res.Satisfied))
	}
	if res.Recomputations > 0 {
		res.MeanSolveLatency = totalLatency / time.Duration(res.Recomputations)
	}
	return res, nil
}

// RunOffline evaluates the allocator with zero computation delay: each step's
// problem is solved instantly and scored against itself (Appendix H.1).
func refRunOffline(s *Scenario, al Allocator, steps int, stepSec float64) (*OnlineResult, error) {
	if stepSec <= 0 {
		stepSec = 1
	}
	res := &OnlineResult{Method: al.Name()}
	var totalLatency time.Duration
	for i := 0; i < steps; i++ {
		p, _, _, err := s.ProblemAt(float64(i) * stepSec)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		a, err := al.Solve(p)
		totalLatency += time.Since(start)
		if err != nil {
			return nil, err
		}
		res.Recomputations++
		res.Satisfied = append(res.Satisfied, p.SatisfiedDemand(a))
	}
	var sum float64
	for _, v := range res.Satisfied {
		sum += v
	}
	if len(res.Satisfied) > 0 {
		res.SatisfiedMean = sum / float64(len(res.Satisfied))
	}
	if res.Recomputations > 0 {
		res.MeanSolveLatency = totalLatency / time.Duration(res.Recomputations)
	}
	return res, nil
}

// replay runs one cycle. prev is the allocation the network was running
// before this recompute (nil on the first cycle: no update window).
func refReplay(pr *PacketReplay, scen *Scenario, snap *topology.Snapshot, prev *refActiveAlloc, p *te.Problem, a *te.Allocation, cycle int) (*pktsim.Result, error) {
	cfg := pr.Engine
	cfg.Seed += int64(cycle)
	spec := &pktsim.RunSpec{Snap: snap, Problem: p, Alloc: a}
	if prev != nil {
		at := pr.UpdateAtSec
		if at <= 0 {
			at = 0.1
		}
		spec.Update = &pktsim.RuleUpdate{
			PrevProblem: prev.problem,
			PrevAlloc:   prev.alloc,
			AtSec:       at,
			DelaysSec:   ruledist.RuleDistributionDelays(snap, ruledist.HoustonSite, scen.MinElevRad),
		}
	}
	return pktsim.Run(spec, cfg)
}
