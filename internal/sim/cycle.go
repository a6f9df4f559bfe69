package sim

import (
	"context"
	"fmt"
	"slices"
	"time"

	"sate/internal/baselines"
	"sate/internal/core"
	"sate/internal/obs"
	"sate/internal/rules"
	"sate/internal/solve"
	"sate/internal/te"
	"sate/internal/topology"
)

// Allocator is anything that computes a TE allocation (SaTE, the LP solvers,
// the heuristics, the learned baselines): the sim-side name of solve.Solver.
type Allocator = solve.Solver

// Cycle is one TE cycle: the state the control loop observed at TimeSec and
// what it computed from it. The controller, the online and offline
// evaluators, the packet replay and the training recipe all work
// on this one value; a Cycle with a nil Alloc has been observed but not
// solved (Solve fills it in), one with nil Rules has not been compiled
// (Compile fills them in).
type Cycle struct {
	TimeSec float64
	Snap    *topology.Snapshot
	Problem *te.Problem
	Alloc   *te.Allocation
	Rules   *rules.RuleSet
	Stages  Stages

	// perPair[src<<32|dst] = the pair's paths with their allocated rates:
	// the view a stale allocation is scored and diffed through. Built on
	// first use, so a Cycle must not be scored from two goroutines at once.
	perPair map[uint64][]ratedPath
}

// Stages is the wall time of each stage the cycle ran, measured by the
// stage's own step (observe, Solve, Compile); a stage not run reads zero.
type Stages struct {
	Observe, Solve, Compile time.Duration
}

type ratedPath struct {
	nodes []topology.NodeID
	rate  float64
}

// wallNow reads the wall clock for Stages: stage latency is the quantity
// measured there, never simulated time.
func wallNow() time.Time {
	//lint:ignore no-wallclock-in-sim stage wall time is the quantity being measured here, not simulated time
	return time.Now()
}

// observe runs the scenario step at tSec (topology with any configured
// failure injection, traffic matrix, path update, te.Build), recording its
// time on reg's path-precompute span: the one builder of a Cycle from the
// scenario.
func (s *Scenario) observe(tSec float64, reg *obs.Registry) (*Cycle, error) {
	start := wallNow()
	p, snap, _, err := s.ProblemAt(tSec)
	if err != nil {
		return nil, err
	}
	c := &Cycle{TimeSec: tSec, Snap: snap, Problem: p, Stages: Stages{Observe: wallNow().Sub(start)}}
	reg.SpanHistogram(obs.PhasePathPrecompute).Observe(c.Stages.Observe.Seconds())
	return c, nil
}

// RunCycle runs one TE cycle at simulated time tSec: the scenario step,
// then the solve. The context is checked between the phases; a phase in
// flight runs to completion. When the step succeeded the observed cycle is
// returned even on error, so the caller can score a stale allocation
// against it. A registry among opts also receives the step's
// path-precompute span.
func (s *Scenario) RunCycle(ctx context.Context, al Allocator, tSec float64, opts ...solve.Option) (*Cycle, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c, err := s.observe(tSec, solve.Build(opts...).Registry)
	if err != nil {
		return nil, fmt.Errorf("building problem: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return c, err
	}
	if err := c.Solve(al, opts...); err != nil {
		return c, fmt.Errorf("solving: %w", err)
	}
	return c, nil
}

// Solve computes the cycle's allocation, dropping any rules compiled from
// an earlier one.
func (c *Cycle) Solve(al Allocator, opts ...solve.Option) error {
	start := wallNow()
	a, err := al.Solve(c.Problem, opts...)
	c.Stages.Solve = wallNow().Sub(start)
	c.Alloc, c.Rules, c.perPair = a, nil, nil
	return err
}

// Compile compiles the cycle's allocation into per-satellite rules and sets
// Rules if they pass rules.Verify. Once Rules is set a call does no work; an
// unsolved cycle is an error.
func (c *Cycle) Compile() error {
	if c.Rules != nil {
		return nil
	}
	if c.Alloc == nil {
		return fmt.Errorf("sim: compiling the unsolved cycle at %gs", c.TimeSec)
	}
	start := wallNow()
	rs := rules.Compile(c.Problem, c.Alloc)
	err := rules.Verify(c.Problem, c.Alloc, rs)
	c.Stages.Compile = wallNow().Sub(start)
	if err != nil {
		return fmt.Errorf("rule verification: %w", err)
	}
	c.Rules = rs
	return nil
}

// SolveEach steps the scenario through the instants and hands visit a cycle
// for each one that has traffic, solved by al (unsolved when al is nil);
// instants without traffic are skipped, and one before the traffic clock is
// an error. An error from visit stops the walk and is returned. It is the
// loop under the offline evaluator and the training recipe.
func (s *Scenario) SolveEach(al Allocator, times []float64, visit func(*Cycle) error) error {
	for _, t := range times {
		if err := s.notBefore(t); err != nil {
			return err
		}
		c, err := s.observe(t, nil)
		if err != nil {
			return err
		}
		if len(c.Problem.Flows) == 0 {
			continue
		}
		if al != nil {
			if err := c.Solve(al); err != nil {
				return err
			}
		}
		if err := visit(c); err != nil {
			return err
		}
	}
	return nil
}

// notBefore refuses an instant before the traffic clock, which cannot step
// back: a pass that revisits instants needs a fresh scenario. ProblemAt and
// RunCycle do not check; the controller drops late requests at publish.
func (s *Scenario) notBefore(tSec float64) error {
	if now := s.Traffic.Now(); tSec < now {
		return fmt.Errorf("sim: instant %gs is before the scenario's traffic clock (%gs); revisit it on a fresh scenario", tSec, now)
	}
	return nil
}

// Recipe is how a SaTE model learns from a scenario: the training instants
// and the loop's config. Fit labels each instant's problem with
// baselines.LPAuto, or nothing under the self-supervised MLU objective.
type Recipe struct {
	Instants []float64
	core.TrainConfig
}

// Fit trains m by the recipe on one sample per instant with traffic: the one
// path from scenario instants to a trained model.
func (s *Scenario) Fit(m *core.Model, r Recipe) (*core.TrainResult, error) {
	var label Allocator
	if r.Objective != solve.MLU {
		label = baselines.LPAuto{}
	}
	var samples []*core.Sample
	err := s.SolveEach(label, r.Instants, func(c *Cycle) error {
		samples = append(samples, core.NewSample(c.Problem, c.Alloc))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return core.Train(m, samples, r.TrainConfig)
}

// Instants returns n times spaced stride apart from start.
func Instants(start, stride float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*stride
	}
	return out
}

func pairKey(a, b topology.NodeID) uint64 { return uint64(a)<<32 | uint64(uint32(b)) }

// routes returns (building it on first use) the pair-indexed view of the
// cycle's allocation.
func (c *Cycle) routes() map[uint64][]ratedPath {
	if c.perPair == nil {
		c.perPair = make(map[uint64][]ratedPath)
		for fi, f := range c.Problem.Flows {
			k := pairKey(f.Src, f.Dst)
			for pi, path := range f.Paths {
				if c.Alloc.X[fi][pi] <= 0 {
					continue
				}
				c.perPair[k] = append(c.perPair[k], ratedPath{nodes: path.Nodes, rate: c.Alloc.X[fi][pi]})
			}
		}
	}
	return c.perPair
}

// Satisfied scores the cycle's allocation against a later problem — the
// online evaluator's per-step metric and the controller's degraded-mode
// re-score (DESIGN.md §10): per pair, the deliverable rate is the allocated
// rate on paths whose every hop survives in links, capped by the pair's
// current demand, summed and divided by current total demand. Pairs without
// an allocation deliver nothing — the cost of stale TE (Sec. 2.3.2). links
// is typically the link set of the (possibly failure-injected) topology cur
// was built from.
func (c *Cycle) Satisfied(cur *te.Problem, links topology.LinkSet) float64 {
	total := cur.TotalDemand()
	if total <= 0 {
		return 1
	}
	routes := c.routes()
	var delivered float64
	for _, f := range cur.Flows {
		var rate float64
		for _, rp := range routes[pairKey(f.Src, f.Dst)] {
			if pathValid(rp.nodes, links) {
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

// pathValid reports whether every hop of the path survives in the link set.
// Membership is kind-agnostic (topology.LinkSet.Has): a configured path does
// not know — and must not care — which LinkKind the live topology assigns to
// a surviving hop.
func pathValid(nodes []topology.NodeID, links topology.LinkSet) bool {
	for i := 0; i+1 < len(nodes); i++ {
		if !links.Has(nodes[i], nodes[i+1]) {
			return false
		}
	}
	return true
}

// missingRoutes counts routes of a absent from b (compared by node
// sequence; rate changes on a surviving route are not churn).
func missingRoutes(a, b map[uint64][]ratedPath) int {
	n := 0
	for k, aps := range a {
		bps := b[k]
	next:
		for _, ap := range aps {
			for _, bp := range bps {
				if slices.Equal(ap.nodes, bp.nodes) {
					continue next
				}
			}
			n++
		}
	}
	return n
}

// routeChurn counts route changes between consecutive cycles: routes added
// plus routes removed. A nil prev (first recomputation) counts every
// installed route — the initial table push is churn too.
func routeChurn(prev, next *Cycle) int {
	if next == nil {
		return 0
	}
	if prev == nil {
		n := 0
		for _, rps := range next.routes() {
			n += len(rps)
		}
		return n
	}
	return missingRoutes(next.routes(), prev.routes()) + missingRoutes(prev.routes(), next.routes())
}
