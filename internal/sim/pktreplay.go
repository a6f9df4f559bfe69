package sim

import (
	"sate/internal/pktsim"
	"sate/internal/ruledist"
)

// PacketReplay makes RunOnline execute each recomputation cycle through the
// discrete-event packet engine (internal/pktsim) instead of only scoring it
// at flow granularity. Every recompute replays Engine.HorizonSec of packet
// traffic under the fresh allocation; from the second cycle on, the replay
// starts on the PREVIOUS cycle's rules and switches node by node at
// UpdateAtSec plus each satellite's rule-distribution delay (Appendix D via
// ruledist.RuleDistributionDelays) — so stale-rule loss during the update
// window shows up in the packet accounting.
type PacketReplay struct {
	// Engine configures each per-cycle run. Engine.Seed is advanced per
	// cycle so cycles draw distinct (but reproducible) jitter and
	// disturbance schedules.
	Engine pktsim.Config
	// UpdateAtSec is the instant, within a replayed cycle, when the control
	// center pushes the new rules (default 0.1 s).
	UpdateAtSec float64
}

// RunSpec builds the packet-engine input for the update window prev → cur:
// the engine executes cur's allocation on cur's snapshot, and — when prev is
// non-nil — starts on prev's rules with every satellite switching at
// UpdateAtSec plus its rule-distribution delay from ruledist.HoustonSite,
// which seeds the satellites above the scenario's user minimum elevation. A
// nil prev (the first cycle) has no update window.
func (pr *PacketReplay) RunSpec(scen *Scenario, prev, cur *Cycle) *pktsim.RunSpec {
	spec := &pktsim.RunSpec{Snap: cur.Snap, Problem: cur.Problem, Alloc: cur.Alloc}
	if prev == nil {
		return spec
	}
	at := pr.UpdateAtSec
	if at <= 0 {
		at = 0.1
	}
	spec.Update = &pktsim.RuleUpdate{
		PrevProblem: prev.Problem,
		PrevAlloc:   prev.Alloc,
		AtSec:       at,
		DelaysSec:   ruledist.RuleDistributionDelays(cur.Snap, ruledist.HoustonSite, scen.MinElevRad),
	}
	return spec
}

// replay runs one cycle through the engine. prev is the cycle the network
// was running before this recompute (nil on the first one).
func (pr *PacketReplay) replay(scen *Scenario, prev, cur *Cycle, cycle int) (*pktsim.Result, error) {
	cfg := pr.Engine
	cfg.Seed += int64(cycle)
	return pktsim.Run(pr.RunSpec(scen, prev, cur), cfg)
}
