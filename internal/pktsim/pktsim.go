// Package pktsim is a deterministic discrete-event packet engine under the
// TE layer (DESIGN.md §15). Where internal/sim scores an allocation at flow
// granularity, pktsim *executes* it: packets are injected per allocated
// (flow, candidate-path) rate, forwarded hop by hop through the compiled
// label-switched rule tables (internal/rules), serialized onto finite-rate
// links with finite FIFO queues, and delayed by real light-time propagation
// from the snapshot geometry. The output is what the paper's headline claims
// are actually about — per-packet latency distributions, queue occupancy,
// and loss — including stale-rule loss during rule-update windows, where
// per-satellite rule arrival times come from ruledist.RuleDistributionDelays.
//
// Determinism contract: a run is bitwise-identical for a fixed Config.Seed
// at any SATE_WORKERS setting. Three rules make that hold:
//
//   - Virtual time only. The engine never reads the wall clock; the clock
//     is the earliest pending event (pktsim is in satelint's wall-clock
//     deny set).
//   - Total event order. The calendar queue pops events by (time, sequence)
//     where sequence numbers are assigned in a deterministic order, so
//     equal-time events never tie-break on float identity or insertion
//     racing, and the queue's bucket count and width cannot change the order.
//   - Parallel setup, serial order. The injection schedule is counted and
//     filled per-stream by par.For with per-stream seeded RNGs, each stream
//     writing its own slots of the packet slab (worker count cannot reorder
//     them). The event loop runs one node partition per worker in windows
//     one light time long, inside which no packet crosses between
//     partitions; between windows a serial merge walks the partitions'
//     records in the one-partition order, so the sequence numbers, the
//     jitter draws and the delivery log are the ones a single loop produces.
package pktsim

import (
	"sate/internal/obs"
	"sate/internal/te"
	"sate/internal/topology"
)

// Burst is a traffic surge: within [StartSec, StartSec+DurSec) every
// stream's injection rate is multiplied by Factor.
type Burst struct {
	StartSec float64
	DurSec   float64
	Factor   float64
}

// Config tunes one engine run. The zero value is usable: Defaults fills
// every unset knob.
type Config struct {
	Seed       int64
	HorizonSec float64 // injection stops here; in-flight packets drain

	PacketBits int // packet size on the wire (default 12000 = 1500 B)
	QueuePkts  int // per-directed-link FIFO capacity (default 64)

	// JitterFrac adds uniform [0, JitterFrac) × propagation-delay of extra
	// per-hop latency, modeling pointing error and processing variance.
	JitterFrac float64

	// Spikes inserts that many seeded delay spikes: a random link gains
	// spikeExtraSec of propagation delay for spikeDurSec.
	Spikes int

	// Handovers inserts that many seeded link-down windows of
	// handoverDurSec each, modeling ISL re-pointing during handover;
	// packets enqueued onto a down link are dropped.
	Handovers int

	Burst *Burst // optional traffic surge

	// MaxPackets bounds total injected packets (default 4Mi). A schedule
	// that fits is never cut; one that would exceed it keeps each stream's
	// earliest packets up to a common per-stream cap, injects exactly
	// MaxPackets, and Result.Truncated reports it.
	MaxPackets int

	Registry *obs.Registry // optional; nil is a valid no-op sink
}

// Disturbance window shapes (Config.Spikes, Config.Handovers).
const (
	spikeExtraSec  float64 = 0.03 // propagation delay a spike adds
	spikeDurSec    float64 = 0.2  // how long a spike lasts
	handoverDurSec float64 = 0.15 // how long a handover holds a link down
)

// Defaults returns a copy of c with every unset field at its default.
func (c Config) Defaults() Config {
	if c.HorizonSec <= 0 {
		c.HorizonSec = 1
	}
	if c.PacketBits <= 0 {
		c.PacketBits = 12000
	}
	if c.QueuePkts <= 0 {
		c.QueuePkts = 64
	}
	if c.MaxPackets <= 0 {
		c.MaxPackets = 4 << 20
	}
	return c
}

// RuleUpdate describes a rule-distribution window: the network starts on the
// PREVIOUS cycle's rules and each satellite switches to the new rules at
// AtSec + DelaysSec[sat] (its rule-arrival time from
// ruledist.RuleDistributionDelays; +Inf means the satellite never switches).
// Nodes beyond len(DelaysSec) switch at AtSec. Traffic sources follow the
// control center: streams of the previous allocation inject before AtSec,
// streams of the new allocation after — so the engine observes both loss
// modes of a stale window (new-label packets reaching a not-yet-switched
// node, and old-label packets reaching an already-switched one).
type RuleUpdate struct {
	PrevProblem *te.Problem
	PrevAlloc   *te.Allocation
	AtSec       float64
	DelaysSec   []float64
}

// RunSpec is one simulation input: the geometry, the TE problem, the
// allocation to execute, and optionally the update window it replaces.
type RunSpec struct {
	Snap    *topology.Snapshot
	Problem *te.Problem
	Alloc   *te.Allocation
	Update  *RuleUpdate
}

// LatencyBucketsSec are histogram bounds for per-packet latency: 2 ms to
// 1 s, covering single-hop LEO light time up to badly queued long paths.
var LatencyBucketsSec = []float64{
	0.002, 0.005, 0.01, 0.015, 0.02, 0.03, 0.05, 0.075, 0.1, 0.15, 0.25, 0.5, 1,
}

// QueueDepthBuckets are histogram bounds for queue occupancy sampled at
// every enqueue.
var QueueDepthBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128}
