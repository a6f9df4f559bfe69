package pktsim

import (
	"math"
	"sort"
)

// Result is one engine run's accounting. Integer counters plus the raw
// per-packet latency series (in delivery order, which is deterministic);
// everything else is derived on demand.
type Result struct {
	Injected  int
	Delivered int

	DroppedQueue  int // FIFO overflow on a saturated port
	DroppedNoRule int // no forwarding rule — stale-rule loss inside update windows
	DroppedDown   int // port in a handover window (or its link left the topology)
	DroppedLoop   int // hop-budget exceeded (cross-generation forwarding loop)

	Truncated    bool // the schedule exceeded MaxPackets and was cut to it
	MaxQueuePkts int  // high-water occupancy over every port (queued + in service)

	LatenciesSec []float64 // one entry per delivered packet, delivery order
}

// Dropped is the total loss across all causes.
func (r *Result) Dropped() int {
	return r.DroppedQueue + r.DroppedNoRule + r.DroppedDown + r.DroppedLoop
}

// LossFrac is dropped / injected (0 for an empty run).
func (r *Result) LossFrac() float64 {
	if r.Injected == 0 {
		return 0
	}
	return float64(r.Dropped()) / float64(r.Injected)
}

// LatencyPercentiles returns the nearest-rank p-th percentiles (0 < p <=
// 100, in any order) of delivered packet latency in seconds, from one sorted
// copy of the series. NaN when nothing was delivered, so a missing
// distribution cannot masquerade as a zero-latency one.
func (r *Result) LatencyPercentiles(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	n := len(r.LatenciesSec)
	if n == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	s := append([]float64(nil), r.LatenciesSec...)
	sort.Float64s(s)
	for i, p := range ps {
		idx := int(math.Ceil(p/100*float64(n))) - 1
		out[i] = s[min(max(idx, 0), n-1)]
	}
	return out
}

// MeanLatencySec is the mean delivered-packet latency (NaN when empty).
func (r *Result) MeanLatencySec() float64 {
	if len(r.LatenciesSec) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range r.LatenciesSec {
		sum += v
	}
	return sum / float64(len(r.LatenciesSec))
}

// Merge folds another run into r — how the online-replay adapter aggregates
// per-cycle results into one horizon-wide distribution.
func (r *Result) Merge(o *Result) {
	if o == nil {
		return
	}
	r.Injected += o.Injected
	r.Delivered += o.Delivered
	r.DroppedQueue += o.DroppedQueue
	r.DroppedNoRule += o.DroppedNoRule
	r.DroppedDown += o.DroppedDown
	r.DroppedLoop += o.DroppedLoop
	r.Truncated = r.Truncated || o.Truncated
	if o.MaxQueuePkts > r.MaxQueuePkts {
		r.MaxQueuePkts = o.MaxQueuePkts
	}
	r.LatenciesSec = append(r.LatenciesSec, o.LatenciesSec...)
}
