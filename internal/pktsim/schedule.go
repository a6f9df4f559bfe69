package pktsim

import (
	"math/rand"
	"sort"

	"sate/internal/par"
	"sate/internal/te"
	"sate/internal/topology"
)

// stream is one (flow, label) injection source: packets of Config.PacketBits
// at the allocated rate, injected at the flow's source between startSec and
// endSec (its generation's share of the horizon).
type stream struct {
	src, dst int32
	key      uint64            // fwdKey(src, dst, label)
	path     []topology.NodeID // the label's path, source to destination
	rateMbps float64
	startSec float64
	endSec   float64

	// Set by planSchedule: the stream injects packets off..off+n-1 of the
	// slab, the first at firstSec, each baseSec (less inside a burst) after
	// the one before.
	baseSec  float64
	firstSec float64
	off, n   int
}

// buildStreams lists the positive-rate (flow, label) streams. With an update
// window, previous-allocation streams inject before AtSec and new-allocation
// streams after — sources follow the control center's switch instant even
// though mid-network nodes lag by their distribution delay.
func buildStreams(spec *RunSpec, horizonSec float64) []stream {
	var out []stream
	add := func(p *te.Problem, a *te.Allocation, start, end float64) {
		for fi := range p.Flows {
			f := &p.Flows[fi]
			for pi := range f.Paths {
				rate := a.X[fi][pi]
				if rate <= 0 {
					continue
				}
				out = append(out, stream{
					src: int32(f.Src), dst: int32(f.Dst),
					key:      fwdKey(f.Src, f.Dst, pi),
					path:     f.Paths[pi].Nodes,
					rateMbps: rate,
					startSec: start, endSec: end,
				})
			}
		}
	}
	if spec.Update == nil {
		add(spec.Problem, spec.Alloc, 0, horizonSec)
		return out
	}
	at := spec.Update.AtSec
	if at > horizonSec {
		at = horizonSec
	}
	if at > 0 {
		add(spec.Update.PrevProblem, spec.Update.PrevAlloc, 0, at)
	}
	if at < horizonSec {
		add(spec.Problem, spec.Alloc, at, horizonSec)
	}
	return out
}

// mix64 is a splitmix64-style finalizer for deriving independent per-stream
// seeds from (Config.Seed, stream index).
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// interval is the gap to a stream's next packet after one injected at t:
// the stream's base spacing, shortened inside a burst.
func (cfg *Config) interval(base, t float64) float64 {
	if b := cfg.Burst; b != nil && b.Factor > 0 && t >= b.StartSec && t < b.StartSec+b.DurSec {
		return base / b.Factor
	}
	return base
}

// planSchedule counts every stream's packets, budgets the total against
// cfg.MaxPackets and lays the streams out in the packet slab. The fan-out
// runs through par.For, and stream si's phase and count depend only on
// (seed, si) — never on which worker computed them — so the plan is
// bitwise-identical at any SATE_WORKERS setting. A plan whose total fits the
// budget is never cut; one that does not keeps each stream's earliest packets
// up to a common per-stream cap (the largest that fits, the remainder going
// one packet each to the lowest-indexed capped streams), so exactly
// MaxPackets are injected. Returns the total and whether the plan was cut.
func planSchedule(streams []stream, cfg *Config) (total int, truncated bool) {
	par.For(len(streams), par.Grain(len(streams), 8), func(lo, hi int) {
		rng := rand.New(rand.NewSource(0)) // reseeded per stream: one source per chunk
		for si := lo; si < hi; si++ {
			st := &streams[si]
			rng.Seed(int64(mix64(uint64(cfg.Seed) ^ mix64(uint64(si)+1))))
			st.baseSec = float64(cfg.PacketBits) / (st.rateMbps * 1e6)
			// Random initial phase decorrelates same-rate streams; without
			// it every stream would batch its packets onto the same instants.
			st.firstSec = st.startSec + rng.Float64()*st.baseSec
			// One past the budget is enough to know the stream overruns it.
			for t := st.firstSec; t < st.endSec && st.n <= cfg.MaxPackets; st.n++ {
				t += cfg.interval(st.baseSec, t)
			}
		}
	})
	capped := func(q int) (sum int) {
		for si := range streams {
			sum += min(streams[si].n, q)
		}
		return sum
	}
	truncated = capped(cfg.MaxPackets+1) > cfg.MaxPackets
	if truncated {
		q := sort.Search(cfg.MaxPackets, func(q int) bool { return capped(q+1) > cfg.MaxPackets })
		spare := cfg.MaxPackets - capped(q)
		for si := range streams {
			if st := &streams[si]; st.n > q {
				st.n = q
				if spare > 0 {
					st.n++
					spare--
				}
			}
		}
	}
	for si := range streams {
		streams[si].off = total
		total += streams[si].n
	}
	return total, truncated
}

// fillSchedule writes the planned injections into the packet slab, each as a
// pending arrival at its stream's source with seq = slab index (stream-major).
func fillSchedule(pk []packet, streams []stream, cfg *Config) {
	par.For(len(streams), par.Grain(len(streams), 8), func(lo, hi int) {
		for si := lo; si < hi; si++ {
			st := &streams[si]
			t := st.firstSec
			for pid := st.off; pid < st.off+st.n; pid++ {
				pk[pid] = packet{
					t: t, seq: uint64(pid), kind: evArrive, where: st.src,
					key: st.key, dst: st.dst, injectSec: t,
				}
				t += cfg.interval(st.baseSec, t)
			}
		}
	})
}
