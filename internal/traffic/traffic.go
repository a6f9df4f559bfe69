// Package traffic generates satellite traffic workloads: Poisson flow
// arrivals between population-weighted ground sites, the flow classes of
// Table 2 (voice, video, file transfer), a flow-lifetime engine, and sparse
// traffic matrices aggregated per satellite pair (Sec. 4, Appendix G).
package traffic

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"

	"sate/internal/constellation"
	"sate/internal/groundnet"
)

// Class describes one business type of Table 2.
type Class struct {
	Name           string
	DemandMbps     float64
	MinDurationSec float64
	MaxDurationSec float64
	Weight         float64 // relative arrival share
	GatewayToUser  bool    // gateway-to-user (Internet access) vs user-to-user
}

// DefaultClasses returns the flow parameters of Table 2.
//
//	Voice:         64 Kbps (G.711), 1-10 minutes, user-to-user
//	Video:          8 Mbps (1080p), 5-30 minutes, user-to-user
//	File transfer: 50 Mbps, 26-130 minutes (10-50 GB), gateway-to-user
func DefaultClasses() []Class {
	return []Class{
		{Name: "voice", DemandMbps: 0.064, MinDurationSec: 60, MaxDurationSec: 600, Weight: 0.55},
		{Name: "video", DemandMbps: 8, MinDurationSec: 300, MaxDurationSec: 1800, Weight: 0.35},
		{Name: "file", DemandMbps: 50, MinDurationSec: 1560, MaxDurationSec: 7800, Weight: 0.10, GatewayToUser: true},
	}
}

// FlowID identifies an active flow.
type FlowID int64

// Flow is one end-to-end traffic flow between ground sites.
type Flow struct {
	ID         FlowID
	Class      int // index into the generator's class table
	DemandMbps float64
	StartSec   float64
	EndSec     float64
	Src, Dst   groundnet.Site
}

// Config controls flow generation.
type Config struct {
	// Intensity is the Poisson arrival rate lambda in flows per second
	// (paper: 125-500 flows/s for Starlink).
	Intensity float64
	Classes   []Class
	Seed      int64
}

// DefaultConfig returns the paper's traffic parameters at a given intensity.
func DefaultConfig(intensity float64, seed int64) Config {
	return Config{
		Intensity: intensity,
		Classes:   DefaultClasses(),
		Seed:      seed,
	}
}

// Generator maintains the set of ongoing flows as simulated time advances.
// Flows arrive as a Poisson process and expire after their sampled duration.
type Generator struct {
	cfg     Config
	seg     *groundnet.Segment
	rng     *rand.Rand
	nextID  FlowID
	nowSec  float64
	active  map[FlowID]*Flow
	expires expiryHeap
	cumW    []float64 // cumulative class weights
	// site sampling: user clusters weighted by population
	userCum []float64
	maxDur  float64 // longest duration any class draws
}

// farJump is how many of the longest flow lifetimes a step may span before
// AdvanceTo draws only its last lifetime: a flow that arrived earlier has
// expired by the step's end, so that is the same process, and the cost of a
// step stays the flows it can leave alive however far it jumps (a recompute
// requested years ahead would otherwise draw billions of arrivals). Every
// shorter step draws exactly what it always drew.
const farJump = 64

// NewGenerator builds a traffic generator over a ground segment.
func NewGenerator(seg *groundnet.Segment, cfg Config) *Generator {
	if len(cfg.Classes) == 0 {
		cfg.Classes = DefaultClasses()
	}
	g := &Generator{
		cfg:    cfg,
		seg:    seg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		active: make(map[FlowID]*Flow),
	}
	var w float64
	for _, c := range cfg.Classes {
		w += c.Weight
		g.cumW = append(g.cumW, w)
		g.maxDur = max(g.maxDur, c.MinDurationSec, c.MaxDurationSec)
	}
	var u float64
	for _, c := range seg.UserClusters {
		u += float64(c.Users)
		g.userCum = append(g.userCum, u)
	}
	return g
}

// ActiveFlows returns the currently ongoing flows. The returned map is the
// generator's own; callers must not modify it.
func (g *Generator) ActiveFlows() map[FlowID]*Flow { return g.active }

// ActiveCount returns the number of ongoing flows.
func (g *Generator) ActiveCount() int { return len(g.active) }

// Now returns the generator's simulated time: the latest instant AdvanceTo
// reached, which AdvanceTo cannot go back before.
func (g *Generator) Now() float64 { return g.nowSec }

// AdvanceTo moves simulated time forward, expiring finished flows and
// generating Poisson arrivals in the elapsed interval.
func (g *Generator) AdvanceTo(tSec float64) {
	if tSec < g.nowSec {
		return
	}
	// Expire flows that end within the interval.
	for g.expires.Len() > 0 && g.expires[0].EndSec <= tSec {
		f := heap.Pop(&g.expires).(*Flow)
		delete(g.active, f.ID)
	}
	// Poisson arrivals: number in the interval ~ Poisson(lambda*dt); each
	// arrival time uniform in the interval.
	from, dt := g.nowSec, tSec-g.nowSec
	if dt > farJump*g.maxDur {
		from, dt = tSec-g.maxDur, g.maxDur
	}
	n := poissonSample(g.rng, g.cfg.Intensity*dt)
	for i := 0; i < n; i++ {
		at := from + g.rng.Float64()*dt
		g.spawn(at)
	}
	g.nowSec = tSec
	// Arrivals may already have expired within the same interval.
	for g.expires.Len() > 0 && g.expires[0].EndSec <= tSec {
		f := heap.Pop(&g.expires).(*Flow)
		delete(g.active, f.ID)
	}
}

func (g *Generator) spawn(atSec float64) {
	ci := g.pickClass()
	c := g.cfg.Classes[ci]
	dur := c.MinDurationSec + g.rng.Float64()*(c.MaxDurationSec-c.MinDurationSec)
	var src, dst groundnet.Site
	if c.GatewayToUser && len(g.seg.Gateways) > 0 {
		src = g.seg.Gateways[g.rng.Intn(len(g.seg.Gateways))]
		dst = g.pickUserSite()
	} else {
		src = g.pickUserSite()
		dst = g.pickUserSite()
	}
	f := &Flow{
		ID:         g.nextID,
		Class:      ci,
		DemandMbps: c.DemandMbps,
		StartSec:   atSec,
		EndSec:     atSec + dur,
		Src:        src,
		Dst:        dst,
	}
	g.nextID++
	g.active[f.ID] = f
	heap.Push(&g.expires, f)
}

func (g *Generator) pickClass() int {
	u := g.rng.Float64() * g.cumW[len(g.cumW)-1]
	for i, w := range g.cumW {
		if u < w {
			return i
		}
	}
	return len(g.cumW) - 1
}

func (g *Generator) pickUserSite() groundnet.Site {
	u := g.rng.Float64() * g.userCum[len(g.userCum)-1]
	lo, hi := 0, len(g.userCum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.userCum[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return g.seg.UserClusters[lo].Site
}

// poissonSample draws from Poisson(mean). For small means it uses Knuth's
// method; for large means a normal approximation (accurate and O(1)).
func poissonSample(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := mean + math.Sqrt(mean)*rng.NormFloat64()
	if n < 0 {
		return 0
	}
	return int(n + 0.5)
}

// expiryHeap orders flows by end time.
type expiryHeap []*Flow

func (h expiryHeap) Len() int            { return len(h) }
func (h expiryHeap) Less(i, j int) bool  { return h[i].EndSec < h[j].EndSec }
func (h expiryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *expiryHeap) Push(x interface{}) { *h = append(*h, x.(*Flow)) }
func (h *expiryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	f := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return f
}

// Demand is one entry of the (sparse) traffic matrix: the aggregated demand
// between a source and destination satellite.
type Demand struct {
	Src, Dst   constellation.SatID
	DemandMbps float64
	Flows      []FlowID // the individual flows aggregated into this entry
}

// Matrix is a sparse traffic matrix (Sec. 3.4: only non-zero entries are
// retained; this is the traffic pruning SaTE's graph design enables).
type Matrix struct {
	NumSats int
	Entries []Demand
}

// Total returns the total demand in Mbps.
func (m *Matrix) Total() float64 {
	var s float64
	for _, e := range m.Entries {
		s += e.DemandMbps
	}
	return s
}

// NonZeroPairs returns the number of non-zero entries.
func (m *Matrix) NonZeroPairs() int { return len(m.Entries) }

// DensityFraction returns the fraction of the full N x N matrix that is
// non-zero — the sparsity that traffic pruning exploits.
func (m *Matrix) DensityFraction() float64 {
	n := float64(m.NumSats)
	if n == 0 {
		return 0
	}
	return float64(len(m.Entries)) / (n * n)
}

// BuildMatrix aggregates the active flows into a sparse traffic matrix by
// mapping each flow endpoint to its serving satellite via the locator.
// Flows whose endpoints resolve to the same satellite, or that have no
// visible satellite, are skipped (they do not traverse the network).
func BuildMatrix(flows map[FlowID]*Flow, loc *groundnet.SatLocator, minElevRad float64, numSats int) *Matrix {
	// Aggregate in FlowID order: float summation order must not depend on
	// map iteration, or the same scenario yields last-ulp-different demands
	// across runs (breaking the bitwise determinism contract downstream).
	ids := make([]FlowID, 0, len(flows))
	for id := range flows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	type key struct{ s, d constellation.SatID }
	agg := make(map[key]*Demand)
	for _, id := range ids {
		f := flows[id]
		s, ok1 := loc.NearestVisible(f.Src, minElevRad)
		d, ok2 := loc.NearestVisible(f.Dst, minElevRad)
		if !ok1 || !ok2 || s == d {
			continue
		}
		k := key{s, d}
		e := agg[k]
		if e == nil {
			e = &Demand{Src: s, Dst: d}
			agg[k] = e
		}
		e.DemandMbps += f.DemandMbps
		e.Flows = append(e.Flows, f.ID)
	}
	m := &Matrix{NumSats: numSats}
	m.Entries = make([]Demand, 0, len(agg))
	for _, e := range agg {
		m.Entries = append(m.Entries, *e)
	}
	sortDemands(m.Entries)
	return m
}

func sortDemands(ds []Demand) {
	// Deterministic order: by (src, dst).
	sort.Slice(ds, func(i, j int) bool { return demandLess(ds[i], ds[j]) })
}

func demandLess(a, b Demand) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Dst < b.Dst
}
