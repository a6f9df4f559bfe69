// Package traffic generates satellite traffic workloads: Poisson flow
// arrivals between population-weighted ground sites, the flow classes of
// Table 2 (voice, video, file transfer), a flow-lifetime engine, and sparse
// traffic matrices aggregated per satellite pair (Sec. 4, Appendix G).
package traffic

import (
	"math"
	"math/rand"
	"slices"

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

	// srcSite and dstSite index Src and Dst in the generator's site table,
	// so Matrix resolves each site once per call, not once per endpoint.
	srcSite, dstSite int32
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
// A Generator is single-writer state: AdvanceTo and Matrix must not run
// concurrently.
type Generator struct {
	cfg    Config
	seg    *groundnet.Segment
	rng    *rand.Rand
	nextID FlowID
	nowSec float64
	// active holds the ongoing flows in FlowID order: IDs only grow, so an
	// arrival appends and AdvanceTo compacts the expired ones out.
	active []Flow
	cumW   []float64 // cumulative class weights
	// site sampling: user clusters weighted by population
	userCum []float64
	maxDur  float64 // longest duration any class draws
	// sites is every flow endpoint: the user clusters, then the gateways.
	sites []groundnet.Site

	// Matrix scratch, reused across calls.
	siteSat []constellation.SatID // serving satellite per site; unresolved or -1
	ends    []endpoints
	sorted  []endpoints
	counts  []int32
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
		cfg: cfg,
		seg: seg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
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
		g.sites = append(g.sites, c.Site)
	}
	g.sites = append(g.sites, seg.Gateways...)
	return g
}

// ActiveFlows returns the currently ongoing flows in FlowID order. The
// returned slice is the generator's own and valid until the next AdvanceTo;
// callers must not modify it.
func (g *Generator) ActiveFlows() []Flow { return g.active }

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
	// Expire the flows that end within the interval, arrivals included,
	// keeping the rest in FlowID order.
	live := g.active[:0]
	for _, f := range g.active {
		if f.EndSec > tSec {
			live = append(live, f)
		}
	}
	g.active = live
}

func (g *Generator) spawn(atSec float64) {
	ci := g.pickClass()
	c := g.cfg.Classes[ci]
	dur := c.MinDurationSec + g.rng.Float64()*(c.MaxDurationSec-c.MinDurationSec)
	var src, dst int
	if c.GatewayToUser && len(g.seg.Gateways) > 0 {
		src = len(g.seg.UserClusters) + g.rng.Intn(len(g.seg.Gateways))
		dst = g.pickUserSite()
	} else {
		src = g.pickUserSite()
		dst = g.pickUserSite()
	}
	g.active = append(g.active, Flow{
		ID:         g.nextID,
		Class:      ci,
		DemandMbps: c.DemandMbps,
		StartSec:   atSec,
		EndSec:     atSec + dur,
		Src:        g.sites[src],
		Dst:        g.sites[dst],
		srcSite:    int32(src),
		dstSite:    int32(dst),
	})
	g.nextID++
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

// pickUserSite draws a user cluster by population: its index in g.sites.
func (g *Generator) pickUserSite() int {
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
	return lo
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

// endpoints is one flow's serving-satellite pair: what Matrix sorts.
type endpoints struct {
	src, dst constellation.SatID
	flow     int32 // index in the generator's active flows
}

// unresolved marks a site Matrix has not looked up yet in this call.
const unresolved constellation.SatID = -2

// Matrix aggregates the active flows into a sparse traffic matrix by mapping
// each flow endpoint to its serving satellite via the locator. Flows whose
// endpoints resolve to the same satellite, or that have no visible
// satellite, are skipped (they do not traverse the network). Entries are in
// (src, dst) order, and each entry's demand is summed from zero over its
// flows in FlowID order, so the matrix is a function of the flows and the
// satellite positions, to the last bit (DESIGN.md §7).
//
// Each site is resolved once per call, on first use: flows far outnumber
// the sites they run between (on controld-drift-66, ~2,900 flows between 79
// user clusters and gateways).
func (g *Generator) Matrix(loc *groundnet.SatLocator, minElevRad float64, numSats int) *Matrix {
	sat := slices.Grow(g.siteSat[:0], len(g.sites))[:len(g.sites)]
	for i := range sat {
		sat[i] = unresolved
	}
	g.siteSat = sat
	resolve := func(site int32) constellation.SatID {
		if s := sat[site]; s != unresolved {
			return s
		}
		s, ok := loc.NearestVisible(g.sites[site], minElevRad)
		if !ok {
			s = -1
		}
		sat[site] = s
		return s
	}

	ends := g.ends[:0]
	var maxSat constellation.SatID
	for i := range g.active {
		f := &g.active[i]
		s, d := resolve(f.srcSite), resolve(f.dstSite)
		if s < 0 || d < 0 || s == d {
			continue
		}
		ends = append(ends, endpoints{src: s, dst: d, flow: int32(i)})
		maxSat = max(maxSat, s, d)
	}
	g.ends = ends

	// Order by (src, dst) with two stable counting passes, dst then src: a
	// pair's flows stay in FlowID order.
	sorted := slices.Grow(g.sorted[:0], len(ends))[:len(ends)]
	g.counts = slices.Grow(g.counts[:0], int(maxSat)+2)[:maxSat+2]
	countingSort(sorted, ends, g.counts, func(e endpoints) constellation.SatID { return e.dst })
	countingSort(ends, sorted, g.counts, func(e endpoints) constellation.SatID { return e.src })
	g.sorted = sorted

	m := &Matrix{NumSats: numSats}
	pairs := 0
	for i := range ends {
		if i == 0 || ends[i].src != ends[i-1].src || ends[i].dst != ends[i-1].dst {
			pairs++
		}
	}
	m.Entries = make([]Demand, 0, pairs)
	ids := make([]FlowID, len(ends))
	for lo := 0; lo < len(ends); {
		e := Demand{Src: ends[lo].src, Dst: ends[lo].dst}
		hi := lo
		for ; hi < len(ends) && ends[hi].src == e.Src && ends[hi].dst == e.Dst; hi++ {
			f := &g.active[ends[hi].flow]
			e.DemandMbps += f.DemandMbps
			ids[hi] = f.ID
		}
		e.Flows = ids[lo:hi:hi]
		m.Entries = append(m.Entries, e)
		lo = hi
	}
	return m
}

// countingSort writes src to dst stably ordered by key, a satellite ID below
// len(counts)-1; dst has src's length.
func countingSort(dst, src []endpoints, counts []int32, key func(endpoints) constellation.SatID) {
	clear(counts)
	for _, e := range src {
		counts[key(e)+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	for _, e := range src {
		k := key(e)
		dst[counts[k]] = e
		counts[k]++
	}
}
