package topology

import (
	"math"

	"sate/internal/constellation"
	"sate/internal/groundnet"
	"sate/internal/orbit"
	"sate/internal/par"
)

// CrossShellMode selects how shells interconnect (Fig. 2 b/c).
type CrossShellMode uint8

const (
	// CrossShellLasers links each satellite to the nearest satellite in the
	// adjacent shell via laser (range-limited).
	CrossShellLasers CrossShellMode = iota
	// CrossShellGroundRelays links satellites to ground relays; relays act as
	// bent-pipe nodes joining shells.
	CrossShellGroundRelays
	// CrossShellNone disables cross-shell links (single-shell constellations).
	CrossShellNone
)

func (m CrossShellMode) String() string {
	switch m {
	case CrossShellLasers:
		return "lasers"
	case CrossShellGroundRelays:
		return "ground-relays"
	case CrossShellNone:
		return "none"
	default:
		return "unknown"
	}
}

// The link-formation rules of Sec. 2.3.1.
const (
	// interOrbitMaxLatDeg deactivates inter-orbit links above this latitude.
	interOrbitMaxLatDeg float64 = 75
	// laserMaxRangeKm breaks a cross-shell laser when satellites are farther
	// apart.
	laserMaxRangeKm float64 = 2000
	// relayMinElevDeg breaks a ground-relay link when the satellite drops
	// below this elevation.
	relayMinElevDeg float64 = 25
)

// Config selects how shells interconnect.
type Config struct {
	Mode CrossShellMode

	// Relays are the ground-relay sites (bent-pipe mode only).
	Relays []groundnet.Site
}

// DefaultConfig returns the config for a cross-shell mode with no relays.
func DefaultConfig(mode CrossShellMode) Config {
	return Config{Mode: mode}
}

// Generator produces topology snapshots for a constellation under a link
// config. It reuses internal buffers; a Generator is not safe for concurrent
// use.
type Generator struct {
	Cons *constellation.Constellation
	Cfg  Config

	relayPos []orbit.Vec3
	posBuf   []orbit.Vec3
	// per-shell bucket index for nearest-neighbour queries
	buckets [][]constellation.SatID // shell*nbuckets + bucket
	nShells int
}

const (
	genLatBuckets = 24 // 7.5-degree latitude bands
	genLonBuckets = 48 // 7.5-degree longitude bands
	genBuckets    = genLatBuckets * genLonBuckets
)

// NewGenerator builds a generator for the constellation.
func NewGenerator(c *constellation.Constellation, cfg Config) *Generator {
	g := &Generator{Cons: c, Cfg: cfg, nShells: len(c.Shells)}
	if cfg.Mode == CrossShellGroundRelays {
		g.relayPos = make([]orbit.Vec3, len(cfg.Relays))
		for i, r := range cfg.Relays {
			g.relayPos[i] = r.ECEF()
		}
	}
	g.buckets = make([][]constellation.SatID, g.nShells*genBuckets)
	return g
}

// NumNodes returns the node-universe size: satellites plus relay nodes in
// bent-pipe mode.
func (g *Generator) NumNodes() int {
	n := g.Cons.Size()
	if g.Cfg.Mode == CrossShellGroundRelays {
		n += len(g.Cfg.Relays)
	}
	return n
}

// RelayNode returns the NodeID of relay i.
func (g *Generator) RelayNode(i int) NodeID { return NodeID(g.Cons.Size() + i) }

func bucketOf(p orbit.Vec3) int {
	lat, lon, _ := orbit.ECEFToGeodetic(p)
	r := int((lat + math.Pi/2) / math.Pi * genLatBuckets)
	c := int((lon + math.Pi) / (2 * math.Pi) * genLonBuckets)
	if r < 0 {
		r = 0
	} else if r >= genLatBuckets {
		r = genLatBuckets - 1
	}
	if c < 0 {
		c = 0
	} else if c >= genLonBuckets {
		c = genLonBuckets - 1
	}
	return r*genLonBuckets + c
}

// Snapshot generates the topology at time t (seconds after epoch).
func (g *Generator) Snapshot(tSec float64) *Snapshot {
	c := g.Cons
	g.posBuf = c.PositionsECEF(tSec, g.posBuf)
	s := &Snapshot{
		TimeSec:  tSec,
		NumSats:  c.Size(),
		NumNodes: g.NumNodes(),
	}
	s.Pos = make([]orbit.Vec3, s.NumNodes)
	copy(s.Pos, g.posBuf)
	if g.Cfg.Mode == CrossShellGroundRelays {
		copy(s.Pos[c.Size():], g.relayPos)
	}

	maxLat := orbit.Deg(interOrbitMaxLatDeg)
	// Intra-shell +Grid links.
	for i := range c.Sats {
		sat := &c.Sats[i]
		grid := sat.Grid
		// Intra-orbit: link to next slot (each pair added once).
		next := c.SatAt(c.Neighbor(grid, 0, 1))
		if next.ID != sat.ID {
			s.Links = append(s.Links, MakeLink(NodeID(sat.ID), NodeID(next.ID), IntraOrbit))
		}
		// Inter-orbit: link to next plane, unless either endpoint is at high
		// latitude (excessive viewing angles between adjacent orbits).
		right := c.SatAt(c.Neighbor(grid, 1, 0))
		if right.ID != sat.ID {
			latA := latOf(s.Pos[sat.ID])
			latB := latOf(s.Pos[right.ID])
			if math.Abs(latA) <= maxLat && math.Abs(latB) <= maxLat {
				s.Links = append(s.Links, MakeLink(NodeID(sat.ID), NodeID(right.ID), InterOrbit))
			}
		}
	}

	switch g.Cfg.Mode {
	case CrossShellLasers:
		g.addCrossShellLasers(s)
	case CrossShellGroundRelays:
		g.addGroundRelayLinks(s)
	}

	// Deduplicate: nearest-neighbour pairing can produce the same link from
	// both sides.
	s.Links = dedupeLinks(s.Links)
	s.Finalize()
	return s
}

func latOf(p orbit.Vec3) float64 {
	r := p.Norm()
	if r == 0 {
		return 0
	}
	return math.Asin(p.Z / r)
}

func (g *Generator) rebuildBuckets(pos []orbit.Vec3) {
	for i := range g.buckets {
		g.buckets[i] = g.buckets[i][:0]
	}
	for i := range g.Cons.Sats {
		sat := &g.Cons.Sats[i]
		b := bucketOf(pos[sat.ID])
		idx := sat.Grid.Shell*genBuckets + b
		g.buckets[idx] = append(g.buckets[idx], sat.ID)
	}
}

// nearestInShell finds the closest satellite of the given shell to position p
// (excluding nothing); returns -1 if none within maxRange.
func (g *Generator) nearestInShell(p orbit.Vec3, shell int, maxRangeKm float64, pos []orbit.Vec3) constellation.SatID {
	b := bucketOf(p)
	r0 := b / genLonBuckets
	c0 := b % genLonBuckets
	best := constellation.SatID(-1)
	bestD := maxRangeKm
	// Search outward in bucket rings; stop one ring after the first hit (a
	// neighbouring ring can still contain a closer satellite).
	hitRing := -1
	for ring := 0; ring <= genLatBuckets; ring++ {
		if hitRing >= 0 && ring > hitRing+1 {
			break
		}
		found := false
		for dr := -ring; dr <= ring; dr++ {
			r := r0 + dr
			if r < 0 || r >= genLatBuckets {
				continue
			}
			for dc := -ring; dc <= ring; dc++ {
				if maxInt(absInt(dr), absInt(dc)) != ring {
					continue
				}
				cc := ((c0+dc)%genLonBuckets + genLonBuckets) % genLonBuckets
				for _, id := range g.buckets[shell*genBuckets+r*genLonBuckets+cc] {
					d := p.Distance(pos[id])
					if d < bestD {
						best, bestD = id, d
						found = true
					}
				}
			}
		}
		if found && hitRing < 0 {
			hitRing = ring
		}
	}
	return best
}

func (g *Generator) addCrossShellLasers(s *Snapshot) {
	if g.nShells < 2 {
		return
	}
	g.rebuildBuckets(s.Pos[:s.NumSats])
	for i := range g.Cons.Sats {
		sat := &g.Cons.Sats[i]
		sh := sat.Grid.Shell
		// Connect to nearest satellite in the next shell up (each adjacent
		// pair of shells handled once, from the lower shell).
		if sh+1 >= g.nShells {
			continue
		}
		nb := g.nearestInShell(s.Pos[sat.ID], sh+1, laserMaxRangeKm, s.Pos)
		if nb >= 0 {
			s.Links = append(s.Links, MakeLink(NodeID(sat.ID), NodeID(nb), CrossShellLaser))
		}
	}
}

func (g *Generator) addGroundRelayLinks(s *Snapshot) {
	minElev := orbit.Deg(relayMinElevDeg)
	for i := range g.Cons.Sats {
		sat := &g.Cons.Sats[i]
		p := s.Pos[sat.ID]
		bestRelay := -1
		bestD := math.MaxFloat64
		for ri, rp := range g.relayPos {
			// Cheap prefilter: a 25-degree-elevation LEO pass is within ~1500
			// km slant range for these altitudes; skip distant relays first.
			d := p.Distance(rp)
			if d >= bestD {
				continue
			}
			if orbit.ElevationAngle(rp, p) < minElev {
				continue
			}
			bestRelay, bestD = ri, d
		}
		if bestRelay >= 0 {
			s.Links = append(s.Links, MakeLink(NodeID(sat.ID), g.RelayNode(bestRelay), GroundRelayLink))
		}
	}
}

func dedupeLinks(links []Link) []Link {
	seen := make(map[uint64]struct{}, len(links))
	out := links[:0]
	for _, l := range links {
		k := l.Key()
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, l)
	}
	return out
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Series generates n consecutive snapshots spaced dt seconds apart, starting
// at t0. Snapshots at distinct instants are independent, so the series is
// generated in parallel chunks; each chunk gets its own Generator clone
// (Snapshot reuses per-generator scratch buffers and is not reentrant).
// Snapshot output is a pure function of (constellation, config, t), so the
// result is identical to the serial sweep.
func (g *Generator) Series(t0, dt float64, n int) []*Snapshot {
	out := make([]*Snapshot, n)
	par.For(n, par.Grain(n, 8), func(lo, hi int) {
		gen := g
		if lo != 0 || hi != n {
			gen = NewGenerator(g.Cons, g.Cfg)
		}
		for i := lo; i < hi; i++ {
			out[i] = gen.Snapshot(t0 + dt*float64(i))
		}
	})
	return out
}
