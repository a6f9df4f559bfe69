package groundnet

import (
	"math/rand"

	"sate/internal/constellation"
	"sate/internal/orbit"
)

// Segment is the instantiated ground segment of a scenario: user clusters,
// Internet gateways, and ground relays, all placed from the same
// population-driven distribution (Appendix G). Users are represented as
// weighted clusters (one per occupied grid cell) rather than 3 million
// individual points; the per-cluster Users weight preserves the aggregate
// demand statistics while keeping the simulation tractable.
type Segment struct {
	UserClusters []UserCluster
	Gateways     []Site
	Relays       []Site
}

// UserCluster is a group of users sharing a grid cell.
type UserCluster struct {
	Site
	Users int // number of users represented by this cluster
}

// Config controls ground-segment generation.
type Config struct {
	Users        int     // total user count to distribute (paper: 3,000,000)
	UserClusters int     // number of user cluster sites (resolution of the user field)
	Gateways     int     // paper: 1000
	Relays       int     // paper: 222 real-world relay locations
	Gamma        float64 // smoothing factor of Eq. 8
	Seed         int64
}

// Build places the ground segment on the given population grid.
func Build(grid *PopulationGrid, cfg Config) *Segment {
	rng := rand.New(rand.NewSource(cfg.Seed))
	probs := grid.Probabilities(cfg.Gamma)
	seg := &Segment{}

	clusterSites := PlaceSites(cfg.UserClusters, probs, rng)
	// Users are multinomially distributed over the clusters in proportion to
	// the cluster cells' probabilities. A proportional allocation with
	// remainder rounding keeps it deterministic and exact in total.
	var wsum float64
	weights := make([]float64, len(clusterSites))
	for i, s := range clusterSites {
		weights[i] = probs[s.Cell]
		wsum += weights[i]
	}
	assigned := 0
	seg.UserClusters = make([]UserCluster, len(clusterSites))
	for i, s := range clusterSites {
		n := int(float64(cfg.Users) * weights[i] / wsum)
		seg.UserClusters[i] = UserCluster{Site: s, Users: n}
		assigned += n
	}
	for i := 0; assigned < cfg.Users; i++ { // distribute rounding remainder
		seg.UserClusters[i%len(seg.UserClusters)].Users++
		assigned++
	}

	seg.Gateways = PlaceSites(cfg.Gateways, probs, rng)
	// Relays are infrastructure: placed on populated land (no smoothing), as
	// the paper's 222 real-world locations are.
	seg.Relays = PlaceSites(cfg.Relays, grid.Probabilities(0), rng)
	return seg
}

// TotalUsers returns the number of users across all clusters.
func (s *Segment) TotalUsers() int {
	n := 0
	for _, c := range s.UserClusters {
		n += c.Users
	}
	return n
}

// SatLocator answers nearest-visible-satellite queries using a latitude/
// longitude bucket index over satellite sub-points. Rebuild it (via Update)
// whenever satellite positions move.
type SatLocator struct {
	cons    *constellation.Constellation
	pos     []orbit.Vec3
	buckets [][]constellation.SatID // 10-degree cells: 18 x 36
}

const (
	locRows = 18
	locCols = 36
)

// NewSatLocator creates a locator; call Update before querying.
func NewSatLocator(c *constellation.Constellation) *SatLocator {
	return &SatLocator{
		cons:    c,
		buckets: make([][]constellation.SatID, locRows*locCols),
	}
}

func locBucket(latDeg, lonDeg float64) int {
	r := int((latDeg + 90) / 10)
	c := int((lonDeg + 180) / 10)
	if r < 0 {
		r = 0
	} else if r >= locRows {
		r = locRows - 1
	}
	if c < 0 {
		c = 0
	} else if c >= locCols {
		c = locCols - 1
	}
	return r*locCols + c
}

// Update reindexes the locator with satellite positions at time t.
// The positions slice is retained (not copied).
func (l *SatLocator) Update(pos []orbit.Vec3) {
	l.pos = pos
	for i := range l.buckets {
		l.buckets[i] = l.buckets[i][:0]
	}
	for id, p := range pos {
		lat, lon, _ := orbit.ECEFToGeodetic(p)
		b := locBucket(orbit.Rad2Deg(lat), orbit.Rad2Deg(lon))
		l.buckets[b] = append(l.buckets[b], constellation.SatID(id))
	}
}

// NearestVisible returns the satellite with the highest elevation above
// minElevRad as seen from the site, or (-1, false) if none is visible. The
// search scans the site's bucket ring outward; LEO shells guarantee a hit
// within the first ring or two at mid latitudes.
func (l *SatLocator) NearestVisible(site Site, minElevRad float64) (constellation.SatID, bool) {
	sp := site.ECEF()
	best := constellation.SatID(-1)
	bestElev := minElevRad
	found := false
	r0 := int((site.LatDeg + 90) / 10)
	c0 := int((site.LonDeg + 180) / 10)
	for ring := 0; ring <= 3; ring++ {
		for dr := -ring; dr <= ring; dr++ {
			for dc := -ring; dc <= ring; dc++ {
				if max(abs(dr), abs(dc)) != ring {
					continue // only the ring perimeter; inner cells already done
				}
				r := r0 + dr
				if r < 0 || r >= locRows {
					continue
				}
				c := ((c0+dc)%locCols + locCols) % locCols
				for _, id := range l.buckets[r*locCols+c] {
					e := orbit.ElevationAngle(sp, l.pos[id])
					if e >= bestElev {
						best, bestElev, found = id, e, true
					}
				}
			}
		}
		if found {
			return best, true
		}
	}
	return -1, false
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
