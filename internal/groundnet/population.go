// Package groundnet models the ground segment of a satellite network: a
// global population-density grid, the placement of users, Internet gateways
// and ground relays according to that density (Appendix G, Eq. 8), and the
// mapping from ground sites to serving satellites.
//
// The paper uses the GPWv4 population raster; that dataset is not available
// offline, so the grid here is a deterministic synthetic density field with
// the same statistical character: continent-scale clusters, heavy-tailed city
// hotspots, and empty oceans/deserts (see DESIGN.md substitution table). The
// smoothing factor gamma of Eq. 8 is implemented verbatim.
package groundnet

import (
	"math"
	"math/rand"

	"sate/internal/orbit"
)

// GridRows and GridCols define the paper's 360 x 180 one-degree grid.
const (
	GridRows = 180 // latitude bands, from -90 to +90
	GridCols = 360 // longitude bands, from -180 to +180
)

// PopulationGrid is a density field over the one-degree grid. Density values
// are relative weights (people per cell, arbitrary unit).
type PopulationGrid struct {
	Density []float64 // row-major, len GridRows*GridCols
}

// CellIndex returns the flat index of the cell containing (lat, lon) degrees.
func CellIndex(latDeg, lonDeg float64) int {
	r := int(math.Floor(latDeg + 90))
	c := int(math.Floor(lonDeg + 180))
	if r < 0 {
		r = 0
	} else if r >= GridRows {
		r = GridRows - 1
	}
	if c < 0 {
		c = 0
	} else if c >= GridCols {
		c = GridCols - 1
	}
	return r*GridCols + c
}

// CellCenter returns the latitude and longitude (degrees) of a cell's centre.
func CellCenter(idx int) (latDeg, lonDeg float64) {
	r := idx / GridCols
	c := idx % GridCols
	return float64(r) - 90 + 0.5, float64(c) - 180 + 0.5
}

// continentCluster is one component of the synthetic density mixture.
type continentCluster struct {
	lat, lon   float64 // centre, degrees
	sLat, sLon float64 // spread, degrees
	weight     float64
}

// Rough centroids of the major populated landmasses. The exact values are
// unimportant; what matters is that density is spatially clustered, that a
// large fraction of the Earth (oceans, poles) is near-zero, and that the
// distribution is heavy-tailed — the properties SaTE's traffic pruning
// exploits.
var continents = []continentCluster{
	{lat: 30, lon: 105, sLat: 14, sLon: 22, weight: 3.2},  // East Asia
	{lat: 22, lon: 79, sLat: 10, sLon: 13, weight: 3.0},   // South Asia
	{lat: 50, lon: 12, sLat: 9, sLon: 16, weight: 1.5},    // Europe
	{lat: 39, lon: -95, sLat: 10, sLon: 18, weight: 1.3},  // North America
	{lat: -12, lon: -55, sLat: 12, sLon: 12, weight: 0.9}, // South America
	{lat: 8, lon: 10, sLat: 12, sLon: 14, weight: 1.1},    // West/Central Africa
	{lat: 31, lon: 32, sLat: 8, sLon: 12, weight: 0.6},    // Middle East / N. Africa
	{lat: -2, lon: 112, sLat: 8, sLon: 14, weight: 1.0},   // Maritime SE Asia
	{lat: -30, lon: 140, sLat: 8, sLon: 14, weight: 0.25}, // Australia
	{lat: 56, lon: 60, sLat: 7, sLon: 28, weight: 0.4},    // Russia belt
}

// SyntheticPopulation builds the deterministic synthetic density grid:
// a mixture of continent clusters plus seeded city hotspots.
func SyntheticPopulation(seed int64) *PopulationGrid {
	g := &PopulationGrid{Density: make([]float64, GridRows*GridCols)}
	for idx := range g.Density {
		lat, lon := CellCenter(idx)
		var d float64
		for _, cc := range continents {
			dl := (lat - cc.lat) / cc.sLat
			dn := angleDiffDeg(lon, cc.lon) / cc.sLon
			d += cc.weight * math.Exp(-(dl*dl+dn*dn)/2)
		}
		// Cells at extreme latitudes have almost nobody.
		if math.Abs(lat) > 65 {
			d *= 0.02
		}
		g.Density[idx] = d
	}
	// Heavy-tailed city hotspots: a few hundred point masses placed by the
	// smooth field itself, with Zipf-like weights.
	rng := rand.New(rand.NewSource(seed))
	cum := cumulative(g.Density)
	for i := 0; i < 400; i++ {
		idx := sampleCumulative(cum, rng.Float64())
		g.Density[idx] += (2.0 / float64(i+1)) * 40
	}
	return g
}

func angleDiffDeg(a, b float64) float64 {
	d := math.Mod(a-b+540, 360) - 180
	return d
}

// Probabilities returns the per-cell placement probabilities of Eq. 8:
// p_a = (density_a + gamma) / sum(density + gamma). The smoothing factor
// gamma lifts sparsely populated cells so that remote areas retain some user
// representation.
func (g *PopulationGrid) Probabilities(gamma float64) []float64 {
	p := make([]float64, len(g.Density))
	var sum float64
	for i, d := range g.Density {
		p[i] = d + gamma
		sum += p[i]
	}
	if sum > 0 {
		for i := range p {
			p[i] /= sum
		}
	}
	return p
}

// TotalDensity returns the sum of all cell densities.
func (g *PopulationGrid) TotalDensity() float64 {
	var s float64
	for _, d := range g.Density {
		s += d
	}
	return s
}

func cumulative(w []float64) []float64 {
	c := make([]float64, len(w))
	var s float64
	for i, v := range w {
		s += v
		c[i] = s
	}
	return c
}

// sampleCumulative draws an index from a cumulative weight array given a
// uniform sample u in [0,1).
func sampleCumulative(cum []float64, u float64) int {
	total := cum[len(cum)-1]
	target := u * total
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] <= target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Site is a ground location (user cluster, gateway, or relay).
type Site struct {
	LatDeg, LonDeg float64
	Cell           int // grid cell index
}

// ECEF returns the Earth-fixed position of the site at the surface.
func (s Site) ECEF() orbit.Vec3 {
	return orbit.GeodeticToECEF(orbit.Deg(s.LatDeg), orbit.Deg(s.LonDeg), 0)
}

// PlaceSites draws n sites from the given per-cell probability distribution,
// jittering each site uniformly within its one-degree cell. Deterministic for
// a given rng state.
func PlaceSites(n int, probs []float64, rng *rand.Rand) []Site {
	cum := cumulative(probs)
	sites := make([]Site, n)
	for i := range sites {
		idx := sampleCumulative(cum, rng.Float64())
		lat, lon := CellCenter(idx)
		sites[i] = Site{
			LatDeg: lat - 0.5 + rng.Float64(),
			LonDeg: lon - 0.5 + rng.Float64(),
			Cell:   idx,
		}
	}
	return sites
}
