package groundnet

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"sate/internal/constellation"
	"sate/internal/orbit"
)

func TestCellIndexRoundTrip(t *testing.T) {
	f := func(latSeed, lonSeed float64) bool {
		lat := math.Mod(latSeed, 89.9)
		lon := math.Mod(lonSeed, 179.9)
		idx := CellIndex(lat, lon)
		cLat, cLon := CellCenter(idx)
		return math.Abs(cLat-lat) <= 0.5+1e-9 && math.Abs(cLon-lon) <= 0.5+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCellIndexClamps(t *testing.T) {
	if CellIndex(95, 0) != CellIndex(89.9, 0) {
		t.Error("latitude above 90 should clamp to top row")
	}
	if CellIndex(0, 185) != CellIndex(0, 179.9) {
		t.Error("longitude above 180 should clamp to last column")
	}
}

func TestSyntheticPopulationShape(t *testing.T) {
	g := SyntheticPopulation(1)
	if len(g.Density) != GridRows*GridCols {
		t.Fatalf("density len %d", len(g.Density))
	}
	// Density must be spatially concentrated: the top 10% of cells should
	// hold well over half of the mass (heavy-tailed distribution that the
	// paper's traffic pruning exploits).
	total := g.TotalDensity()
	if total <= 0 {
		t.Fatal("empty population")
	}
	sorted := append([]float64(nil), g.Density...)
	// simple selection of top decile mass
	sortFloats(sorted)
	var top float64
	for i := len(sorted) - len(sorted)/10; i < len(sorted); i++ {
		top += sorted[i]
	}
	if top/total < 0.5 {
		t.Errorf("top decile holds only %.2f of mass; want clustered density", top/total)
	}
	// Mid-Pacific must be near-empty.
	pacific := g.Density[CellIndex(0, -140)]
	asia := g.Density[CellIndex(30, 105)]
	if pacific > asia/100 {
		t.Errorf("pacific %v vs asia %v: oceans should be near-empty", pacific, asia)
	}
}

func sortFloats(x []float64) { sort.Float64s(x) }

func TestProbabilitiesNormalized(t *testing.T) {
	g := SyntheticPopulation(1)
	for _, gamma := range []float64{0, 0.05, 1} {
		p := g.Probabilities(gamma)
		var s float64
		for _, v := range p {
			if v < 0 {
				t.Fatal("negative probability")
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("gamma=%v: sum=%v", gamma, s)
		}
	}
}

func TestGammaLiftsRemoteCells(t *testing.T) {
	g := SyntheticPopulation(1)
	p0 := g.Probabilities(0)
	p1 := g.Probabilities(0.5)
	pacific := CellIndex(0, -140)
	if p1[pacific] <= p0[pacific] {
		t.Error("smoothing should raise remote-cell probability")
	}
}

func TestSampleCumulative(t *testing.T) {
	cum := cumulative([]float64{1, 0, 3})
	if got := sampleCumulative(cum, 0.0); got != 0 {
		t.Errorf("u=0 -> %d", got)
	}
	if got := sampleCumulative(cum, 0.3); got != 2 {
		t.Errorf("u=0.3 -> %d (weight 0 cell must not be selected)", got)
	}
	if got := sampleCumulative(cum, 0.999); got != 2 {
		t.Errorf("u=0.999 -> %d", got)
	}
}

func TestPlaceSitesDeterministic(t *testing.T) {
	g := SyntheticPopulation(1)
	p := g.Probabilities(0.05)
	a := PlaceSites(50, p, rand.New(rand.NewSource(7)))
	b := PlaceSites(50, p, rand.New(rand.NewSource(7)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("placement must be deterministic for equal seeds")
		}
	}
	for _, s := range a {
		if s.LatDeg < -90 || s.LatDeg > 90 || s.LonDeg < -180 || s.LonDeg > 180 {
			t.Fatalf("site out of range: %+v", s)
		}
	}
}

func TestBuildSegment(t *testing.T) {
	g := SyntheticPopulation(1)
	cfg := Config{Users: 10000, UserClusters: 100, Gateways: 20, Relays: 10, Gamma: 0.05, Seed: 3}
	seg := Build(g, cfg)
	if got := seg.TotalUsers(); got != cfg.Users {
		t.Errorf("users = %d want %d", got, cfg.Users)
	}
	if len(seg.Gateways) != 20 || len(seg.Relays) != 10 {
		t.Errorf("gateways/relays = %d/%d", len(seg.Gateways), len(seg.Relays))
	}
	if len(seg.UserClusters) != 100 {
		t.Errorf("clusters = %d", len(seg.UserClusters))
	}
}

func TestSatLocatorFindsOverheadSat(t *testing.T) {
	c := constellation.StarlinkPhase1()
	pos := c.PositionsECEF(0, nil)
	loc := NewSatLocator(c)
	loc.Update(pos)

	// Pick the sub-point of a known satellite; the locator must find a
	// satellite at high elevation there.
	lat, lon, _ := orbit.ECEFToGeodetic(pos[100])
	site := Site{LatDeg: orbit.Rad2Deg(lat), LonDeg: orbit.Rad2Deg(lon)}
	id, ok := loc.NearestVisible(site, orbit.Deg(25))
	if !ok {
		t.Fatal("no satellite visible directly under a satellite")
	}
	e := orbit.ElevationAngle(site.ECEF(), pos[id])
	if e < orbit.Deg(60) {
		t.Errorf("best elevation only %v deg", orbit.Rad2Deg(e))
	}
}

func TestSatLocatorRespectsMinElevation(t *testing.T) {
	// A single-satellite "constellation" far from the site: nothing visible.
	c := constellation.SingleShell(1, 1)
	pos := c.PositionsECEF(0, nil)
	loc := NewSatLocator(c)
	loc.Update(pos)
	lat, lon, _ := orbit.ECEFToGeodetic(pos[0])
	anti := Site{LatDeg: -orbit.Rad2Deg(lat), LonDeg: orbit.Rad2Deg(lon) + 180}
	if anti.LonDeg > 180 {
		anti.LonDeg -= 360
	}
	if _, ok := loc.NearestVisible(anti, orbit.Deg(25)); ok {
		t.Error("satellite on the far side of Earth must not be visible")
	}
}

func TestStarlinkCoverageMidLatitudes(t *testing.T) {
	// With 4236 satellites every mid-latitude site should see a satellite at
	// >= 25 degrees elevation.
	c := constellation.StarlinkPhase1()
	pos := c.PositionsECEF(500, nil)
	loc := NewSatLocator(c)
	loc.Update(pos)
	misses := 0
	for lat := -50.0; lat <= 50; lat += 10 {
		for lon := -170.0; lon <= 170; lon += 20 {
			if _, ok := loc.NearestVisible(Site{LatDeg: lat, LonDeg: lon}, orbit.Deg(25)); !ok {
				misses++
			}
		}
	}
	if misses > 0 {
		t.Errorf("%d mid-latitude sites without coverage", misses)
	}
}
