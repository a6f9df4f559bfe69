package orbit

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVec3Basics(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{-4, 5, 0.5}
	if got := a.Sub(b); got != (Vec3{5, -3, 2.5}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Dot(b); got != -4+10+1.5 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	v := Vec3{3, 4, 0}
	n := v.Normalize()
	if !almostEqual(n.Norm(), 1, 1e-12) {
		t.Errorf("norm = %v", n.Norm())
	}
	zero := Vec3{}
	if zero.Normalize() != zero {
		t.Error("zero vector should normalize to itself")
	}
}

func TestGeodeticRoundTrip(t *testing.T) {
	f := func(latSeed, lonSeed, altSeed float64) bool {
		lat := math.Mod(latSeed, 1.4) // stay away from the poles
		lon := math.Mod(lonSeed, math.Pi)
		alt := 200 + math.Abs(math.Mod(altSeed, 1500))
		p := GeodeticToECEF(lat, lon, alt)
		lat2, lon2, alt2 := ECEFToGeodetic(p)
		return almostEqual(lat, lat2, 1e-9) && almostEqual(lon, lon2, 1e-9) && almostEqual(alt, alt2, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestECEFToGeodeticOrigin(t *testing.T) {
	lat, lon, alt := ECEFToGeodetic(Vec3{})
	if lat != 0 || lon != 0 || alt != -EarthRadiusKm {
		t.Errorf("origin: %v %v %v", lat, lon, alt)
	}
}

func TestECIToECEFPreservesRadius(t *testing.T) {
	p := Vec3{7000, 100, -2500}
	for _, tm := range []float64{0, 10, 1000, 86400} {
		q := ECIToECEF(p, tm)
		if !almostEqual(p.Norm(), q.Norm(), 1e-9) {
			t.Errorf("radius changed at t=%v: %v vs %v", tm, p.Norm(), q.Norm())
		}
		if !almostEqual(p.Z, q.Z, 1e-12) {
			t.Errorf("z changed at t=%v", tm)
		}
	}
}

func TestECIToECEFZeroTimeIdentity(t *testing.T) {
	p := Vec3{1234, -567, 89}
	if q := ECIToECEF(p, 0); q != p {
		t.Errorf("identity at t=0 violated: %v", q)
	}
}

func TestElevationAngle(t *testing.T) {
	site := GeodeticToECEF(0, 0, 0)
	// Satellite directly overhead.
	over := GeodeticToECEF(0, 0, 550)
	if e := ElevationAngle(site, over); !almostEqual(e, math.Pi/2, 1e-6) {
		t.Errorf("overhead elevation = %v", Rad2Deg(e))
	}
	// Satellite on the opposite side of the Earth: far below horizon.
	anti := GeodeticToECEF(0, math.Pi, 550)
	if e := ElevationAngle(site, anti); e > 0 {
		t.Errorf("antipodal elevation = %v should be negative", Rad2Deg(e))
	}
	// A satellite at the same altitude but 5 degrees away in longitude is
	// visible at moderate elevation.
	off := GeodeticToECEF(0, Deg(5), 550)
	e := ElevationAngle(site, off)
	if e <= 0 || e >= math.Pi/2 {
		t.Errorf("offset elevation = %v out of range", Rad2Deg(e))
	}
}

func TestOrbitPeriodLEO(t *testing.T) {
	o := Orbit{AltitudeKm: 550}
	p := o.PeriodSec()
	// A 550 km LEO orbit takes roughly 95-96 minutes.
	if p < 90*60 || p > 100*60 {
		t.Errorf("period = %v min", p/60)
	}
}

func TestOrbitRadiusConstant(t *testing.T) {
	o := Orbit{AltitudeKm: 550, InclinationRad: Deg(53.2), RAANRad: 1.1, ArgLatRad: 0.3}
	want := o.SemiMajorAxisKm()
	for i := 0; i < 50; i++ {
		tm := float64(i) * 137.0
		if r := o.PositionECI(tm).Norm(); !almostEqual(r, want, 1e-6) {
			t.Fatalf("radius at t=%v: %v want %v", tm, r, want)
		}
	}
}

func TestOrbitReturnsAfterPeriod(t *testing.T) {
	o := Orbit{AltitudeKm: 550, InclinationRad: Deg(53.2), RAANRad: 0.7, ArgLatRad: 2.2}
	p0 := o.PositionECI(0)
	p1 := o.PositionECI(o.PeriodSec())
	if p0.Distance(p1) > 1e-6 {
		t.Errorf("orbit not periodic in ECI: drift %v km", p0.Distance(p1))
	}
}

func TestOrbitMaxLatitudeEqualsInclination(t *testing.T) {
	inc := Deg(53.2)
	o := Orbit{AltitudeKm: 550, InclinationRad: inc}
	maxLat := 0.0
	period := o.PeriodSec()
	for i := 0; i < 2000; i++ {
		p := o.PositionECI(period * float64(i) / 2000)
		lat := math.Abs(math.Asin(p.Z / p.Norm()))
		if lat > maxLat {
			maxLat = lat
		}
	}
	if !almostEqual(maxLat, inc, 1e-3) {
		t.Errorf("max |lat| = %v deg, want ~%v deg", Rad2Deg(maxLat), Rad2Deg(inc))
	}
}

func TestPropagationDelay(t *testing.T) {
	a := Vec3{0, 0, 0}
	b := Vec3{SpeedOfLightKmS, 0, 0}
	if d := PropagationDelaySec(a, b); !almostEqual(d, 1, 1e-12) {
		t.Errorf("delay = %v want 1s", d)
	}
}

func TestDegRoundTrip(t *testing.T) {
	for _, d := range []float64{0, 45, 90, -30, 360} {
		if got := Rad2Deg(Deg(d)); !almostEqual(got, d, 1e-12) {
			t.Errorf("deg round trip %v -> %v", d, got)
		}
	}
}
