package orbit

import "math"

// Orbit describes a circular orbit by its geometry. All satellites in one
// Walker-style shell share AltitudeKm and InclinationRad and differ only in
// RAAN and initial argument of latitude.
type Orbit struct {
	AltitudeKm     float64 // altitude above the spherical Earth surface
	InclinationRad float64 // orbital inclination
	RAANRad        float64 // right ascension of the ascending node
	ArgLatRad      float64 // argument of latitude at epoch (u0)
}

// SemiMajorAxisKm returns the orbital radius (circular orbit).
func (o Orbit) SemiMajorAxisKm() float64 { return EarthRadiusKm + o.AltitudeKm }

// MeanMotionRadS returns the orbital angular rate n = sqrt(mu/a^3).
func (o Orbit) MeanMotionRadS() float64 {
	a := o.SemiMajorAxisKm()
	return math.Sqrt(EarthMuKm3S2 / (a * a * a))
}

// PeriodSec returns the orbital period.
func (o Orbit) PeriodSec() float64 { return 2 * math.Pi / o.MeanMotionRadS() }

// PositionECI returns the inertial-frame position at t seconds after epoch.
//
// For a circular orbit the argument of latitude advances linearly:
// u(t) = u0 + n t. The in-plane position is rotated by inclination about the
// line of nodes and by RAAN about the Earth's axis.
func (o Orbit) PositionECI(tSec float64) Vec3 {
	a := o.SemiMajorAxisKm()
	u := o.ArgLatRad + o.MeanMotionRadS()*tSec
	cu, su := math.Cos(u), math.Sin(u)
	ci, si := math.Cos(o.InclinationRad), math.Sin(o.InclinationRad)
	cO, sO := math.Cos(o.RAANRad), math.Sin(o.RAANRad)
	// Perifocal (in-plane) position for a circular orbit: (a cos u, a sin u, 0),
	// then rotate by inclination about x, then by RAAN about z.
	x := a * (cO*cu - sO*su*ci)
	y := a * (sO*cu + cO*su*ci)
	z := a * (su * si)
	return Vec3{x, y, z}
}

// PositionECEF returns the Earth-fixed position at t seconds after epoch.
func (o Orbit) PositionECEF(tSec float64) Vec3 {
	return ECIToECEF(o.PositionECI(tSec), tSec)
}
