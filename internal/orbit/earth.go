package orbit

import "math"

// Physical constants. Distances are in kilometres, times in seconds, angles in
// radians unless a name says otherwise.
const (
	// EarthRadiusKm is the mean spherical Earth radius. A spherical Earth is
	// sufficient for link-geometry purposes (the paper's visibility rules are
	// elevation-angle and range thresholds, both insensitive to oblateness at
	// the precision that matters for topology churn).
	EarthRadiusKm = 6371.0

	// EarthMuKm3S2 is the standard gravitational parameter GM of Earth.
	EarthMuKm3S2 = 398600.4418

	// EarthRotationRadS is the sidereal rotation rate of Earth.
	EarthRotationRadS = 7.2921159e-5

	// SpeedOfLightKmS is the propagation speed used for delay computations
	// (free-space lasers and RF both travel at c).
	SpeedOfLightKmS = 299792.458
)

// Deg converts degrees to radians.
func Deg(d float64) float64 { return d * math.Pi / 180 }

// Rad2Deg converts radians to degrees.
func Rad2Deg(r float64) float64 { return r * 180 / math.Pi }

// GeodeticToECEF converts a latitude/longitude (radians) and altitude (km
// above the spherical Earth surface) to Earth-centred Earth-fixed Cartesian
// coordinates.
func GeodeticToECEF(latRad, lonRad, altKm float64) Vec3 {
	r := EarthRadiusKm + altKm
	cl := math.Cos(latRad)
	return Vec3{
		X: r * cl * math.Cos(lonRad),
		Y: r * cl * math.Sin(lonRad),
		Z: r * math.Sin(latRad),
	}
}

// ECEFToGeodetic converts an ECEF position to latitude (rad), longitude (rad)
// and altitude above the spherical Earth surface (km).
func ECEFToGeodetic(p Vec3) (latRad, lonRad, altKm float64) {
	r := p.Norm()
	if r == 0 {
		return 0, 0, -EarthRadiusKm
	}
	latRad = math.Asin(p.Z / r)
	lonRad = math.Atan2(p.Y, p.X)
	altKm = r - EarthRadiusKm
	return latRad, lonRad, altKm
}

// ECIToECEF rotates an inertial-frame position into the Earth-fixed frame at
// time t seconds after the reference epoch (at which the frames coincide).
func ECIToECEF(p Vec3, tSec float64) Vec3 {
	theta := EarthRotationRadS * tSec
	c, s := math.Cos(theta), math.Sin(theta)
	// Earth rotates eastward; ECEF = Rz(-theta) * ECI.
	return Vec3{
		X: c*p.X + s*p.Y,
		Y: -s*p.X + c*p.Y,
		Z: p.Z,
	}
}

// ElevationAngle returns the elevation (radians) of a target position as seen
// from a ground site, both given in the same Earth-fixed frame. The site is
// assumed to be at or near the Earth surface; the local vertical is the site's
// radial direction. A negative elevation means the target is below the
// horizon.
func ElevationAngle(site, target Vec3) float64 {
	up := site.Normalize()
	los := target.Sub(site)
	d := los.Norm()
	if d == 0 {
		return math.Pi / 2
	}
	s := los.Dot(up) / d
	s = math.Max(-1, math.Min(1, s))
	return math.Asin(s)
}

// PropagationDelaySec returns the speed-of-light propagation delay between two
// positions in seconds.
func PropagationDelaySec(a, b Vec3) float64 {
	return a.Distance(b) / SpeedOfLightKmS
}
