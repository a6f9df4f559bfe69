// Package orbit provides the geometric and orbital-mechanics substrate used
// throughout the SaTE reproduction: Earth constants, ECI/ECEF coordinate
// frames, circular Keplerian propagation of satellite positions, geodetic
// conversions, and visibility/elevation computations between satellites and
// ground sites.
//
// The paper emulates Starlink trajectories with poliastro; the shells involved
// are near-circular, so a circular two-body propagator reproduces the position
// dynamics that drive topology churn (see DESIGN.md, substitution table).
package orbit

import "math"

// Vec3 is a point or direction in a 3-D Cartesian frame, in kilometres.
type Vec3 struct {
	X, Y, Z float64
}

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product v · w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Normalize returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Normalize() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Distance returns the Euclidean distance between v and w in kilometres.
func (v Vec3) Distance(w Vec3) float64 { return v.Sub(w).Norm() }
