package constellation

import (
	"strconv"
	"strings"
)

// Presets encoding Table 4 of the paper (orbital parameters for Starlink
// Phase 1 and Iridium) and the mid-size constellations of Sec. 4 / Appendix G.

// StarlinkPhase1 returns the four completed Starlink orbital shells as of
// April 2024: 4236 satellites total (Table 4).
//
//	Shell 1: 540 km, 53.2 deg, 72 planes x 22 sats
//	Shell 2: 550 km, 53.0 deg, 72 planes x 22 sats
//	Shell 3: 560 km, 97.6 deg,  6 planes x 58 sats
//	Shell 4: 570 km, 70.0 deg, 36 planes x 20 sats
func StarlinkPhase1() *Constellation {
	return MustNew("starlink-phase1", []Shell{
		{Name: "shell1", AltitudeKm: 540, InclinationDeg: 53.2, Planes: 72, SatsPerPlane: 22, PhaseFactor: 39},
		{Name: "shell2", AltitudeKm: 550, InclinationDeg: 53.0, Planes: 72, SatsPerPlane: 22, PhaseFactor: 17},
		{Name: "shell3", AltitudeKm: 560, InclinationDeg: 97.6, Planes: 6, SatsPerPlane: 58, PhaseFactor: 1},
		{Name: "shell4", AltitudeKm: 570, InclinationDeg: 70.0, Planes: 36, SatsPerPlane: 20, PhaseFactor: 11},
	})
}

// Iridium returns the 66-satellite Iridium constellation: a single shell at
// 781 km, 86.4 deg inclination, 6 planes of 11 satellites (Table 4). Iridium
// is a Walker-star pattern: planes span ~180 degrees of RAAN.
func Iridium() *Constellation {
	return MustNew("iridium", []Shell{
		{Name: "iridium", AltitudeKm: 781, InclinationDeg: 86.4, Planes: 6, SatsPerPlane: 11, PhaseFactor: 2, RAANSpanDeg: 180},
	})
}

// MidSize1 returns the 396-satellite constellation of Sec. 4: Starlink shells
// 1 and 2 with the number of orbital planes reduced by a factor of 8
// (72/8 = 9 planes each, 22 sats per plane: 2 x 9 x 22 = 396).
func MidSize1() *Constellation {
	return MustNew("midsize-396", []Shell{
		{Name: "shell1/8", AltitudeKm: 540, InclinationDeg: 53.2, Planes: 9, SatsPerPlane: 22, PhaseFactor: 5},
		{Name: "shell2/8", AltitudeKm: 550, InclinationDeg: 53.0, Planes: 9, SatsPerPlane: 22, PhaseFactor: 2},
	})
}

// MidSize2 returns the 1584-satellite constellation of Sec. 4: Starlink shells
// 1 and 2 with the number of orbital planes reduced by a factor of 2
// (36 planes each, 22 sats per plane: 2 x 36 x 22 = 1584).
func MidSize2() *Constellation {
	return MustNew("midsize-1584", []Shell{
		{Name: "shell1/2", AltitudeKm: 540, InclinationDeg: 53.2, Planes: 36, SatsPerPlane: 22, PhaseFactor: 19},
		{Name: "shell2/2", AltitudeKm: 550, InclinationDeg: 53.0, Planes: 36, SatsPerPlane: 22, PhaseFactor: 8},
	})
}

// Toy returns a small two-shell constellation for unit tests and examples:
// deterministic, fast to propagate, and structurally similar to Starlink
// (two shells at slightly different altitudes with grid topology).
func Toy(planes, satsPerPlane int) *Constellation {
	return MustNew("toy", []Shell{
		{Name: "low", AltitudeKm: 540, InclinationDeg: 53.2, Planes: planes, SatsPerPlane: satsPerPlane, PhaseFactor: 1},
		{Name: "high", AltitudeKm: 560, InclinationDeg: 53.0, Planes: planes, SatsPerPlane: satsPerPlane, PhaseFactor: 1},
	})
}

// SingleShell returns a one-shell test constellation.
func SingleShell(planes, satsPerPlane int) *Constellation {
	return MustNew("single", []Shell{
		{Name: "only", AltitudeKm: 550, InclinationDeg: 53.0, Planes: planes, SatsPerPlane: satsPerPlane, PhaseFactor: 1},
	})
}

// ByName returns a preset constellation by its short name, for CLI tools:
// "starlink", "iridium", "midsize1", "midsize2", or "toy-<planes>x<sats>"
// for Toy(planes, sats).
func ByName(name string) (*Constellation, bool) {
	if dims, ok := strings.CutPrefix(name, "toy-"); ok {
		p, s, ok := strings.Cut(dims, "x")
		planes, errP := strconv.Atoi(p)
		sats, errS := strconv.Atoi(s)
		if !ok || errP != nil || errS != nil || planes < 1 || sats < 1 {
			return nil, false
		}
		return Toy(planes, sats), true
	}
	switch name {
	case "starlink":
		return StarlinkPhase1(), true
	case "iridium":
		return Iridium(), true
	case "midsize1":
		return MidSize1(), true
	case "midsize2":
		return MidSize2(), true
	default:
		return nil, false
	}
}
