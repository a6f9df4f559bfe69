package topology

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sate/internal/constellation"
	"sate/internal/groundnet"
	"sate/internal/orbit"
)

func toyGen(mode CrossShellMode) *Generator {
	c := constellation.Toy(6, 8)
	cfg := DefaultConfig(mode)
	if mode == CrossShellGroundRelays {
		g := groundnet.SyntheticPopulation(1)
		cfg.Relays = groundnet.PlaceSites(40, g.Probabilities(0.2), rand.New(rand.NewSource(5)))
	}
	return NewGenerator(c, cfg)
}

func TestMakeLinkCanonical(t *testing.T) {
	a := MakeLink(5, 2, IntraOrbit)
	b := MakeLink(2, 5, IntraOrbit)
	if a != b {
		t.Errorf("links not canonical: %+v vs %+v", a, b)
	}
	if a.A != 2 || a.B != 5 {
		t.Errorf("ordering wrong: %+v", a)
	}
}

func TestLinkHashDistinct(t *testing.T) {
	seen := make(map[uint64]Link)
	for a := NodeID(0); a < 60; a++ {
		for b := a + 1; b < 60; b++ {
			l := MakeLink(a, b, IntraOrbit)
			if prev, ok := seen[l.hash()]; ok {
				t.Fatalf("hash collision: %+v vs %+v", prev, l)
			}
			seen[l.hash()] = l
		}
	}
}

func TestFingerprintOrderIndependent(t *testing.T) {
	links := []Link{MakeLink(0, 1, IntraOrbit), MakeLink(2, 3, InterOrbit), MakeLink(1, 4, CrossShellLaser)}
	rev := []Link{links[2], links[0], links[1]}
	if fingerprintOf(links) != fingerprintOf(rev) {
		t.Error("fingerprint must be order independent")
	}
	if fingerprintOf(links) == fingerprintOf(links[:2]) {
		t.Error("fingerprint must distinguish different sets")
	}
}

func TestSnapshotGridStructure(t *testing.T) {
	g := toyGen(CrossShellNone)
	s := g.Snapshot(0)
	if s.NumSats != 96 || s.NumNodes != 96 {
		t.Fatalf("nodes = %d/%d", s.NumSats, s.NumNodes)
	}
	deg := s.Degrees()
	// With a 53-degree inclination nothing reaches 75 degrees latitude, so
	// every satellite has exactly 4 intra-shell links.
	for id, d := range deg {
		if d != 4 {
			t.Fatalf("sat %d degree = %d, want 4", id, d)
		}
	}
	// Count kinds: per shell of 48 sats there are 48 intra + 48 inter links.
	kinds := map[LinkKind]int{}
	for _, l := range s.Links {
		kinds[l.Kind]++
	}
	if kinds[IntraOrbit] != 96 || kinds[InterOrbit] != 96 {
		t.Errorf("link kinds: %v", kinds)
	}
}

func TestHighInclinationDropsInterOrbitLinks(t *testing.T) {
	// A polar shell reaches +/-86 degrees latitude: satellites above 75
	// degrees must drop inter-orbit links.
	c := constellation.MustNew("polar", []constellation.Shell{
		{Name: "polar", AltitudeKm: 781, InclinationDeg: 86.4, Planes: 6, SatsPerPlane: 11, PhaseFactor: 2},
	})
	g := NewGenerator(c, DefaultConfig(CrossShellNone))
	s := g.Snapshot(0)
	maxLat := orbit.Deg(75)
	for _, l := range s.Links {
		if l.Kind != InterOrbit {
			continue
		}
		for _, n := range []NodeID{l.A, l.B} {
			if lat := latOf(s.Pos[n]); math.Abs(lat) > maxLat {
				t.Fatalf("inter-orbit link at latitude %.1f deg", orbit.Rad2Deg(lat))
			}
		}
	}
	// And some satellites must actually be above the cutoff at t=0.
	above := 0
	for id := 0; id < s.NumSats; id++ {
		if math.Abs(latOf(s.Pos[id])) > maxLat {
			above++
		}
	}
	if above == 0 {
		t.Skip("no satellite above cutoff at t=0; geometry changed")
	}
	deg := s.Degrees()
	for id := 0; id < s.NumSats; id++ {
		if math.Abs(latOf(s.Pos[id])) > maxLat && deg[id] > 2 {
			t.Fatalf("high-latitude sat %d has degree %d", id, deg[id])
		}
	}
}

func TestCrossShellLasersRespectRange(t *testing.T) {
	g := toyGen(CrossShellLasers)
	s := g.Snapshot(0)
	nCross := 0
	for _, l := range s.Links {
		if l.Kind != CrossShellLaser {
			continue
		}
		nCross++
		if d := s.LinkLengthKm(l); d > laserMaxRangeKm {
			t.Fatalf("laser link length %.0f km exceeds %v", d, laserMaxRangeKm)
		}
		// Endpoints must be in different shells.
		if g.Cons.ShellOf(constellation.SatID(l.A)) == g.Cons.ShellOf(constellation.SatID(l.B)) {
			t.Fatal("cross-shell link within one shell")
		}
	}
	if nCross == 0 {
		t.Fatal("no cross-shell lasers formed; shells are 20 km apart")
	}
}

func TestCrossShellLaserIsNearest(t *testing.T) {
	g := toyGen(CrossShellLasers)
	s := g.Snapshot(0)
	// For every satellite in shell 0 with a cross link, verify the partner is
	// the true nearest shell-1 satellite (brute force).
	shell1 := g.Cons.ShellSats(1)
	checked := 0
	for _, l := range s.Links {
		if l.Kind != CrossShellLaser {
			continue
		}
		lo, hi := l.A, l.B
		if g.Cons.ShellOf(constellation.SatID(lo)) != 0 {
			lo, hi = hi, lo
		}
		best := constellation.SatID(-1)
		bestD := math.MaxFloat64
		for _, cand := range shell1 {
			if d := s.Pos[lo].Distance(s.Pos[cand.ID]); d < bestD {
				best, bestD = cand.ID, d
			}
		}
		if NodeID(best) != hi {
			t.Fatalf("sat %d paired with %d, nearest is %d (%.1f km)", lo, hi, best, bestD)
		}
		checked++
		if checked > 20 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

func TestGroundRelayLinks(t *testing.T) {
	g := toyGen(CrossShellGroundRelays)
	s := g.Snapshot(0)
	if s.NumNodes != s.NumSats+40 {
		t.Fatalf("expected 40 relay nodes, got %d extra", s.NumNodes-s.NumSats)
	}
	minElev := orbit.Deg(relayMinElevDeg)
	n := 0
	for _, l := range s.Links {
		if l.Kind != GroundRelayLink {
			continue
		}
		n++
		sat, relay := l.A, l.B
		if int(relay) < s.NumSats {
			sat, relay = relay, sat
		}
		if int(relay) < s.NumSats {
			t.Fatal("ground-relay link between two satellites")
		}
		if e := orbit.ElevationAngle(s.Pos[relay], s.Pos[sat]); e < minElev-1e-9 {
			t.Fatalf("relay link at elevation %.1f deg", orbit.Rad2Deg(e))
		}
	}
	if n == 0 {
		t.Fatal("no ground-relay links formed")
	}
}

func TestSnapshotDeterminism(t *testing.T) {
	g1 := toyGen(CrossShellLasers)
	g2 := toyGen(CrossShellLasers)
	a := g1.Snapshot(123.456)
	b := g2.Snapshot(123.456)
	if !a.SameTopology(b) {
		t.Error("snapshots at equal time differ")
	}
}

func TestDiff(t *testing.T) {
	g := toyGen(CrossShellLasers)
	a := g.Snapshot(0)
	b := g.Snapshot(300) // 5 minutes later cross links re-pair
	added, removed := a.Diff(b)
	if len(added) == 0 && len(removed) == 0 {
		t.Skip("no churn in 300 s; unexpected but not an error")
	}
	// Applying the diff to a's link set must yield b's link set.
	set := a.LinkSet()
	for _, l := range removed {
		delete(set, l.Key())
	}
	for _, l := range added {
		set[l.Key()] = l
	}
	want := b.LinkSet()
	if len(set) != len(want) {
		t.Fatalf("diff application mismatch: %d vs %d links", len(set), len(want))
	}
	for k := range want {
		if _, ok := set[k]; !ok {
			t.Fatal("diff application missing link")
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	g := toyGen(CrossShellLasers)
	s := g.Snapshot(0)
	if cc := s.ConnectedComponents(); cc != 1 {
		t.Errorf("constellation should be connected, got %d components", cc)
	}
	empty := &Snapshot{NumSats: 4, NumNodes: 4}
	empty.Finalize()
	if cc := empty.ConnectedComponents(); cc != 4 {
		t.Errorf("empty topology components = %d", cc)
	}
}

func TestMeasureTHT(t *testing.T) {
	// Build a synthetic series: 3 identical, 1 different, 2 identical.
	mk := func(links ...Link) *Snapshot {
		s := &Snapshot{NumSats: 10, NumNodes: 10, Links: links}
		s.Finalize()
		return s
	}
	l1 := MakeLink(0, 1, IntraOrbit)
	l2 := MakeLink(1, 2, IntraOrbit)
	snaps := []*Snapshot{mk(l1), mk(l1), mk(l1), mk(l2), mk(l2), mk(l1)}
	r := MeasureTHT(snaps, 0.0125)
	want := []float64{3 * 0.0125, 2 * 0.0125, 0.0125}
	if len(r.HoldTimesSec) != len(want) {
		t.Fatalf("runs = %v", r.HoldTimesSec)
	}
	for i := range want {
		if math.Abs(r.HoldTimesSec[i]-want[i]) > 1e-12 {
			t.Errorf("run %d = %v want %v", i, r.HoldTimesSec[i], want[i])
		}
	}
	if m := r.Mean(); math.Abs(m-0.025) > 1e-12 {
		t.Errorf("mean = %v", m)
	}
	if m := r.Max(); math.Abs(m-0.0375) > 1e-12 {
		t.Errorf("max = %v", m)
	}
}

func TestTHTRealConstellation(t *testing.T) {
	// Cross-shell lasers re-pair over minutes; sampling a toy constellation
	// at 1 s for 10 minutes should reveal at least one topology change.
	g := toyGen(CrossShellLasers)
	snaps := g.Series(0, 1, 600)
	r := MeasureTHT(snaps, 1)
	if len(r.HoldTimesSec) < 2 {
		t.Skip("no topology change observed in 600 s at toy scale")
	}
	if r.Mean() <= 0 || r.Max() < r.Mean() {
		t.Errorf("inconsistent THT stats: mean %v max %v", r.Mean(), r.Max())
	}
}

func TestLinkExclusionMonotone(t *testing.T) {
	g := toyGen(CrossShellLasers)
	snaps := g.Series(0, 5, 120) // 10 minutes, 5-second steps
	prev := -1.0
	for _, steps := range []int{1, 12, 60, 120} {
		e := LinkExclusion(snaps, steps)
		if e < prev-1e-9 {
			t.Errorf("exclusion not monotone: steps=%d e=%v prev=%v", steps, e, prev)
		}
		if e < 0 || e > 1 {
			t.Fatalf("exclusion out of range: %v", e)
		}
		prev = e
	}
	if e := LinkExclusion(snaps, 1); e != 0 {
		t.Errorf("single-snapshot exclusion = %v, want 0", e)
	}
}

func TestInjectFailures(t *testing.T) {
	g := toyGen(CrossShellNone)
	s := g.Snapshot(0)
	rng := rand.New(rand.NewSource(2))
	f := InjectFailures(s, 0.25, rng)
	want := len(s.Links) - len(s.Links)/4
	if len(f.Links) != want {
		t.Errorf("links after failure = %d, want %d", len(f.Links), want)
	}
	if len(s.Links) != 192 {
		t.Errorf("original snapshot mutated: %d links", len(s.Links))
	}
	// fraction 0: unchanged copy
	f0 := InjectFailures(s, 0, rng)
	if !f0.SameTopology(s) {
		t.Error("zero failure fraction must preserve topology")
	}
}

func TestInjectFailuresProperty(t *testing.T) {
	g := toyGen(CrossShellNone)
	s := g.Snapshot(0)
	f := func(seed int64, fracSeed float64) bool {
		frac := math.Abs(math.Mod(fracSeed, 1))
		out := InjectFailures(s, frac, rand.New(rand.NewSource(seed)))
		// Surviving links are a subset of the originals.
		orig := s.LinkSet()
		for _, l := range out.Links {
			if _, ok := orig[l.Key()]; !ok {
				return false
			}
		}
		return len(out.Links) == len(s.Links)-int(float64(len(s.Links))*frac)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMeasureChurn(t *testing.T) {
	g := toyGen(CrossShellLasers)
	snaps := g.Series(0, 10, 60)
	cs := MeasureChurn(snaps)
	if cs.Steps != 59 {
		t.Fatalf("steps = %d", cs.Steps)
	}
	if cs.ChangedSteps > cs.Steps {
		t.Fatal("changed > steps")
	}
}

func TestLinkSetKindAgnosticMembership(t *testing.T) {
	// The invariant pathValid and every other membership consumer rely on:
	// a LinkSet answers Has(a, b) purely by endpoints — the LinkKind a link
	// was built or queried with never affects membership, and endpoint order
	// does not matter.
	set := make(LinkSet)
	set.Add(MakeLink(3, 9, CrossShellLaser))
	set.Add(MakeLink(12, 4, GroundRelayLink))

	for _, tc := range []struct {
		a, b NodeID
		want bool
	}{
		{3, 9, true}, {9, 3, true}, // either endpoint order
		{4, 12, true}, {12, 4, true},
		{3, 4, false}, {9, 12, false}, {3, 12, false},
	} {
		if got := set.Has(tc.a, tc.b); got != tc.want {
			t.Errorf("Has(%d, %d) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}

	// Stored kinds survive for consumers that read the Link value.
	if l := set[MakeLink(3, 9, IntraOrbit).Key()]; l.Kind != CrossShellLaser {
		t.Errorf("stored kind = %v, want CrossShellLaser", l.Kind)
	}

	// Snapshot.LinkSet agrees with the snapshot's own Links across all kinds.
	g := toyGen(CrossShellNone)
	s := g.Snapshot(0)
	ls := s.LinkSet()
	for _, l := range s.Links {
		if !ls.Has(l.A, l.B) || !ls.Has(l.B, l.A) {
			t.Fatalf("snapshot link %v missing from its own LinkSet", l)
		}
	}
}
