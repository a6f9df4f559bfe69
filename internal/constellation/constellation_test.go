package constellation

import (
	"math"
	"testing"

	"sate/internal/orbit"
)

func TestStarlinkPhase1Count(t *testing.T) {
	c := StarlinkPhase1()
	if got := c.Size(); got != 4236 {
		t.Fatalf("Starlink Phase 1 size = %d, want 4236 (Table 4)", got)
	}
	if len(c.Shells) != 4 {
		t.Fatalf("shells = %d, want 4", len(c.Shells))
	}
	wantAlt := []float64{540, 550, 560, 570}
	for i, sh := range c.Shells {
		//lint:ignore no-float-equality preset altitudes are exact configured literals
		if sh.AltitudeKm != wantAlt[i] {
			t.Errorf("shell %d altitude = %v, want %v", i, sh.AltitudeKm, wantAlt[i])
		}
	}
}

func TestIridiumCount(t *testing.T) {
	c := Iridium()
	if got := c.Size(); got != 66 {
		t.Fatalf("Iridium size = %d, want 66", got)
	}
	if c.Shells[0].InclinationDeg != 86.4 {
		t.Errorf("inclination = %v", c.Shells[0].InclinationDeg)
	}
}

func TestMidSizeCounts(t *testing.T) {
	if got := MidSize1().Size(); got != 396 {
		t.Errorf("MidSize1 = %d, want 396", got)
	}
	if got := MidSize2().Size(); got != 1584 {
		t.Errorf("MidSize2 = %d, want 1584", got)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("bad", []Shell{{AltitudeKm: 550, Planes: 0, SatsPerPlane: 5}}); err == nil {
		t.Error("expected error for zero planes")
	}
	if _, err := New("bad", []Shell{{AltitudeKm: -1, Planes: 2, SatsPerPlane: 5}}); err == nil {
		t.Error("expected error for negative altitude")
	}
}

func TestIDGridRoundTrip(t *testing.T) {
	c := Toy(6, 8)
	for i := range c.Sats {
		s := &c.Sats[i]
		got := c.SatAt(s.Grid)
		if got.ID != s.ID {
			t.Fatalf("SatAt(%+v) = %d, want %d", s.Grid, got.ID, s.ID)
		}
	}
}

func TestShellSats(t *testing.T) {
	c := Toy(4, 5)
	s0 := c.ShellSats(0)
	s1 := c.ShellSats(1)
	if len(s0) != 20 || len(s1) != 20 {
		t.Fatalf("shell sizes %d %d", len(s0), len(s1))
	}
	for _, s := range s0 {
		if s.Grid.Shell != 0 {
			t.Fatal("shell 0 contains foreign satellite")
		}
	}
	if s1[0].ID != 20 {
		t.Fatalf("shell 1 starts at %d", s1[0].ID)
	}
}

func TestNeighborWraps(t *testing.T) {
	c := SingleShell(6, 11)
	g := GridCoord{Shell: 0, Plane: 0, Slot: 0}
	if n := c.Neighbor(g, -1, 0); n.Plane != 5 {
		t.Errorf("plane wrap: %+v", n)
	}
	if n := c.Neighbor(g, 0, -1); n.Slot != 10 {
		t.Errorf("slot wrap: %+v", n)
	}
	if n := c.Neighbor(g, 6, 11); n != g {
		t.Errorf("full wrap: %+v", n)
	}
}

func TestRAANSpacing(t *testing.T) {
	c := SingleShell(4, 3)
	// Planes spaced by 90 degrees.
	for p := 0; p < 4; p++ {
		want := orbit.Deg(90 * float64(p))
		got := c.SatAt(GridCoord{Plane: p}).Orbit.RAANRad
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("plane %d RAAN = %v, want %v", p, got, want)
		}
	}
}

func TestIridiumStarPattern(t *testing.T) {
	c := Iridium()
	// Star pattern: last plane RAAN < 180 degrees.
	last := c.SatAt(GridCoord{Plane: 5}).Orbit.RAANRad
	if last >= orbit.Deg(180) {
		t.Errorf("Iridium plane 5 RAAN = %v deg, want < 180", orbit.Rad2Deg(last))
	}
}

func TestPositionsECEFReuse(t *testing.T) {
	c := Toy(3, 4)
	buf := c.PositionsECEF(0, nil)
	if len(buf) != c.Size() {
		t.Fatalf("positions len %d", len(buf))
	}
	buf2 := c.PositionsECEF(10, buf)
	if &buf2[0] != &buf[0] {
		t.Error("buffer was not reused")
	}
	// All satellites at correct radius.
	for i, p := range buf2 {
		wantR := c.Sats[i].Orbit.SemiMajorAxisKm()
		if math.Abs(p.Norm()-wantR) > 1e-6 {
			t.Fatalf("sat %d radius %v want %v", i, p.Norm(), wantR)
		}
	}
}

func TestSatsUniqueInitialPositions(t *testing.T) {
	c := SingleShell(6, 11)
	// Use a generic time: at special instants (e.g. epoch) two satellites in
	// RAAN-symmetric planes can legitimately pass through the same orbital
	// crossing point.
	pos := c.PositionsECEF(137.0, nil)
	for i := 0; i < len(pos); i++ {
		for j := i + 1; j < len(pos); j++ {
			if pos[i].Distance(pos[j]) < 1.0 {
				t.Fatalf("sats %d and %d nearly coincide", i, j)
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"starlink", "iridium", "midsize1", "midsize2"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("ByName(%q) not found", name)
		}
	}
	for _, name := range []string{"nope", "toy-", "toy-5", "toy-5x", "toy-0x6", "toy-5x-1", "toy-axb"} {
		if _, ok := ByName(name); ok {
			t.Errorf("ByName(%q) should fail", name)
		}
	}
	c, ok := ByName("toy-5x6")
	if want := Toy(5, 6); !ok || c.Size() != want.Size() || len(c.Shells) != len(want.Shells) {
		t.Errorf("ByName(toy-5x6) = %v, %v; want Toy(5, 6)", c, ok)
	}
}
