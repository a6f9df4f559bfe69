package topology

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"sate/internal/orbit"
)

func TestSnapshotRoundTrip(t *testing.T) {
	g := toyGen(CrossShellLasers)
	s := g.Snapshot(123.5)
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore no-float-equality serialization roundtrip must be bitwise
	if got.TimeSec != s.TimeSec || got.NumSats != s.NumSats || got.NumNodes != s.NumNodes {
		t.Errorf("header mismatch: %+v", got)
	}
	if !got.SameTopology(s) {
		t.Fatal("link set not preserved")
	}
	if len(got.Pos) != len(s.Pos) {
		t.Fatal("positions missing")
	}
	for i := range s.Pos {
		if got.Pos[i] != s.Pos[i] {
			t.Fatalf("position %d differs", i)
		}
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewReader([]byte("XXXXjunkjunkjunk"))); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated stream.
	g := toyGen(CrossShellNone)
	s := g.Snapshot(0)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadSnapshot(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

func TestSeriesRoundTrip(t *testing.T) {
	g := toyGen(CrossShellLasers)
	snaps := g.Series(0, 30, 5)
	var buf bytes.Buffer
	if err := WriteSeries(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSeries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(snaps) {
		t.Fatalf("series length %d want %d", len(got), len(snaps))
	}
	for i := range snaps {
		if !got[i].SameTopology(snaps[i]) {
			t.Fatalf("snapshot %d topology differs", i)
		}
	}
	// THT analysis on the round-tripped series matches the original.
	a := MeasureTHT(snaps, 30)
	b := MeasureTHT(got, 30)
	if len(a.HoldTimesSec) != len(b.HoldTimesSec) {
		t.Error("THT differs after round trip")
	}
}

// header encodes a snapshot header claiming the given counts, with no
// records after it.
func header(numSats, numNodes, numLinks uint32) []byte {
	var buf bytes.Buffer
	buf.WriteString(snapshotMagic)
	for _, v := range []any{uint16(snapshotVersion), float64(0), numSats, numNodes, numLinks} {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// TestReadDoesNotTrustHeaderCounts: a header claiming ten million links (or
// a series claiming ten million snapshots) over an empty body fails at EOF
// without allocating for the claim.
func TestReadDoesNotTrustHeaderCounts(t *testing.T) {
	series := binary.LittleEndian.AppendUint32(nil, 10_000_000)
	for name, read := range map[string]func() error{
		"snapshot": func() error { _, err := ReadSnapshot(bytes.NewReader(header(10, 10_000_000, 10_000_000))); return err },
		"series":   func() error { _, err := ReadSeries(bytes.NewReader(series)); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := read()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: empty body accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: allocated %d bytes for a claim the input does not hold", name, grew)
		}
	}
}

// TestReadSnapshotRejectsNonCanonicalLinks: every generator writes MakeLink
// links (A < B); a stored {2, 1} would never match MakeLink's key, and a
// self-loop is not a link.
func TestReadSnapshotRejectsNonCanonicalLinks(t *testing.T) {
	for _, l := range []Link{{A: 2, B: 1}, {A: 1, B: 1}} {
		s := &Snapshot{NumSats: 3, NumNodes: 3, Links: []Link{MakeLink(0, 1, IntraOrbit), l}, Pos: make([]orbit.Vec3, 3)}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(&buf); err == nil {
			t.Errorf("link %+v accepted", l)
		}
	}
}

// FuzzReadSnapshot: garbage returns an error and never panics, and input
// that is accepted writes back to exactly the bytes it was read from. The
// seed corpus under testdata/fuzz/FuzzReadSnapshot holds a small valid
// snapshot and truncations of it.
func FuzzReadSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		s, err := ReadSnapshot(r)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if read := data[:len(data)-r.Len()]; !bytes.Equal(buf.Bytes(), read) {
			t.Fatalf("accepted %d bytes, wrote back %d different ones", len(read), buf.Len())
		}
		back, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatalf("written snapshot does not read back: %v", err)
		}
		if !back.SameTopology(s) || len(back.Pos) != len(s.Pos) {
			t.Fatal("round trip changed the snapshot")
		}
	})
}
