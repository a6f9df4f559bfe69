package topology

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"sate/internal/orbit"
)

// Binary snapshot serialization. Full-scale analyses sample tens of
// thousands of snapshots (Sec. 2.3.1: 40,000 at 12.5 ms); caching them on
// disk makes repeated experiments cheap. Format (little endian):
//
//	magic "STSN" | version u16 | timeSec f64 | numSats u32 | numNodes u32 |
//	numLinks u32 | links: (a u32, b u32, kind u8)* | pos: (x, y, z f64)*
const (
	snapshotMagic   = "STSN"
	snapshotVersion = 1
)

// WriteTo serializes the snapshot. It returns the byte count written.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v interface{}) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return n, err
	}
	n += int64(len(snapshotMagic))
	if err := write(uint16(snapshotVersion)); err != nil {
		return n, err
	}
	if err := write(s.TimeSec); err != nil {
		return n, err
	}
	if err := write(uint32(s.NumSats)); err != nil {
		return n, err
	}
	if err := write(uint32(s.NumNodes)); err != nil {
		return n, err
	}
	if err := write(uint32(len(s.Links))); err != nil {
		return n, err
	}
	for _, l := range s.Links {
		if err := write(uint32(l.A)); err != nil {
			return n, err
		}
		if err := write(uint32(l.B)); err != nil {
			return n, err
		}
		if err := write(uint8(l.Kind)); err != nil {
			return n, err
		}
	}
	for _, p := range s.Pos {
		for _, c := range [3]float64{p.X, p.Y, p.Z} {
			if err := write(c); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// ReadSnapshot deserializes a snapshot written by WriteTo, validating the
// header, all counts and every link (endpoints in range, stored canonically
// with A < B as MakeLink writes them). The header's counts are not trusted
// for sizing: the slices grow as records arrive, so a file that claims more
// than it holds fails at EOF having allocated about what it held. It reads
// exactly one snapshot's bytes, so multiple snapshots can be read from one
// stream (wrap the stream in a bufio.Reader yourself for throughput).
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("topology: reading snapshot magic: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("topology: bad snapshot magic %q", magic)
	}
	read := func(v interface{}) error { return binary.Read(r, binary.LittleEndian, v) }
	var version uint16
	if err := read(&version); err != nil {
		return nil, err
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("topology: unsupported snapshot version %d", version)
	}
	s := &Snapshot{}
	if err := read(&s.TimeSec); err != nil {
		return nil, err
	}
	var numSats, numNodes, numLinks uint32
	if err := read(&numSats); err != nil {
		return nil, err
	}
	if err := read(&numNodes); err != nil {
		return nil, err
	}
	if err := read(&numLinks); err != nil {
		return nil, err
	}
	const sanityMax = 10_000_000
	if numNodes < numSats || numNodes > sanityMax || numLinks > sanityMax {
		return nil, fmt.Errorf("topology: implausible snapshot counts sats=%d nodes=%d links=%d", numSats, numNodes, numLinks)
	}
	s.NumSats = int(numSats)
	s.NumNodes = int(numNodes)
	for i := uint32(0); i < numLinks; i++ {
		var a, b uint32
		var kind uint8
		if err := read(&a); err != nil {
			return nil, err
		}
		if err := read(&b); err != nil {
			return nil, err
		}
		if err := read(&kind); err != nil {
			return nil, err
		}
		if a >= numNodes || b >= numNodes {
			return nil, fmt.Errorf("topology: link %d endpoint out of range", i)
		}
		if a >= b {
			return nil, fmt.Errorf("topology: link %d (%d, %d) is a self-loop or not canonical (want A < B)", i, a, b)
		}
		s.Links = append(s.Links, Link{A: NodeID(a), B: NodeID(b), Kind: LinkKind(kind)})
	}
	for i := uint32(0); i < numNodes; i++ {
		var x, y, z float64
		if err := read(&x); err != nil {
			return nil, err
		}
		if err := read(&y); err != nil {
			return nil, err
		}
		if err := read(&z); err != nil {
			return nil, err
		}
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(z) {
			return nil, fmt.Errorf("topology: NaN position for node %d", i)
		}
		s.Pos = append(s.Pos, orbit.Vec3{X: x, Y: y, Z: z})
	}
	s.Finalize()
	return s, nil
}

// WriteSeries serializes consecutive snapshots to one stream.
func WriteSeries(w io.Writer, snaps []*Snapshot) error {
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(snaps))); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	for _, s := range snaps {
		if _, err := s.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}

// ReadSeries deserializes a stream written by WriteSeries.
func ReadSeries(r io.Reader) ([]*Snapshot, error) {
	br := bufio.NewReader(r)
	var n uint32
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > 10_000_000 {
		return nil, fmt.Errorf("topology: implausible series length %d", n)
	}
	var out []*Snapshot
	for i := uint32(0); i < n; i++ {
		s, err := ReadSnapshot(br)
		if err != nil {
			return nil, fmt.Errorf("topology: snapshot %d: %w", i, err)
		}
		out = append(out, s)
	}
	return out, nil
}
