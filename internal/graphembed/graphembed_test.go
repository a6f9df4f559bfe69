package graphembed

import (
	"math/rand"
	"testing"

	"sate/internal/constellation"
	"sate/internal/topology"
)

func snapAt(t float64) *topology.Snapshot {
	c := constellation.Toy(6, 8)
	return topology.NewGenerator(c, topology.DefaultConfig(topology.CrossShellLasers)).Snapshot(t)
}

func TestEmbedDeterministicAndNormalized(t *testing.T) {
	s := snapAt(0)
	a := Embed(s, 64, 3)
	b := Embed(s, 64, 3)
	if len(a) != 64 {
		t.Fatalf("dim = %d", len(a))
	}
	for i := range a {
		//lint:ignore no-float-equality bitwise determinism is exactly what this test asserts
		if a[i] != b[i] {
			t.Fatal("embedding not deterministic")
		}
	}
	if c := Cosine(a, a); c < 0.999999 {
		t.Errorf("self cosine = %v", c)
	}
}

func TestEmbedIdenticalTopologiesMatch(t *testing.T) {
	// Same link structure at different times (positions differ) must embed
	// identically: the embedding depends only on connectivity.
	s0 := snapAt(0)
	s1 := snapAt(1)
	if !s0.SameTopology(s1) {
		t.Skip("topology changed within 1 s")
	}
	a, b := Embed(s0, 128, 3), Embed(s1, 128, 3)
	if Cosine(a, b) < 0.999999 {
		t.Error("identical topologies embedded differently")
	}
}

func TestEmbedSeparatesStructures(t *testing.T) {
	gridSnap := snapAt(0)
	// A very different structure: a star graph of the same node count.
	star := &topology.Snapshot{NumSats: gridSnap.NumSats, NumNodes: gridSnap.NumNodes}
	for i := 1; i < star.NumNodes; i++ {
		star.Links = append(star.Links, topology.MakeLink(0, topology.NodeID(i), topology.IntraOrbit))
	}
	star.Finalize()
	simSame := Cosine(Embed(gridSnap, 128, 3), Embed(snapAt(1800), 128, 3))
	simDiff := Cosine(Embed(gridSnap, 128, 3), Embed(star, 128, 3))
	if simDiff >= simSame {
		t.Errorf("star (%v) not separated from drifted grid (%v)", simDiff, simSame)
	}
}

func TestDPPSelectBasics(t *testing.T) {
	vecs := [][]float64{
		{1, 0, 0},
		{0.99, 0.01, 0}, // near-duplicate of 0
		{0, 1, 0},
		{0, 0, 1},
	}
	sel := DPPSelect(vecs, 3)
	if len(sel) != 3 {
		t.Fatalf("selected %d", len(sel))
	}
	// The three orthogonal directions must be preferred over the duplicate:
	// at most one of {0,1} selected.
	both := 0
	for _, i := range sel {
		if i == 0 || i == 1 {
			both++
		}
	}
	if both > 1 {
		t.Errorf("DPP picked near-duplicates: %v", sel)
	}
}

func TestDPPSelectEdgeCases(t *testing.T) {
	vecs := [][]float64{{1, 0}, {0, 1}}
	if got := DPPSelect(vecs, 5); len(got) != 2 {
		t.Errorf("k>n should return all: %v", got)
	}
	if got := DPPSelect(vecs, 0); got != nil {
		t.Errorf("k=0 should return nil: %v", got)
	}
	// Linearly dependent set: selection stops early.
	dup := [][]float64{{1, 0}, {1, 0}, {1, 0}}
	if got := DPPSelect(dup, 3); len(got) < 1 {
		t.Errorf("at least one item should be selected: %v", got)
	}
}

func TestDPPMoreDiverseThanRandom(t *testing.T) {
	// Clustered data: 40 vectors in 4 tight clusters. DPP-selected 4 should
	// cover all clusters far more reliably than random.
	rng := rand.New(rand.NewSource(5))
	var vecs [][]float64
	for c := 0; c < 4; c++ {
		center := make([]float64, 8)
		center[c*2] = 1
		for i := 0; i < 10; i++ {
			v := make([]float64, 8)
			for j := range v {
				v[j] = center[j] + rng.NormFloat64()*0.01
			}
			vecs = append(vecs, v)
		}
	}
	sel := DPPSelect(vecs, 4)
	clusters := map[int]bool{}
	for _, i := range sel {
		clusters[i/10] = true
	}
	if len(clusters) != 4 {
		t.Errorf("DPP covered %d/4 clusters: %v", len(clusters), sel)
	}
}

func TestRandomSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sel := RandomSelect(100, 10, rng)
	if len(sel) != 10 {
		t.Fatalf("selected %d", len(sel))
	}
	seen := map[int]bool{}
	for _, i := range sel {
		if i < 0 || i >= 100 || seen[i] {
			t.Fatal("invalid or duplicate selection")
		}
		seen[i] = true
	}
	if got := RandomSelect(3, 10, rng); len(got) != 3 {
		t.Errorf("k>n: %v", got)
	}
}
