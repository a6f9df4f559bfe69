// Package graphembed implements the topology-pruning machinery of Sec. 3.4 /
// Appendix E: a Graph2Vec-style fixed-dimension graph embedding based on
// Weisfeiler-Lehman subtree features (Graph2Vec itself is built on WL
// substructures), and Determinantal-Point-Process sampling via the fast
// greedy MAP algorithm to pick a diverse, representative subset of topology
// snapshots for training.
package graphembed

import (
	"math"
	"math/rand"
	"sort"

	"sate/internal/topology"
)

// DefaultDim is the embedding dimensionality used by the paper (d = 128).
const DefaultDim = 128

// Embed computes a fixed-size vector for a topology snapshot using hashed
// Weisfeiler-Lehman subtree features: node labels start from degrees and are
// iteratively refined by hashing each node's label together with its sorted
// neighbour labels; every label occurrence, at every refinement depth, votes
// into a hash bucket of the output vector. Structurally similar topologies
// share WL substructures and therefore land close in embedding space.
func Embed(s *topology.Snapshot, dim, iterations int) []float64 {
	if dim <= 0 {
		dim = DefaultDim
	}
	if iterations <= 0 {
		iterations = 3
	}
	adj := s.Adjacency()
	n := s.NumNodes
	vec := make([]float64, dim)

	labels := make([]uint64, n)
	for i := 0; i < n; i++ {
		labels[i] = mix(uint64(len(adj[i])) + 0x100)
	}
	vote := func(l uint64) { vec[int(l%uint64(dim))]++ }
	for i := 0; i < n; i++ {
		vote(labels[i])
	}
	next := make([]uint64, n)
	var nb []uint64
	for it := 0; it < iterations; it++ {
		for i := 0; i < n; i++ {
			nb = nb[:0]
			for _, j := range adj[i] {
				nb = append(nb, labels[j])
			}
			sort.Slice(nb, func(a, b int) bool { return nb[a] < nb[b] })
			h := mix(labels[i] ^ 0x9e3779b97f4a7c15)
			for _, l := range nb {
				h = mix(h ^ l)
			}
			next[i] = h
			vote(h)
		}
		labels, next = next, labels
	}
	// L2-normalise so that kernel similarities are cosine-like.
	var norm float64
	for _, v := range vec {
		norm += v * v
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for i := range vec {
			vec[i] /= norm
		}
	}
	return vec
}

// mix is the SplitMix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Cosine returns the cosine similarity of two equal-length vectors.
func Cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// DPPSelect picks k diverse items from the embedded dataset by greedy MAP
// inference on a determinantal point process with the linear (cosine) kernel
// plus diagonal jitter. It implements the fast O(n·k) incremental-Cholesky
// greedy algorithm: at each step the item with the largest conditional
// determinant gain is added.
func DPPSelect(vectors [][]float64, k int) []int {
	n := len(vectors)
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	if k <= 0 {
		return nil
	}
	const jitter = 1e-6
	kernel := func(i, j int) float64 {
		s := Cosine(vectors[i], vectors[j])
		if i == j {
			return 1 + jitter
		}
		return s
	}

	d2 := make([]float64, n) // residual conditional variances
	for i := range d2 {
		d2[i] = kernel(i, i)
	}
	ci := make([][]float64, n) // Cholesky rows, grows by one per step
	selected := make([]int, 0, k)
	used := make([]bool, n)

	for len(selected) < k {
		best, bestVal := -1, -1.0
		for i := 0; i < n; i++ {
			if !used[i] && d2[i] > bestVal {
				best, bestVal = i, d2[i]
			}
		}
		if best < 0 || bestVal <= 1e-12 {
			break // remaining items linearly dependent on the selection
		}
		used[best] = true
		selected = append(selected, best)
		ej := math.Sqrt(d2[best])
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			var dot float64
			for t := range ci[best] {
				dot += ci[best][t] * ci[i][t]
			}
			e := (kernel(best, i) - dot) / ej
			ci[i] = append(ci[i], e)
			d2[i] -= e * e
		}
		ci[best] = append(ci[best], ej)
	}
	sort.Ints(selected)
	return selected
}

// RandomSelect picks k items uniformly at random (the ablation baseline for
// DPP sampling).
func RandomSelect(n, k int, rng *rand.Rand) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := rng.Perm(n)[:k]
	sort.Ints(perm)
	return perm
}
