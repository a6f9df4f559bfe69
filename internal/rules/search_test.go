package rules

import (
	"math/rand"
	"sort"
	"testing"

	"sate/internal/topology"
)

// TestSearchFromAnyGuess: search finds the same index as a plain lower-bound
// bisection, for keys before, between, on and after a table's rules, from
// every guess — Verify's guess is only a hint and may lie on either side.
func TestSearchFromAnyGuess(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 7, 40, 144} { // 144: every key drawn
		var r []Rule
		seen := map[Rule]bool{}
		for len(r) < n {
			k := Rule{Flow: FlowKey{Src: topology.NodeID(rng.Intn(6)), Dst: topology.NodeID(rng.Intn(6))}, Label: rng.Intn(4)}
			if !seen[k] {
				seen[k] = true
				r = append(r, k)
			}
		}
		sort.Slice(r, func(i, j int) bool { return CompareKey(r[i], r[j]) < 0 })
		for src := -1; src <= 6; src++ {
			for dst := -1; dst <= 6; dst++ {
				for label := -1; label <= 4; label++ {
					k := Rule{Flow: FlowKey{Src: topology.NodeID(src), Dst: topology.NodeID(dst)}, Label: label}
					want := sort.Search(len(r), func(i int) bool { return CompareKey(r[i], k) >= 0 })
					for from := 0; from <= len(r); from++ {
						if got := search(r, from, k.Flow, label); got != want {
							t.Fatalf("%d rules, key %v label %d, from %d: index %d, want %d", n, k.Flow, label, from, got, want)
						}
					}
				}
			}
		}
	}
}
