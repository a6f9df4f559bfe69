package par

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestForCoversRange checks every index is visited exactly once, at any
// worker count and grain.
func TestForCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		for _, n := range []int{0, 1, 5, 64, 1000} {
			for _, grain := range []int{0, 1, 3, 64, 2000} {
				restore := SetWorkers(workers)
				visits := make([]int32, n)
				For(n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo > hi {
						t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&visits[i], 1)
					}
				})
				restore()
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d visited %d times", workers, n, grain, i, v)
					}
				}
			}
		}
	}
}

// TestForLayoutFixed checks the chunk layout depends only on (n, grain),
// not the worker count: every parallel chunk starts at a multiple of grain
// and spans grain items (the last one the remainder).
func TestForLayoutFixed(t *testing.T) {
	for _, workers := range []int{2, 4} {
		restore := SetWorkers(workers)
		var mu sync32
		out := make(map[int][2]int)
		For(100, 7, func(lo, hi int) {
			mu.Lock()
			out[lo/7] = [2]int{lo, hi}
			mu.Unlock()
		})
		restore()
		if len(out) != NumChunks(100, 7) {
			t.Fatalf("workers=%d: %d chunks, want %d", workers, len(out), NumChunks(100, 7))
		}
		for c, bounds := range out {
			if want := [2]int{7 * c, min(7*c+7, 100)}; bounds != want {
				t.Errorf("workers=%d: chunk %d spans %v, want %v", workers, c, bounds, want)
			}
		}
	}
}

// TestForErrContract: every chunk runs even when an earlier one fails, and
// the returned error is the lowest-indexed failing chunk's, at any worker
// count.
func TestForErrContract(t *testing.T) {
	const n, grain = 100, 7
	for _, workers := range []int{1, 2, 8} {
		restore := SetWorkers(workers)
		var ran [n]atomic.Int32
		err := ForErr(n, grain, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				ran[i].Add(1)
			}
			if c := lo / grain; c == 3 || c == 9 {
				return fmt.Errorf("chunk %d [%d,%d)", c, lo, hi)
			}
			return nil
		})
		restore()
		if err == nil || err.Error() != "chunk 3 [21,28)" {
			t.Fatalf("workers=%d: error %v, want chunk 3's", workers, err)
		}
		for i := range ran {
			if v := ran[i].Load(); v != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, v)
			}
		}
	}
}

// sync32 is a tiny spinlock so the test has no import-order noise.
type sync32 struct{ v atomic.Int32 }

func (s *sync32) Lock() {
	for !s.v.CompareAndSwap(0, 1) {
	}
}
func (s *sync32) Unlock() { s.v.Store(0) }

func TestSerialPathRunsInline(t *testing.T) {
	restore := SetWorkers(1)
	defer restore()
	calls := 0
	For(10, 3, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Errorf("serial path should get one chunk [0,10), got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("serial path called fn %d times, want 1", calls)
	}
}

func TestSetWorkersRestore(t *testing.T) {
	base := Workers()
	restore := SetWorkers(3)
	if Workers() != 3 {
		t.Errorf("Workers() = %d after SetWorkers(3)", Workers())
	}
	restore()
	if Workers() != base {
		t.Errorf("Workers() = %d after restore, want %d", Workers(), base)
	}
}

func TestGrain(t *testing.T) {
	restore := SetWorkers(4)
	defer restore()
	if g := Grain(1000, 1); g < 1 || g > 1000 {
		t.Errorf("Grain(1000,1) = %d out of range", g)
	}
	// min floor respected
	if g := Grain(1000, 200); g != 200 {
		t.Errorf("Grain(1000,200) = %d, want 200", g)
	}
	restore2 := SetWorkers(1)
	defer restore2()
	if g := Grain(1000, 1); g != 1000 {
		t.Errorf("single worker should yield one chunk, got grain %d", g)
	}
}

// TestForParallelWrites exercises concurrent disjoint writes under the race
// detector.
func TestForParallelWrites(t *testing.T) {
	restore := SetWorkers(8)
	defer restore()
	n := 10000
	out := make([]float64, n)
	For(n, 16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = float64(i) * 2
		}
	})
	for i, v := range out {
		if v != float64(i)*2 {
			t.Fatalf("out[%d] = %v", i, v)
		}
	}
}
