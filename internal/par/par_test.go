package par

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
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

// checkChunks records the chunks one For hands out and checks them against
// the fixed layout: every index of [0, n) in exactly one call, and above one
// worker each call exactly chunk lo/grain's bounds.
type checkChunks struct {
	n, grain int
	visits   []atomic.Int32
	bad      atomic.Int32
}

func newCheckChunks(n, grain int) *checkChunks {
	return &checkChunks{n: n, grain: grain, visits: make([]atomic.Int32, n)}
}

func (c *checkChunks) chunk(lo, hi int) {
	if c.n > 0 && Workers() > 1 && (lo%c.grain != 0 || hi != min(lo+c.grain, c.n)) {
		c.bad.Add(1)
	}
	for i := lo; i < hi; i++ {
		c.visits[i].Add(1)
	}
}

func (c *checkChunks) check(t *testing.T, what string) {
	t.Helper()
	if b := c.bad.Load(); b != 0 {
		t.Errorf("%s: %d chunks off the (n=%d, grain=%d) layout", what, b, c.n, c.grain)
	}
	for i := range c.visits {
		if v := c.visits[i].Load(); v != 1 {
			t.Fatalf("%s: index %d visited %d times", what, i, v)
		}
	}
}

// TestForNested: a For inside a For chunk finds the pool taken and runs
// its chunks on the enclosing chunk's goroutine, with the same layout.
func TestForNested(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		restore := SetWorkers(workers)
		const outerN, outerGrain = 12, 2
		outer := newCheckChunks(outerN, outerGrain)
		inner := make([]*checkChunks, outerN)
		for i := range inner {
			inner[i] = newCheckChunks(50+i, 3)
		}
		For(outerN, outerGrain, func(lo, hi int) {
			outer.chunk(lo, hi)
			for i := lo; i < hi; i++ {
				For(inner[i].n, inner[i].grain, inner[i].chunk)
			}
		})
		restore()
		outer.check(t, fmt.Sprintf("workers=%d outer", workers))
		for i, c := range inner {
			c.check(t, fmt.Sprintf("workers=%d inner %d", workers, i))
		}
	}
}

// TestForConcurrent: top-level For calls from several goroutines at once —
// one owns the pool, the others run inline — each still covers its range
// once with the fixed layout.
func TestForConcurrent(t *testing.T) {
	restore := SetWorkers(4)
	defer restore()
	const callers, rounds = 8, 50
	checks := make([]*checkChunks, callers*rounds)
	for i := range checks {
		checks[i] = newCheckChunks(100+i%17, 1+i%5)
	}
	done := make(chan struct{})
	for g := 0; g < callers; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for r := 0; r < rounds; r++ {
				c := checks[g*rounds+r]
				For(c.n, c.grain, c.chunk)
			}
		}()
	}
	for g := 0; g < callers; g++ {
		<-done
	}
	for i, c := range checks {
		c.check(t, fmt.Sprintf("call %d", i))
	}
}

// TestForBudgetChanges: the budget moving between calls (helpers started
// for 8, then only one wanted at 2) changes nothing about coverage or
// layout.
func TestForBudgetChanges(t *testing.T) {
	for _, workers := range []int{1, 8, 2, 8, 1, 2} {
		restore := SetWorkers(workers)
		for _, grain := range []int{1, 7, 64} {
			c := newCheckChunks(500, grain)
			For(c.n, c.grain, c.chunk)
			c.check(t, fmt.Sprintf("workers=%d grain=%d", workers, grain))
		}
		restore()
	}
}

// TestHelpersAreReused: dispatches reuse the pool's helpers instead of
// starting goroutines.
func TestHelpersAreReused(t *testing.T) {
	restore := SetWorkers(4)
	defer restore()
	var sink atomic.Int64
	dispatch := func() {
		For(64, 1, func(lo, hi int) { sink.Add(int64(hi - lo)) })
	}
	dispatch() // start the helpers
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		dispatch()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew from %d to %d over 1000 dispatches", before, after)
	}
	if got := sink.Load(); got != 1001*64 {
		t.Errorf("chunks covered %d indices, want %d", got, 1001*64)
	}
}

func addChunk(dst []int64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i]++
	}
}

// TestForCtxZeroAllocs: a parallel ForCtx dispatch allocates nothing once
// the helpers run (DESIGN.md §8).
func TestForCtxZeroAllocs(t *testing.T) {
	restore := SetWorkers(2)
	defer restore()
	dst := make([]int64, 256)
	allocs := testing.AllocsPerRun(200, func() {
		ForCtx(len(dst), 16, dst, addChunk)
	})
	if allocs != 0 {
		t.Errorf("ForCtx at 2 workers: %v allocs per dispatch, want 0", allocs)
	}
	for i, v := range dst {
		if v != 201 {
			t.Fatalf("dst[%d] = %d, want 201", i, v)
		}
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Skipf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestIdleHelpersPark: after the spin window the helpers park, so an idle
// process burns no CPU on them.
func TestIdleHelpersPark(t *testing.T) {
	restore := SetWorkers(8)
	defer restore()
	var sink atomic.Int64
	for i := 0; i < 100; i++ {
		For(64, 1, func(lo, hi int) { sink.Add(int64(hi - lo)) })
	}
	time.Sleep(20 * spinWindow)
	before := cpuTime(t)
	const idle = 300 * time.Millisecond
	time.Sleep(idle)
	// Seven spinning helpers would burn up to 7 × idle; parked ones nothing.
	if used := cpuTime(t) - before; used > idle/10 {
		t.Errorf("%v of CPU over %v idle after the last For", used, idle)
	}
}

// goid is the calling goroutine's id, read from its stack header.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestOwnerParksWhileHelpersWork: a caller that has run out of chunks while
// a helper is still in a long one parks instead of spinning.
func TestOwnerParksWhileHelpersWork(t *testing.T) {
	restore := SetWorkers(2)
	defer restore()
	For(2, 1, func(lo, hi int) {}) // start the helper
	const long = 300 * time.Millisecond
	caller := goid()
	var arrived sync.WaitGroup
	arrived.Add(2)
	before := cpuTime(t)
	For(2, 1, func(lo, hi int) {
		// Both chunks run at once, so one is on the helper.
		arrived.Done()
		arrived.Wait()
		if goid() != caller {
			time.Sleep(long)
		}
	})
	if used := cpuTime(t) - before; used > long/4 {
		t.Errorf("%v of CPU while the caller waited %v for the helper", used, long)
	}
}

// BenchmarkParDispatch is the cost of one dispatch of two trivial chunks:
// the serial fast path at -cpu 1, a pool dispatch at -cpu 2.
func BenchmarkParDispatch(b *testing.B) {
	dst := make([]int64, 2)
	ForCtx(len(dst), 1, dst, addChunk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForCtx(len(dst), 1, dst, addChunk)
	}
}
