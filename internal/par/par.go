// Package par is the shared parallel-compute layer: a chunked parallel-for
// over a process-wide worker budget. The hot kernels of the repo (autodiff
// matmul/softmax rows, k-shortest-path fan-out across src/dst pairs,
// per-cell experiment sweeps) are embarrassingly parallel over disjoint
// output ranges; par.For runs them across cores while keeping results
// bitwise-deterministic.
//
// Determinism contract: For(n, grain, fn) partitions [0, n) into fixed
// contiguous chunks of size grain. Chunk boundaries depend only on (n,
// grain), never on the worker count or scheduling, so a kernel whose chunks
// write disjoint outputs (the only kind used here) produces bitwise
// identical results for every worker count — including 1, where For degrades
// to a plain loop with no goroutines. A kernel that needs a per-chunk slot
// (a partial, an error) indexes it by lo/grain — chunk boundaries are
// multiples of grain — and merges the slots in chunk order (see ForErr).
//
// Worker budget: GOMAXPROCS by default, overridden by the SATE_WORKERS
// environment variable (useful to pin tests and reproduce training runs),
// or programmatically by SetWorkers.
package par

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"sate/internal/obs"
)

// workerOverride > 0 replaces the default worker budget.
var workerOverride atomic.Int64

// poolMetrics holds the pre-resolved obs handles for the worker pool. It is
// swapped atomically as a unit so instrumented dispatches never see a
// half-installed set.
type poolMetrics struct {
	serial   *obs.Counter // kernel calls taken on the serial fast path
	dispatch *obs.Counter // parallel dispatches (goroutine fan-outs)
	chunks   *obs.Counter // chunks processed by parallel dispatches
	inflight *obs.Gauge   // workers currently running (queue utilisation)
}

// metrics is nil when the pool is uninstrumented — the common case, checked
// with one atomic load per For call.
var metrics atomic.Pointer[poolMetrics]

// Observe installs pool instrumentation on a registry: dispatch/serial-path
// counters, processed-chunk counts and an in-flight worker gauge
// (sate_par_* — DESIGN.md §9). A nil registry uninstalls instrumentation.
// Counter updates are single atomic adds, so enabling this does not change
// the pool's allocation behaviour (TestTapeReuseZeroAllocs passes with it
// on).
func Observe(r *obs.Registry) {
	if r == nil {
		metrics.Store(nil)
		return
	}
	metrics.Store(&poolMetrics{
		serial:   r.Counter("sate_par_serial_total"),
		dispatch: r.Counter("sate_par_dispatch_total"),
		chunks:   r.Counter("sate_par_chunks_total"),
		inflight: r.Gauge("sate_par_inflight_workers"),
	})
}

func init() {
	if s := os.Getenv("SATE_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			workerOverride.Store(int64(n))
		}
	}
}

// Workers returns the current worker budget: SetWorkers override if set,
// else SATE_WORKERS, else GOMAXPROCS.
func Workers() int {
	if n := workerOverride.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers overrides the worker budget (n <= 0 restores the default) and
// returns a func that restores the previous setting. Intended for tests:
//
//	defer par.SetWorkers(1)()
func SetWorkers(n int) (restore func()) {
	prev := workerOverride.Load()
	if n <= 0 {
		workerOverride.Store(0)
	} else {
		workerOverride.Store(int64(n))
	}
	return func() { workerOverride.Store(prev) }
}

// numChunks returns how many grain-sized chunks cover n items.
func numChunks(n, grain int) int { return (n + grain - 1) / grain }

// For runs fn over [0, n) in contiguous chunks of at most grain items.
// fn(lo, hi) must only touch state owned by rows [lo, hi); under that
// contract the result is bitwise identical for every worker count. With one
// worker (or a single chunk) fn runs inline on the caller's goroutine —
// no goroutines, no synchronisation, zero overhead over a plain loop.
//
// The fn closure itself is a heap allocation at the call site (it escapes
// into the worker goroutines). Steady-state allocation-free kernels use
// ForCtx with a static function instead.
func For(n, grain int, fn func(lo, hi int)) {
	ForCtx(n, grain, fn, callChunk)
}

func callChunk(fn func(lo, hi int), lo, hi int) { fn(lo, hi) }

// ForCtx is For for closure-free kernels: fn must be a static (top-level)
// function and all per-call state travels in ctx, so the call site performs
// no heap allocation. The only allocating path is goroutine dispatch itself,
// which is taken when more than one worker actually runs — with a single
// worker or a single chunk the kernel is allocation-free. Same determinism
// contract as For.
func ForCtx[T any](n, grain int, ctx T, fn func(ctx T, lo, hi int)) {
	if n <= 0 {
		return
	}
	// No parameter of this function may be reassigned: a reassigned-and-
	// goroutine-captured variable is captured by reference, which forces a
	// heap allocation in the prologue of EVERY call — including the serial
	// fast path. That is why the dispatch loop lives in a separate function.
	g := max(grain, 1)
	chunks := numChunks(n, g)
	workers := min(Workers(), chunks)
	if workers <= 1 {
		if m := metrics.Load(); m != nil {
			m.serial.Inc()
		}
		fn(ctx, 0, n)
		return
	}
	forCtxParallel(n, g, chunks, workers, ctx, fn)
}

// forCtxParallel is the goroutine-dispatch path of ForCtx. Kept noinline so
// its closure captures cannot leak escape decisions into ForCtx's serial
// fast path.
//
//go:noinline
func forCtxParallel[T any](n, grain, chunks, workers int, ctx T, fn func(ctx T, lo, hi int)) {
	if m := metrics.Load(); m != nil {
		m.dispatch.Inc()
		m.chunks.Add(uint64(chunks))
		m.inflight.Add(float64(workers))
		defer m.inflight.Add(-float64(workers))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				lo := c * grain
				hi := lo + grain
				if hi > n {
					hi = n
				}
				fn(ctx, lo, hi)
			}
		}()
	}
	wg.Wait()
}

// ForErr is For for fallible kernels: fn may return an error per chunk, and
// ForErr returns the error of the lowest-indexed failing chunk (or nil). The
// chunk layout is fixed by (n, grain), every chunk runs regardless of other
// chunks' failures, and the winning error is selected by chunk index — so the
// returned error is deterministic for every worker count, unlike a
// first-to-fail race.
func ForErr(n, grain int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	g := max(grain, 1)
	errs := make([]error, numChunks(n, g))
	For(n, g, func(lo, hi int) {
		// The serial path hands over [0, n) in one call; split it so fn
		// still sees one chunk per call at any worker count.
		for c := lo; c < hi; c += g {
			errs[c/g] = fn(c, min(c+g, hi))
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// NumChunks returns the number of chunks For will use for (n, grain) — the
// size callers need for per-chunk buffers.
func NumChunks(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain <= 0 {
		grain = 1
	}
	return numChunks(n, grain)
}

// Grain picks a chunk size for n items that yields a few chunks per worker
// (for load balance) while never going below min items per chunk (so cheap
// rows amortise the dispatch overhead).
func Grain(n, min int) int {
	if min < 1 {
		min = 1
	}
	w := Workers()
	if w <= 1 || n <= min {
		return n // single chunk -> serial fast path
	}
	g := n / (4 * w)
	if g < min {
		g = min
	}
	return g
}
