// Package par is the shared parallel-compute layer: a chunked parallel-for
// over a process-wide worker budget. The hot kernels of the repo (autodiff
// matmul/softmax rows, k-shortest-path fan-out across src/dst pairs, rule
// verification and diffing, per-cell experiment sweeps) are embarrassingly
// parallel over disjoint output ranges; par.For runs them across cores while
// keeping results bitwise-deterministic.
//
// Determinism contract: For(n, grain, fn) partitions [0, n) into fixed
// contiguous chunks of size grain. Chunk boundaries depend only on (n,
// grain), never on the worker count or scheduling, so a kernel whose chunks
// write disjoint outputs (the only kind used here) produces bitwise
// identical results for every worker count — including 1, where For degrades
// to a plain loop. A kernel that needs a per-chunk slot (a partial, an
// error) indexes it by lo/grain — chunk boundaries are multiples of grain —
// and merges the slots in chunk order (see ForErr).
//
// Pool: above one worker, For runs on one process-wide pool of persistent
// helper goroutines, started on first use, one fewer than the budget. The
// calling goroutine publishes the job, works on chunks itself alongside the
// helpers, and returns once the last chunk is done. A helper spins for
// spinWindow after a job, so the next dispatch of a solve finds it awake,
// then parks. The pool runs one For at a time: a For that finds it taken —
// nested in another For's chunk, or called concurrently from another
// goroutine — runs its chunks on its own goroutine, in order, with the same
// layout.
//
// Worker budget: GOMAXPROCS by default, overridden by the SATE_WORKERS
// environment variable (useful to pin tests and reproduce training runs),
// or programmatically by SetWorkers.
package par

import (
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"sate/internal/obs"
)

// workerOverride > 0 replaces the default worker budget.
var workerOverride atomic.Int64

// poolMetrics holds the pre-resolved obs handles for the worker pool. It is
// swapped atomically as a unit so instrumented dispatches never see a
// half-installed set.
type poolMetrics struct {
	serial   *obs.Counter // calls run on the caller's goroutine alone
	dispatch *obs.Counter // dispatches run on the pool
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
// no synchronisation, zero overhead over a plain loop.
//
// The fn closure itself is a heap allocation at the call site (it is
// handed to the helpers). Steady-state allocation-free kernels use ForCtx
// with a static function instead.
func For(n, grain int, fn func(lo, hi int)) {
	ForCtx(n, grain, fn, callChunk)
}

func callChunk(fn func(lo, hi int), lo, hi int) { fn(lo, hi) }

// ForCtx is For for closure-free kernels: fn must be a static (top-level)
// function and all per-call state travels in ctx, so the call site performs
// no heap allocation. The dispatch allocates nothing either, at any worker
// count, once the helpers are running and ctx's type has been dispatched
// once. Same determinism contract as For.
func ForCtx[T any](n, grain int, ctx T, fn func(ctx T, lo, hi int)) {
	if n <= 0 {
		return
	}
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

// forCtxParallel is the pool path of ForCtx. Kept out of line so ForCtx,
// the serial fast path, stays small enough to inline into its callers.
//
//go:noinline
func forCtxParallel[T any](n, grain, chunks, workers int, ctx T, fn func(ctx T, lo, hi int)) {
	p := &thePool
	if !p.busy.CompareAndSwap(false, true) {
		// The pool is running another For: an enclosing one (this call is
		// nested in one of its chunks) or a concurrent top-level one. Run
		// the chunks here, in order; the layout is the same, so are the
		// results.
		if m := metrics.Load(); m != nil {
			m.serial.Inc()
		}
		for lo := 0; lo < n; lo += grain {
			fn(ctx, lo, min(lo+grain, n))
		}
		return
	}
	if m := metrics.Load(); m != nil {
		m.dispatch.Inc()
		m.chunks.Add(uint64(chunks))
		m.inflight.Add(float64(workers))
		defer m.inflight.Add(-float64(workers))
	}
	j := jobFor[T](p)
	j.ctx, j.fn = ctx, fn
	p.open(j, n, grain, chunks, workers-1)
	defer p.close(j)
	p.work()
}

// jobFor returns the pool's job cell for chunk contexts of type T, made on
// the first dispatch of a T and reused after: handing the helpers the typed
// cell instead of boxing ctx into an interface is what keeps a dispatch
// allocation-free. Only the pool's owner calls it.
func jobFor[T any](p *pool) *job[T] {
	key := any((*T)(nil)) // one key per type, without boxing a T
	if r, ok := p.jobs[key]; ok {
		return r.(*job[T])
	}
	j := new(job[T])
	p.jobs[key] = j
	return j
}

// job is one ctx type's slot for the chunk function and context of the
// running dispatch.
type job[T any] struct {
	ctx T
	fn  func(ctx T, lo, hi int)
}

func (j *job[T]) run(lo, hi int) { j.fn(j.ctx, lo, hi) }

// clear drops the finished dispatch's context so the pool does not keep it
// reachable.
func (j *job[T]) clear() { *j = job[T]{} }

// runner is what the helpers see of a job.
type runner interface {
	run(lo, hi int)
	clear()
}

// spinWindow is how long a waiting goroutine of the pool polls before it
// parks: a helper waiting for the next job, or the owner waiting for the
// helpers to finish. A TE cycle's parallel kernels and stages are
// separated by serial stretches such as rules.Compile (~0.7 ms on
// solve-ring-396); a helper that spins this long stays awake across them
// instead of paying a thread wake-up per dispatch. Between cycles it parks
// and costs no CPU.
const spinWindow = time.Millisecond

// pool is the process's one set of helper goroutines. The goroutine that
// wins busy owns it for one dispatch: it publishes the job, works on the
// chunks itself, then closes the job and waits for the helpers that joined
// it to leave. Helpers are started on demand, up to the largest budget seen
// minus one, and never exit; a job names how many of them may join, so a
// budget lowered by SetWorkers is honoured.
type pool struct {
	busy atomic.Bool // held by the dispatching goroutine

	// state counts job openings and closings: odd while a job is open.
	// The job fields below are written by the owner only while no job is
	// open and read by a helper only after it has joined the open job.
	state  atomic.Uint64
	active atomic.Int32 // helpers inside the open job
	next   atomic.Int64 // next chunk index to hand out

	cur              runner
	n, grain, chunks int
	want             int // helpers that may join: ids 0..want-1

	owner   parking        // the owner, waiting for active to drain
	helpers []*parking     // owner-only: one per helper, by id
	jobs    map[any]runner // owner-only: jobFor's cells by ctx type
}

var thePool = pool{
	owner: parking{wake: make(chan struct{}, 1)},
	jobs:  make(map[any]runner),
}

// open publishes a job and wakes the parked helpers it wants.
func (p *pool) open(j runner, n, grain, chunks, want int) {
	for len(p.helpers) < want {
		h := &parking{wake: make(chan struct{}, 1)}
		p.helpers = append(p.helpers, h)
		go p.help(len(p.helpers)-1, h, p.state.Load())
	}
	p.cur, p.n, p.grain, p.chunks, p.want = j, n, grain, chunks, want
	p.next.Store(0)
	p.state.Add(1)
	for _, h := range p.helpers[:want] {
		h.unpark()
	}
}

// close ends the owner's dispatch. It also runs when a chunk on the owner
// panics: handing out stops, the helpers finish the chunks they took, and
// the pool is free for the next dispatch.
func (p *pool) close(j runner) {
	p.next.Store(int64(p.chunks))
	p.state.Add(1)
	drained := func() bool { return p.active.Load() == 0 }
	for !spin(drained) {
		p.owner.block(drained)
	}
	j.clear()
	p.cur = nil
	p.busy.Store(false)
}

// work runs chunks of the open job until none is left to hand out.
func (p *pool) work() {
	for {
		c := int(p.next.Add(1)) - 1
		if c >= p.chunks {
			return
		}
		lo := c * p.grain
		p.cur.run(lo, min(lo+p.grain, p.n))
	}
}

// help is helper id's loop: wait for a job newer than the last one seen,
// join it, repeat.
func (p *pool) help(id int, h *parking, seen uint64) {
	var s uint64
	opened := func() bool {
		s = p.state.Load()
		return s != seen && s&1 == 1
	}
	for {
		for !spin(opened) {
			h.block(opened)
		}
		seen = s
		p.active.Add(1)
		// Joined only if the job is still open: the owner closes it before
		// it waits for active to drain, so a helper that gets here late
		// leaves without touching the job fields.
		if p.state.Load() == seen && id < p.want {
			p.work()
		}
		if p.active.Add(-1) == 0 {
			p.owner.unpark()
		}
	}
}

// spin polls ready for spinWindow, yielding the processor now and then, and
// reports whether it turned true.
func spin(ready func() bool) bool {
	deadline := time.Now().Add(spinWindow)
	for i := 0; ; i++ {
		if ready() {
			return true
		}
		if i%64 == 63 {
			if time.Now().After(deadline) {
				return false
			}
			runtime.Gosched()
		}
	}
}

// parking is one goroutine's wake-up line: it announces that it is about to
// block, and whoever makes its condition true hands it a token.
type parking struct {
	parked atomic.Bool
	wake   chan struct{}
}

// block returns once ready holds or a token arrives, whichever is first;
// the caller re-checks its condition.
func (k *parking) block(ready func() bool) {
	k.parked.Store(true)
	if ready() {
		if !k.parked.CompareAndSwap(true, false) {
			<-k.wake // unpark saw the announcement and is sending
		}
		return
	}
	<-k.wake
}

// unpark wakes k if it is blocked or about to block.
func (k *parking) unpark() {
	if k.parked.CompareAndSwap(true, false) {
		k.wake <- struct{}{}
	}
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
