package autodiff

// The tape arena makes repeated forward/backward passes allocation-free in
// steady state (DESIGN.md §8). Every intermediate the ops create — tensor
// headers and their element storage, Value nodes, index/scratch slices — is
// bump-allocated from per-tape slabs, and Tape.Reset rewinds all of them in
// O(1). Tensors of any shape are carved from the same element slab as the
// scalar scratch, so a pass whose shapes drift from the previous one reuses
// the same memory, and an arena retains what its largest pass needed, not
// what every shape it ever saw needed.
//
// The arena is single-threaded by design: allocation happens only at
// op-issue and backward time, both of which run on the caller's goroutine.
// Parallel kernel chunks never allocate from it.

// slabMinChunk is the smallest chunk a slab allocates, in entries.
const slabMinChunk = 256

// slab is a chunked bump-pointer allocator. A request that does not fit the
// current chunk moves on to the next retained chunk that holds it, or to a
// new chunk at least as large as everything retained so far; chunks are
// never freed, moved or copied, so slices and element pointers handed out
// stay valid until reset rewinds to the first chunk. Doubling the retained
// total bounds a slab at a small multiple of its largest pass.
type slab[T any] struct {
	chunks [][]T
	ci     int // chunk being filled
	cur    int // entries used in that chunk
	total  int // entries retained across all chunks
}

// take returns the next n entries, holding whatever the previous pass left
// there.
func (s *slab[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	for ; s.ci < len(s.chunks); s.ci, s.cur = s.ci+1, 0 {
		if c := s.chunks[s.ci]; s.cur+n <= len(c) {
			out := c[s.cur : s.cur+n : s.cur+n]
			s.cur += n
			return out
		}
	}
	c := make([]T, max(n, s.total, slabMinChunk))
	s.chunks = append(s.chunks, c)
	s.total += len(c)
	s.cur = n
	return c[:n:n]
}

func (s *slab[T]) takeZeroed(n int) []T {
	out := s.take(n)
	clear(out)
	return out
}

func (s *slab[T]) reset() { s.ci, s.cur = 0, 0 }

// arena is the per-tape allocation pool. Zero value is ready to use.
type arena[T Float] struct {
	scalars slab[T] // tensor element storage and scalar scratch
	tensors slab[TensorOf[T]]
	values  slab[ValueOf[T]]
	ints    slab[int]
	vals    slab[*ValueOf[T]]
	edges   slab[edgeAttnArgs[T]] // EdgeAttention launches kept for backward

	// Plain (non-atomic) observability counters: the arena is
	// single-threaded by design, and readers sample them between passes via
	// Tape.ArenaStats. Keeping them raw uint64s costs one increment per
	// tensor request and preserves the 0-allocs/op steady state.
	reused    uint64 // tensor requests served from retained chunks
	allocated uint64 // tensor requests that grew the element slab
	resets    uint64 // reset() calls (one per pass in steady state)
}

// tensorRaw returns a rows x cols tensor whose elements still hold whatever
// the previous pass left in that storage. Only for op results whose forward
// kernel stores every element before any read; accumulating kernels
// (scatter-add) and gradient buffers must use tensor.
func (a *arena[T]) tensorRaw(rows, cols int) *TensorOf[T] {
	grown := len(a.scalars.chunks)
	t := &a.tensors.take(1)[0]
	*t = TensorOf[T]{Rows: rows, Cols: cols, Data: a.scalars.take(rows * cols)}
	if len(a.scalars.chunks) != grown {
		a.allocated++
	} else {
		a.reused++
	}
	return t
}

// tensor returns a zeroed rows x cols tensor: the kernels rely on
// zero-initialised outputs (gemm accumulates rows in place, scatter adds
// into zeros).
func (a *arena[T]) tensor(rows, cols int) *TensorOf[T] {
	t := a.tensorRaw(rows, cols)
	clear(t.Data)
	return t
}

// value returns a zeroed Value. The pointer stays valid until the tape is
// garbage; reset only recycles the storage for reuse.
func (a *arena[T]) value() *ValueOf[T] {
	v := &a.values.take(1)[0]
	*v = ValueOf[T]{}
	return v
}

// keep copies a caller's operand list into the arena, so ops can hold it
// past the call (and hand it to parallel chunks) without forcing the
// caller's slice to the heap.
func (a *arena[T]) keep(vs []*ValueOf[T]) []*ValueOf[T] {
	out := a.vals.take(len(vs))
	copy(out, vs)
	return out
}

// reset rewinds every slab. Callers must drop all references obtained since
// the previous reset: the next pass hands the same memory out again.
func (a *arena[T]) reset() {
	a.scalars.reset()
	a.tensors.reset()
	a.values.reset()
	a.ints.reset()
	a.vals.reset()
	a.edges.reset()
	a.resets++
}
