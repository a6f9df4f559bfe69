package autodiff

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sate/internal/obs"
	"sate/internal/par"
)

// edgeAttnCase is one EdgeAttention input: a relation, the per-head
// projections and attention vectors (attn nil = uniform) and the self term.
type edgeAttnCase[T Float] struct {
	dst, src, eIdx       []int // eIdx nil: hE has one row per edge
	self                 *TensorOf[T]
	hDst, hSrc, hE, attn []*TensorOf[T]
	slope                T
}

// randEdgeAttnCase draws a case over the given relation with nFeat distinct
// edge-feature rows (0: one row per edge, no eIdx).
func randEdgeAttnCase[T Float](rng *rand.Rand, dst, src []int, nDst, nSrc, nFeat, heads, dh int, uniform bool) edgeAttnCase[T] {
	c := edgeAttnCase[T]{dst: dst, src: src, slope: 0.2}
	eRows := len(dst)
	if nFeat > 0 {
		eRows = nFeat
		c.eIdx = make([]int, len(dst))
		for e := range c.eIdx {
			c.eIdx[e] = rng.Intn(nFeat)
		}
	}
	c.self = NewTensorOf[T](nDst, heads*dh).Randn(rng, 1)
	for k := 0; k < heads; k++ {
		c.hDst = append(c.hDst, NewTensorOf[T](nDst, dh).Randn(rng, 1))
		c.hSrc = append(c.hSrc, NewTensorOf[T](nSrc, dh).Randn(rng, 1))
		c.hE = append(c.hE, NewTensorOf[T](eRows, dh).Randn(rng, 1))
		if !uniform {
			c.attn = append(c.attn, NewTensorOf[T](3*dh, 1).Randn(rng, 1))
		}
	}
	return c
}

func consts[T Float](tp *TapeOf[T], ts []*TensorOf[T]) []*ValueOf[T] {
	vs := make([]*ValueOf[T], len(ts))
	for i, t := range ts {
		vs[i] = tp.Const(t)
	}
	return vs
}

// fused runs the case through the one kernel.
func (c edgeAttnCase[T]) fused(tp *TapeOf[T]) *ValueOf[T] {
	return tp.EdgeAttention(tp.Const(c.self), consts(tp, c.hDst), consts(tp, c.hSrc), consts(tp, c.hE), consts(tp, c.attn), c.eIdx, c.dst, c.src, c.slope)
}

// composed spells the case with the ops a gradient tape issues: per head
// Gather -> GatherConcat -> MatMul -> LeakyReLU -> Add -> SegmentAttention,
// then Concat -> Add -> LeakyReLU.
func (c edgeAttnCase[T]) composed(tp *TapeOf[T]) *ValueOf[T] {
	var heads []*ValueOf[T]
	for k := range c.hSrc {
		hE := tp.Const(c.hE[k])
		if c.eIdx != nil {
			hE = tp.Gather(hE, c.eIdx)
		}
		gSrc := tp.Gather(tp.Const(c.hSrc[k]), c.src)
		score := tp.Const(tp.Zeros(len(c.dst), 1))
		if c.attn != nil {
			cat := tp.GatherConcat(tp.Const(c.hDst[k]), c.dst, gSrc, nil, hE)
			score = tp.LeakyReLU(tp.MatMul(cat, tp.Const(c.attn[k])), c.slope)
		}
		heads = append(heads, tp.SegmentAttention(score, tp.Add(gSrc, hE), c.dst, c.self.Rows))
	}
	return tp.LeakyReLU(tp.Add(tp.Const(c.self), tp.Concat(heads...)), c.slope)
}

// requireFusedEqualsComposed runs both spellings on inference tapes and
// requires the same bits.
func (c edgeAttnCase[T]) requireFusedEqualsComposed(t *testing.T, what string) {
	t.Helper()
	got := c.fused(NewInferenceTapeOf[T]()).Val.Data
	want := c.composed(NewInferenceTapeOf[T]()).Val.Data
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, composed %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(f64(got[i])) != math.Float64bits(f64(want[i])) {
			t.Fatalf("%s: fused output[%d] = %v, composed %v", what, i, got[i], want[i])
		}
	}
}

func testEdgeAttentionMatchesComposed[T Float](t *testing.T) {
	const nDst, nSrc, nEdge, heads, dh = 700, 90, 3500, 2, 5
	rng := rand.New(rand.NewSource(31))
	// Unsorted destinations over two thirds of the nodes: the rest are
	// isolated (zero in-edges) and must come out as LeakyReLU(self). Node 1
	// has exactly one in-edge.
	dst := make([]int, nEdge)
	src := make([]int, nEdge)
	for e := range dst {
		dst[e] = 3 * (1 + rng.Intn(nDst/3-1))
		if rng.Intn(2) == 0 {
			dst[e]++
		}
		src[e] = rng.Intn(nSrc)
	}
	dst[nEdge/2] = 1
	for _, nFeat := range []int{0, 17} {
		for _, uniform := range []bool{false, true} {
			c := randEdgeAttnCase[T](rng, dst, src, nDst, nSrc, nFeat, heads, dh, uniform)
			for _, w := range []int{1, 2, 3, 8} {
				restore := par.SetWorkers(w)
				c.requireFusedEqualsComposed(t, fmt.Sprintf("nFeat=%d uniform=%v workers=%d", nFeat, uniform, w))
				restore()
			}
			out := c.fused(NewInferenceTapeOf[T]()).Val
			for j := 0; j < heads*dh; j++ {
				want := c.self.At(2, j)
				if want < 0 {
					want *= c.slope
				}
				if got := out.At(2, j); math.Float64bits(f64(got)) != math.Float64bits(f64(want)) {
					t.Fatalf("isolated node: out[2][%d] = %v, want LeakyReLU(self) = %v", j, got, want)
				}
			}
		}
	}
}

// TestEdgeAttentionMatchesComposed pins the inference kernel to the composed
// graph bit for bit, in both dtypes and at four worker counts, with and
// without edge-feature dedup, with learned and uniform attention.
func TestEdgeAttentionMatchesComposed(t *testing.T) {
	t.Run("float64", testEdgeAttentionMatchesComposed[float64])
	t.Run("float32", testEdgeAttentionMatchesComposed[float32])
}

// FuzzEdgeAttention decodes bytes into a small relation — sizes, edge
// endpoints and every value on a coarse grid, so ties, zeros and sign flips
// are common — and requires fused and composed bits to agree in both dtypes.
// The seed corpus is testdata/fuzz/FuzzEdgeAttention.
func FuzzEdgeAttention(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzEdgeAttention[float64](t, data)
		fuzzEdgeAttention[float32](t, data)
	})
}

func fuzzEdgeAttention[T Float](t *testing.T, data []byte) {
	pos := 0
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[pos%len(data)]
		pos++
		return int(b)
	}
	nDst, nSrc := 1+next()%8, 1+next()%8
	heads, dh := 1+next()%3, 1+next()%5
	nEdge, flags := next()%32, next()
	nFeat := 0
	if flags&1 != 0 {
		nFeat = 1 + (flags>>2)%4
	}
	dst, src := make([]int, nEdge), make([]int, nEdge)
	for e := range dst {
		dst[e], src[e] = next()%nDst, next()%nSrc
	}
	c := randEdgeAttnCase[T](rand.New(rand.NewSource(1)), dst, src, nDst, nSrc, nFeat, heads, dh, flags&2 != 0)
	for _, ts := range [][]*TensorOf[T]{{c.self}, c.hDst, c.hSrc, c.hE, c.attn} {
		for _, tn := range ts {
			for i := range tn.Data {
				tn.Data[i] = T(int8(next())) / 16
			}
		}
	}
	for e := range c.eIdx {
		c.eIdx[e] = next() % nFeat
	}
	c.requireFusedEqualsComposed(t, "fuzz")
}

// TestEdgeAttentionZeroAllocs: a warm launch on a reset inference tape
// allocates nothing at one worker — the chunk function comes from opTable and
// the per-head operand lists from the arena.
func TestEdgeAttentionZeroAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race runtime perturbs alloc accounting (see obs.RaceEnabled)")
	}
	defer par.SetWorkers(1)()
	rng := rand.New(rand.NewSource(3))
	dst, src := make([]int, 400), make([]int, 400)
	for e := range dst {
		dst[e], src[e] = rng.Intn(50), rng.Intn(30)
	}
	c := randEdgeAttnCase[float64](rng, dst, src, 50, 30, 7, 2, 4, false)
	tp := NewInferenceTape()
	var hDst, hSrc, hE, attn [2]*Value
	run := func() {
		tp.Reset()
		for k := range hSrc {
			hDst[k], hSrc[k], hE[k], attn[k] = tp.Const(c.hDst[k]), tp.Const(c.hSrc[k]), tp.Const(c.hE[k]), tp.Const(c.attn[k])
		}
		tp.EdgeAttention(tp.Const(c.self), hDst[:], hSrc[:], hE[:], attn[:], c.eIdx, c.dst, c.src, c.slope)
	}
	run()
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("warm EdgeAttention allocates %v objects/op, want 0", n)
	}
}

// TestEdgeAttentionRejectsBadInput: shape and index errors panic at issue
// time, like the neighbouring ops, and so does a gradient tape.
func TestEdgeAttentionRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	good := func() edgeAttnCase[float64] {
		return randEdgeAttnCase[float64](rng, []int{0, 1, 1}, []int{2, 0, 1}, 2, 3, 2, 2, 3, false)
	}
	for name, breakIt := range map[string]func(c *edgeAttnCase[float64]){
		"attention vector not 3dh x 1": func(c *edgeAttnCase[float64]) { c.attn[1] = NewTensor(3*3, 2) },
		"dst and src lengths differ":   func(c *edgeAttnCase[float64]) { c.src = c.src[:2] },
		"eIdx length":                  func(c *edgeAttnCase[float64]) { c.eIdx = c.eIdx[:2] },
		"eIdx out of range":            func(c *edgeAttnCase[float64]) { c.eIdx[1] = 2 },
		"dst out of range":             func(c *edgeAttnCase[float64]) { c.dst = []int{0, 2, 1} },
		"src out of range":             func(c *edgeAttnCase[float64]) { c.src = []int{0, -1, 1} },
		"no eIdx, hE not per edge":     func(c *edgeAttnCase[float64]) { c.eIdx = nil },
		"head count mismatch":          func(c *edgeAttnCase[float64]) { c.hE = c.hE[:1] },
		"hSrc width":                   func(c *edgeAttnCase[float64]) { c.hSrc[1] = NewTensor(3, 4) },
		"hDst rows":                    func(c *edgeAttnCase[float64]) { c.hDst[0] = NewTensor(3, 3) },
		"self width":                   func(c *edgeAttnCase[float64]) { c.self = NewTensor(2, 5) },
	} {
		c := good()
		breakIt(&c)
		requirePanic(t, name, func() { c.fused(NewInferenceTape()) })
	}
	c := good()
	requirePanic(t, "gradient tape", func() { c.fused(NewTape()) })
	c.fused(NewInferenceTape())
}

func requirePanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	f()
}
