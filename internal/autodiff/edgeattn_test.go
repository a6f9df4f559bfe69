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

// edgeAttnOperands is a case's tensors wrapped as graph values.
type edgeAttnOperands[T Float] struct {
	self                 *ValueOf[T]
	hDst, hSrc, hE, attn []*ValueOf[T]
}

func (c edgeAttnCase[T]) operands(wrap func(*TensorOf[T]) *ValueOf[T]) edgeAttnOperands[T] {
	list := func(ts []*TensorOf[T]) []*ValueOf[T] {
		vs := make([]*ValueOf[T], len(ts))
		for i, t := range ts {
			vs[i] = wrap(t)
		}
		return vs
	}
	return edgeAttnOperands[T]{self: wrap(c.self), hDst: list(c.hDst), hSrc: list(c.hSrc), hE: list(c.hE), attn: list(c.attn)}
}

// fused runs the case through the one kernel.
func (c edgeAttnCase[T]) fused(tp *TapeOf[T], in edgeAttnOperands[T]) *ValueOf[T] {
	return tp.EdgeAttention(in.self, in.hDst, in.hSrc, in.hE, in.attn, c.eIdx, c.dst, c.src, c.slope)
}

// composed is the reference EdgeAttention is held to, forward and backward:
// the layer's edge-level tail spelled with the primitive ops, in the order the
// layer issued them before the kernel existed (the order fixes how each
// gradient buffer accumulates).
func (c edgeAttnCase[T]) composed(tp *TapeOf[T], in edgeAttnOperands[T]) *ValueOf[T] {
	nDst := c.self.Rows
	var heads []*ValueOf[T]
	for k := range c.hSrc {
		hE := in.hE[k]
		if c.eIdx != nil {
			hE = tp.Gather(hE, c.eIdx)
		}
		gSrc := tp.Gather(in.hSrc[k], c.src)
		score := tp.Const(tp.Zeros(len(c.dst), 1))
		if c.attn != nil {
			cat := tp.Concat(tp.Gather(in.hDst[k], c.dst), gSrc, hE)
			score = tp.LeakyReLU(tp.MatMul(cat, in.attn[k]), c.slope)
		}
		msg := tp.Add(gSrc, hE)
		alpha := tp.SegmentSoftmax(score, c.dst, nDst)
		heads = append(heads, tp.ScatterAddRows(tp.MulColBroadcast(msg, alpha), c.dst, nDst))
	}
	agg := heads[0]
	if len(heads) > 1 {
		agg = tp.Concat(heads...)
	}
	return tp.LeakyReLU(tp.Add(in.self, agg), c.slope)
}

func requireSameBits[T Float](t *testing.T, what string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, composed %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s[%d]: fused %v, composed %v", what, i, got[i], want[i])
		}
	}
}

// requireFusedEqualsComposed runs both spellings on inference tapes and
// requires the same bits.
func (c edgeAttnCase[T]) requireFusedEqualsComposed(t *testing.T, what string) {
	t.Helper()
	ftp, ctp := NewInferenceTapeOf[T](), NewInferenceTapeOf[T]()
	requireSameBits(t, what+": output", c.fused(ftp, c.operands(ftp.Const)).Val.Data, c.composed(ctp, c.operands(ctp.Const)).Val.Data)
}

// train runs `passes` forward + backward passes of one spelling on a gradient
// tape, the operands as parameters so their gradients accumulate across the
// passes (no ZeroGrad), under the loss Σ out ∘ lossW. It returns the last
// output and every operand's gradient: self, then hDst, hSrc, hE and attn per
// head.
func (c edgeAttnCase[T]) train(spell func(*TapeOf[T], edgeAttnOperands[T]) *ValueOf[T], lossW *TensorOf[T], passes int) (out []T, grads [][]T) {
	in := c.operands(Param[T])
	tp := NewTapeOf[T]()
	for p := 0; p < passes; p++ {
		tp.Reset()
		y := spell(tp, in)
		tp.Backward(tp.SumAll(tp.Mul(y, tp.Const(lossW))))
		out = append(out[:0], y.Val.Data...)
	}
	grads = append(grads, in.self.Grad.Data)
	for _, vs := range [][]*ValueOf[T]{in.hDst, in.hSrc, in.hE, in.attn} {
		for _, v := range vs {
			grads = append(grads, v.Grad.Data)
		}
	}
	return out, grads
}

// requireBackwardEqualsComposed compares the two spellings' output and
// operand gradients bit for bit after two accumulated passes, the fused one at
// each worker count against the composed one at a single worker. The case
// must not be deduplicated (gradient tapes take one hE row per edge).
func (c edgeAttnCase[T]) requireBackwardEqualsComposed(t *testing.T, what string, lossW *TensorOf[T], workers ...int) {
	t.Helper()
	restore := par.SetWorkers(1)
	wantOut, wantGrads := c.train(c.composed, lossW, 2)
	restore()
	for _, w := range workers {
		restore := par.SetWorkers(w)
		gotOut, gotGrads := c.train(c.fused, lossW, 2)
		restore()
		requireSameBits(t, fmt.Sprintf("%s workers=%d: output", what, w), gotOut, wantOut)
		for i := range wantGrads {
			requireSameBits(t, fmt.Sprintf("%s workers=%d: gradient %d (self, then hDst, hSrc, hE, attn per head)", what, w, i), gotGrads[i], wantGrads[i])
		}
	}
}

// testRelation draws unsorted edges into two thirds of the nDst destinations:
// the rest are isolated (zero in-edges) and must come out as LeakyReLU(self).
// Node 1 has exactly one in-edge; sources repeat (nEdge >> nSrc).
func testRelation(rng *rand.Rand, nDst, nSrc, nEdge int) (dst, src []int) {
	dst, src = make([]int, nEdge), make([]int, nEdge)
	for e := range dst {
		dst[e] = 3 * (1 + rng.Intn(nDst/3-1))
		if rng.Intn(2) == 0 {
			dst[e]++
		}
		src[e] = rng.Intn(nSrc)
	}
	dst[nEdge/2] = 1
	return dst, src
}

func testEdgeAttentionMatchesComposed[T Float](t *testing.T) {
	const nDst, nSrc, nEdge, heads, dh = 700, 90, 3500, 2, 5
	rng := rand.New(rand.NewSource(31))
	dst, src := testRelation(rng, nDst, nSrc, nEdge)
	for _, nFeat := range []int{0, 17} {
		for _, uniform := range []bool{false, true} {
			c := randEdgeAttnCase[T](rng, dst, src, nDst, nSrc, nFeat, heads, dh, uniform)
			for _, w := range []int{1, 2, 3, 8} {
				restore := par.SetWorkers(w)
				c.requireFusedEqualsComposed(t, fmt.Sprintf("nFeat=%d uniform=%v workers=%d", nFeat, uniform, w))
				restore()
			}
			tp := NewInferenceTapeOf[T]()
			out := c.fused(tp, c.operands(tp.Const)).Val
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

// TestEdgeAttentionMatchesComposed pins the kernel's forward to the composed
// graph bit for bit on inference tapes, in both dtypes and at four worker
// counts, with and without edge-feature dedup, with learned and uniform
// attention.
func TestEdgeAttentionMatchesComposed(t *testing.T) {
	t.Run("float64", testEdgeAttentionMatchesComposed[float64])
	t.Run("float32", testEdgeAttentionMatchesComposed[float32])
}

func testEdgeAttentionBackwardMatchesComposed[T Float](t *testing.T) {
	const nDst, nSrc, nEdge, dh = 700, 90, 3500, 5
	rng := rand.New(rand.NewSource(37))
	dst, src := testRelation(rng, nDst, nSrc, nEdge)
	for _, heads := range []int{1, 2, 3} { // one head has no Concat
		lossW := NewTensorOf[T](nDst, heads*dh).Randn(rng, 1)
		for i := 0; i < len(lossW.Data); i += 7 {
			lossW.Data[i] = 0
		}
		for _, uniform := range []bool{false, true} {
			for _, slope := range []T{0.2, 0} {
				c := randEdgeAttnCase[T](rng, dst, src, nDst, nSrc, 0, heads, dh, uniform)
				c.slope = slope
				c.requireBackwardEqualsComposed(t, fmt.Sprintf("heads=%d uniform=%v slope=%v", heads, uniform, slope), lossW, 1, 2, 3, 8)
			}
		}
	}
}

// TestEdgeAttentionBackwardMatchesComposed pins the kernel on gradient tapes:
// output and every operand gradient carry the composed graph's bits — signed
// zeros included — in both dtypes, at four worker counts, for one to three
// heads, learned and uniform attention, LeakyReLU and ReLU slopes, with
// isolated destinations, a one-edge destination and repeated sources, the
// gradients accumulated over two passes.
func TestEdgeAttentionBackwardMatchesComposed(t *testing.T) {
	t.Run("float64", testEdgeAttentionBackwardMatchesComposed[float64])
	t.Run("float32", testEdgeAttentionBackwardMatchesComposed[float32])
}

// FuzzEdgeAttention decodes bytes into a small relation — sizes, edge
// endpoints and every value on a coarse grid, so ties, zeros and sign flips
// are common — and requires fused and composed bits to agree in both dtypes:
// the output on inference tapes, then (edge features expanded to one row per
// edge) the output and every operand gradient on gradient tapes at one and
// three workers. The seed corpus is testdata/fuzz/FuzzEdgeAttention.
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
	grid := func(tn *TensorOf[T]) {
		for i := range tn.Data {
			tn.Data[i] = T(int8(next())) / 16
		}
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
	if flags&16 != 0 {
		c.slope = 0
	}
	for _, ts := range [][]*TensorOf[T]{{c.self}, c.hDst, c.hSrc, c.hE, c.attn} {
		for _, tn := range ts {
			grid(tn)
		}
	}
	for e := range c.eIdx {
		c.eIdx[e] = next() % nFeat
	}
	c.requireFusedEqualsComposed(t, "fuzz")

	for k, u := range c.hE {
		if c.eIdx == nil {
			break
		}
		c.hE[k] = NewTensorOf[T](nEdge, dh)
		for e, ix := range c.eIdx {
			copy(c.hE[k].Data[e*dh:(e+1)*dh], u.Data[ix*dh:(ix+1)*dh])
		}
	}
	c.eIdx = nil
	lossW := NewTensorOf[T](nDst, heads*dh)
	grid(lossW)
	c.requireBackwardEqualsComposed(t, "fuzz backward", lossW, 1, 3)
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
// time, like the neighbouring ops, and so does dedup on a gradient tape.
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
		requirePanic(t, name, func() { tp := NewInferenceTape(); c.fused(tp, c.operands(tp.Const)) })
	}
	c := good()
	requirePanic(t, "eIdx on a gradient tape", func() { tp := NewTape(); c.fused(tp, c.operands(tp.Const)) })
	tp := NewInferenceTape()
	c.fused(tp, c.operands(tp.Const))
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
