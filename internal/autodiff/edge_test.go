package autodiff

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sate/internal/par"
)

// laneRelation gives destination s sizes[s] in-edges (destinations past
// len(sizes) stay isolated). Edge ids are shuffled, so a segment's edges are
// scattered over the edge arrays, and sources are random.
func laneRelation(rng *rand.Rand, sizes []int, nSrc int) (dst, src []int) {
	for s, n := range sizes {
		for i := 0; i < n; i++ {
			dst = append(dst, s)
		}
	}
	rng.Shuffle(len(dst), func(i, j int) { dst[i], dst[j] = dst[j], dst[i] })
	src = make([]int, len(dst))
	for e := range src {
		src[e] = rng.Intn(nSrc)
	}
	return dst, src
}

// withSpecials replaces every operand of c with gemmOperand's values: normals,
// ±0, subnormals, tiny products, ±Inf and NaN.
func (c *edgeAttnCase[T]) withSpecials(rng *rand.Rand) {
	redraw := func(t *TensorOf[T]) *TensorOf[T] { return gemmOperand[T](rng, t.Rows, t.Cols, true) }
	c.self = redraw(c.self)
	for _, ts := range [][]*TensorOf[T]{c.hDst, c.hSrc, c.hE, c.attn} {
		for k := range ts {
			ts[k] = redraw(ts[k])
		}
	}
}

// runLanes runs the fused kernel with the vector lanes on or off at the given
// worker count and returns its output — and with lossW, on a gradient tape,
// the output and every operand gradient after two accumulated passes.
func (c edgeAttnCase[T]) runLanes(vector bool, workers int, lossW *TensorOf[T]) [][]T {
	defer setGemmVector(vector)()
	defer par.SetWorkers(workers)()
	if lossW == nil {
		tp := NewInferenceTapeOf[T]()
		return [][]T{c.fused(tp, c.operands(tp.Const)).Val.Data}
	}
	out, grads := c.train(c.fused, lossW, 2)
	return append([][]T{out}, grads...)
}

// requireLanesMatchGeneric holds the lanes at every worker count to the Go
// spelling at one worker, bit for bit (NaN matching any NaN).
func (c edgeAttnCase[T]) requireLanesMatchGeneric(t *testing.T, what string, lossW *TensorOf[T], workers []int) {
	t.Helper()
	want := c.runLanes(false, 1, lossW)
	for _, w := range workers {
		got := c.runLanes(true, w, lossW)
		for i := range want {
			for j := range want[i] {
				if !sameBits(got[i][j], want[i][j]) {
					t.Fatalf("%s workers=%d: result %d (output, then self, hDst, hSrc, hE, attn gradients per head) [%d]: lanes %v (%#x), Go spelling %v (%#x)",
						what, w, i, j, got[i][j], math.Float64bits(f64(got[i][j])), want[i][j], math.Float64bits(f64(want[i][j])))
				}
			}
		}
	}
}

// TestEdgeAttentionVectorMatchesGeneric pins edgeAttnChunk's assembly lanes
// to its Go spelling bit for bit: both dtypes, workers {1, 2, 3, 8},
// inference and gradient tapes, eIdx on and off, learned and uniform
// attention, slopes 0.2 and 0, head widths on both sides of every lane block
// (1 .. 33, the model's 16 included) and segments of 1 to 33 edges — one
// short group, whole groups, two groups and a tail — plus, on the small
// shapes, operands with ±0, subnormals, ±Inf and NaN, which send exp lanes
// to math.Exp. A larger relation puts chunk boundaries between segments.
func TestEdgeAttentionVectorMatchesGeneric(t *testing.T) {
	requireGemmVector(t)
	t.Run("float64", testEdgeAttentionVectorMatchesGeneric[float64])
	t.Run("float32", testEdgeAttentionVectorMatchesGeneric[float32])
}

func testEdgeAttentionVectorMatchesGeneric[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	workers := []int{1, 2, 3, 8}
	sizes := []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 19, 33}
	nDst, nSrc := len(sizes)+3, 23
	dst, src := laneRelation(rng, sizes, nSrc)
	for _, dh := range []int{1, 3, 4, 5, 8, 16, 17, 33} {
		for _, heads := range []int{1, 2} {
			for _, nFeat := range []int{0, 7} {
				for _, uniform := range []bool{false, true} {
					for _, slope := range []T{0.2, 0} {
						for _, specials := range []bool{false, true} {
							if specials && dh > 5 {
								continue
							}
							c := randEdgeAttnCase[T](rng, dst, src, nDst, nSrc, nFeat, heads, dh, uniform)
							c.slope = slope
							if specials {
								c.withSpecials(rng)
							}
							what := fmt.Sprintf("dh=%d heads=%d nFeat=%d uniform=%v slope=%v specials=%v", dh, heads, nFeat, uniform, slope, specials)
							c.requireLanesMatchGeneric(t, what, nil, workers)
							if nFeat == 0 {
								lossW := NewTensorOf[T](nDst, heads*dh).Randn(rng, 1)
								c.requireLanesMatchGeneric(t, what+" gradient tape", lossW, workers)
							}
						}
					}
				}
			}
		}
	}
	dst, src = testRelation(rng, 700, 90, 3500)
	for _, nFeat := range []int{0, 60} {
		c := randEdgeAttnCase[T](rng, dst, src, 700, 90, nFeat, 2, 16, false)
		c.requireLanesMatchGeneric(t, fmt.Sprintf("700 destinations nFeat=%d", nFeat), nil, workers)
	}
}

// expLaneInputs decodes bytes into exp inputs and a max. By its selector
// byte each value is raw bits, uniform on [−750, 750] (the lanes' range and
// both its edges), or one of the inputs where math.Exp changes branch — ±0,
// subnormals, the underflow (−745), denormal (−708) and overflow (709.78)
// edges and float32's own (−103, −87, 88.7) — stepped a few ulps.
func expLaneInputs(data []byte) (xs []float64, mx float64) {
	edges := []float64{0, math.Copysign(0, -1), math.Float64frombits(1), -math.Float64frombits(1), math.SmallestNonzeroFloat64 * 3,
		-745.1332191019411, -708.3964185322641, -708, 709, 7.09782712893384e+02, -103.97, -87.33, 88.72,
		math.Inf(1), math.Inf(-1), math.NaN(), -1, 1e-300}
	if len(data) > 0 {
		mx = edges[int(data[0])%len(edges)]
		data = data[1:]
	}
	for len(data) >= 9 {
		sel, bits := data[0], binary.LittleEndian.Uint64(data[1:9])
		data = data[9:]
		x := math.Float64frombits(bits)
		if sel&3 == 3 {
			x = float64(bits>>11)/(1<<53)*1500 - 750
		}
		if sel&1 == 0 {
			x = edges[int(sel>>1)%len(edges)]
			for steps := int(int8(bits)) % 5; steps != 0; {
				if steps > 0 {
					x, steps = math.Nextafter(x, math.Inf(1)), steps-1
				} else {
					x, steps = math.Nextafter(x, math.Inf(-1)), steps+1
				}
			}
		}
		xs = append(xs, x)
	}
	return xs, mx
}

// FuzzExpLanes holds the exp lanes to math.Exp bit for bit: alpha[e] becomes
// exp(alpha[e] − mx[dst[e]]), read and written through a shuffled edge list
// over two destinations (maxima mx and 0), over
// inputs drawn from raw float64 bits and math.Exp's branch edges; float32
// through expT, inputs narrowed. Lanes outside the main path go to math.Exp,
// so NaN payloads match too.
func FuzzExpLanes(f *testing.F) {
	requireGemmVector(f)
	f.Add([]byte{})
	seed := []byte{0}
	for sel := 0; sel < 2*18; sel += 2 {
		seed = append(seed, byte(sel), 0, 0, 0, 0, 0, 0, 0, 0)
	}
	f.Add(seed)
	f.Add(append([]byte{15}, seed[1:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		xs, mx := expLaneInputs(data)
		fuzzExpLanes(t, xs, mx)
		xs32 := make([]float32, len(xs))
		for i, x := range xs {
			xs32[i] = float32(x)
		}
		fuzzExpLanes(t, xs32, float32(mx))
	})
}

func fuzzExpLanes[T Float](t *testing.T, xs []T, mx T) {
	if len(xs) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(int64(len(xs))))
	edges := rng.Perm(len(xs))
	a := edgeAttnArgs[T]{dst: make([]int, len(xs)), seg: []T{mx, 0}}
	for e := range a.dst {
		a.dst[e] = e % 2 // odd edges subtract 0: exp(x) itself
	}
	alpha := append([]T(nil), xs...)
	defer setGemmVector(true)()
	if !edgeExpLanes(&a, edges, alpha) {
		t.Fatal("the exp lanes are off on a machine with the vector tile")
	}
	for e, x := range xs {
		m := a.seg[a.dst[e]]
		want := T(math.Exp(f64(x - m)))
		if math.Float64bits(f64(alpha[e])) != math.Float64bits(f64(want)) {
			t.Fatalf("exp(%v − %v) (%#x − %#x): lanes %v (%#x), math.Exp %v (%#x)",
				x, m, math.Float64bits(f64(x)), math.Float64bits(f64(m)), alpha[e], math.Float64bits(f64(alpha[e])), want, math.Float64bits(f64(want)))
		}
	}
}

// BenchmarkEdgeAttentionInference reports ns per edge and head of one
// EdgeAttention launch at the solve-ring-396 shapes — head width 16, two
// heads, deduplicated edge features — over a segment mix like the ring
// solve's (74 % of edges in segments of 8 or more, 22 % in 4–7, the rest in
// 1–3), with the vector lanes on and off, next to BenchmarkGemmInferenceShapes:
// go test -run '^$' -bench EdgeAttentionInference -cpu 1 ./internal/autodiff
func BenchmarkEdgeAttentionInference(b *testing.B) {
	b.Run("f64", benchEdgeAttentionInference[float64])
	b.Run("f32", benchEdgeAttentionInference[float32])
}

func benchEdgeAttentionInference[T Float](b *testing.B) {
	const heads, dh, nSrc, nFeat = 2, 16, 3185, 60
	rng := rand.New(rand.NewSource(43))
	var sizes []int
	for edges := 0; edges < 20000; {
		n := 8 + rng.Intn(17)
		switch r := rng.Intn(1000); {
		case r < 150:
			n = 1 + rng.Intn(3)
		case r < 550:
			n = 4 + rng.Intn(4)
		}
		sizes, edges = append(sizes, n), edges+n
	}
	dst, src := laneRelation(rng, sizes, nSrc)
	c := randEdgeAttnCase[T](rng, dst, src, len(sizes), nSrc, nFeat, heads, dh, false)
	for _, vector := range lanesSettings() {
		restore := setGemmVector(vector)
		b.Run(fmt.Sprintf("lanes=%v", vector), func(b *testing.B) {
			tp := NewInferenceTapeOf[T]()
			for i := 0; i < b.N; i++ {
				tp.Reset()
				c.fused(tp, c.operands(tp.Const))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(heads*len(dst)), "ns/edge-head")
		})
		restore()
	}
}
