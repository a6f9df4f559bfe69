package autodiff

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"sate/internal/obs"
	"sate/internal/par"
)

// setGemmVector switches gemmChunk's vector tile on or off and returns the
// restore func. Tests in this package run sequentially and flip it only
// between launches.
func setGemmVector(on bool) (restore func()) {
	prev := gemmVector
	gemmVector = on
	return func() { gemmVector = prev }
}

func requireGemmVector(t testing.TB) {
	t.Helper()
	if !gemmVectorSupported() {
		t.Skip("no vector gemm tile on this machine (needs amd64 with AVX2 and OS-saved YMM state): nothing to compare the Go tile against")
	}
}

// gemmOperand fills a tensor with normals and exact ±0 and — with specials —
// the other values a rounding or flushing difference would show on:
// subnormals, values whose pairwise products land in the subnormal range,
// ±Inf and NaN. (Subnormal arithmetic takes a microcode assist per operation,
// so the plain class is also what keeps the large shapes quick.)
func gemmOperand[T Float](rng *rand.Rand, rows, cols int, specials bool) *TensorOf[T] {
	t := NewTensorOf[T](rows, cols)
	var z T
	tiny, sub := T(1e-155), T(math.Float64frombits(1))
	if unsafe.Sizeof(z) == 4 {
		tiny, sub = T(1e-20), T(math.Float32frombits(1))
	}
	for i := range t.Data {
		v := T(rng.NormFloat64())
		switch r := rng.Intn(128); {
		case r < 8:
			v = 0
		case r < 16:
			v = T(math.Copysign(0, -1))
		case !specials:
		case r < 20:
			v = sub * T(1+rng.Intn(1000))
		case r < 24:
			v *= tiny
		case r == 24:
			v = T(math.Inf(1))
		case r == 25:
			v = T(math.Inf(-1))
		case r == 26:
			v = T(math.NaN())
		}
		t.Data[i] = v
	}
	return t
}

// sameBits reports whether two results are the same float: bit for bit,
// except that any NaN equals any NaN (x86 picks the payload by operand
// order). Widening float32 to float64 is exact, so one comparison serves both.
func sameBits[T Float](x, y T) bool {
	fx, fy := f64(x), f64(y)
	return math.Float64bits(fx) == math.Float64bits(fy) || (math.IsNaN(fx) && math.IsNaN(fy))
}

// runGemm returns out0 (+)= a @ b computed by gemm with the vector tile on or
// off at the given worker count. A nil out0 selects store mode, into a
// poisoned out: the full tiles store every element without reading it.
func runGemm[T Float](a, b, out0 *TensorOf[T], vector bool, workers int) []T {
	defer setGemmVector(vector)()
	defer par.SetWorkers(workers)()
	out := NewTensorOf[T](a.Rows, b.Cols)
	if out0 != nil {
		copy(out.Data, out0.Data)
	} else {
		for i := range out.Data {
			out.Data[i] = T(math.NaN())
		}
	}
	gemm(out, a, b, out0 != nil)
	return out.Data
}

// requireGemmVectorMatchesGeneric holds both kernels at every worker count to
// the Go tile at one worker: the same bits whichever kernel runs and wherever
// the chunk boundaries fall, non-finite inputs included.
func requireGemmVectorMatchesGeneric[T Float](t *testing.T, a, b, out0 *TensorOf[T], workers []int, what string) {
	t.Helper()
	want := runGemm(a, b, out0, false, 1)
	for _, w := range workers {
		for _, vector := range []bool{false, true} {
			got := runGemm(a, b, out0, vector, w)
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%s %dx%d @ %dx%d workers=%d vector tile=%v: out[%d] = %v (%#x), Go tile at one worker %v (%#x).\n"+
						"The two perform the same separately rounded multiply and add per term; the contract is stated for the default GOAMD64=v1 — "+
						"at GOAMD64=v3 the compiler may fuse the Go tile's multiply-adds, which moves the Go tile's bits, not the assembly's.",
						what, a.Rows, a.Cols, b.Rows, b.Cols, w, vector, i, got[i], math.Float64bits(f64(got[i])), want[i], math.Float64bits(f64(want[i])))
				}
			}
		}
	}
}

// TestGemmVectorMatchesGeneric pins the assembly tile to the Go tile, and
// both to the Go tile at one worker, bit for bit: both dtypes, store and
// accumulate (onto a non-zero out), four worker counts, shapes on every side
// of the tile and block edges (rows 4, columns 8 / 16) up to the
// solve-ring-396 sizes, plain inputs (normals, ±0) and inputs with subnormals,
// ±Inf and NaN — where a term 0·Inf is a NaN on every path, row remainder
// included.
func TestGemmVectorMatchesGeneric(t *testing.T) {
	requireGemmVector(t)
	t.Run("float64", testGemmVectorMatchesGeneric[float64])
	t.Run("float32", testGemmVectorMatchesGeneric[float32])
}

func testGemmVectorMatchesGeneric[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	workers := []int{1, 2, 3, 8}
	for _, m := range []int{1, 3, 4, 5, 8, 13, 396, 3185} {
		for _, k := range []int{1, 2, 16, 32, 33, 64} {
			for _, n := range []int{1, 2, 7, 8, 9, 16, 17, 24, 32, 64, 96} {
				for _, specials := range []bool{false, true} {
					if specials && m > 13 {
						// What a lane computes does not depend on m; the large
						// shapes are here for chunk boundaries, and subnormal
						// arithmetic is ~100x slower.
						continue
					}
					a, b := gemmOperand[T](rng, m, k, specials), gemmOperand[T](rng, k, n, specials)
					what := fmt.Sprintf("specials=%v", specials)
					requireGemmVectorMatchesGeneric(t, a, b, nil, workers, "store "+what)
					requireGemmVectorMatchesGeneric(t, a, b, gemmOperand[T](rng, m, n, specials), workers, "accumulate "+what)
				}
			}
		}
	}
}

// FuzzGemmVector decodes bytes into a small product — shape, mode, worker
// count and every operand on a coarse grid, so zeros, ties and cancellations
// are common — and requires the vector tile's bits to equal the Go tile's in
// both dtypes. k and n start at 0: the guards, not the assembly, own the
// empty cases. The seed corpus is testdata/fuzz/FuzzGemmVector.
func FuzzGemmVector(f *testing.F) {
	requireGemmVector(f)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzGemmVector[float64](t, data)
		fuzzGemmVector[float32](t, data)
	})
}

func fuzzGemmVector[T Float](t *testing.T, data []byte) {
	pos := 0
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[pos%len(data)]
		pos++
		return int(b)
	}
	m, k, n, flags := 1+next()%13, next()%6, next()%40, next()
	grid := func(rows, cols int) *TensorOf[T] {
		tn := NewTensorOf[T](rows, cols)
		for i := range tn.Data {
			tn.Data[i] = T(int8(next())) / 16
		}
		return tn
	}
	a, b := grid(m, k), grid(k, n)
	var out0 *TensorOf[T]
	if flags&1 != 0 {
		out0 = grid(m, n)
	}
	requireGemmVectorMatchesGeneric(t, a, b, out0, []int{[]int{1, 2, 3, 8}[flags>>1&3]}, "fuzz")
}

// TestGemmVectorGuards: the cases the assembly cannot take — no terms
// (k == 0, so no a element to point at), fewer columns than one block, no
// columns, operands shorter than the tile — are refused by the hook, and gemm
// still produces the Go tile's result for them.
func TestGemmVectorGuards(t *testing.T) {
	t.Run("float64", testGemmVectorGuards[float64])
	t.Run("float32", testGemmVectorGuards[float32])
}

func testGemmVectorGuards[T Float](t *testing.T) {
	defer setGemmVector(true)()
	var z T
	block := int(64 / unsafe.Sizeof(z))
	buf := func(n int) []T { return make([]T, n) }
	for name, c := range map[string]struct{ a, b, out, k, n int }{
		"k == 0":          {0, 0, 4 * block, 0, block},
		"n below a block": {4 * 3, 3 * (block - 1), 4 * (block - 1), 3, block - 1},
		"n == 0":          {4 * 3, 0, 0, 3, 0},
		"short a":         {4*3 - 1, 3 * block, 4 * block, 3, block},
		"short b":         {4 * 3, 3*block - 1, 4 * block, 3, block},
		"short out":       {4 * 3, 3 * block, 4*block - 1, 3, block},
	} {
		if got := gemmVectorTile(buf(c.a), buf(c.b), buf(c.out), c.k, c.n, false); got != 0 {
			t.Errorf("%s: vector tile covered %d columns, want 0", name, got)
		}
	}
	if gemmVectorSupported() {
		if got := gemmVectorTile(buf(4*3), buf(3*(block+1)), buf(4*(block+1)), 3, block+1, false); got != block {
			t.Errorf("one block and a column: vector tile covered %d columns, want %d", got, block)
		}
	}
	rng := rand.New(rand.NewSource(21))
	for _, sh := range [][3]int{{8, 0, block}, {8, 0, 0}, {8, 3, 0}, {8, 3, block - 1}, {0, 3, block}} {
		m, k, n := sh[0], sh[1], sh[2]
		a, b := gemmOperand[T](rng, m, k, false), gemmOperand[T](rng, k, n, false)
		requireGemmVectorMatchesGeneric(t, a, b, nil, []int{1, 2}, "guarded store")
		requireGemmVectorMatchesGeneric(t, a, b, gemmOperand[T](rng, m, n, false), []int{1, 2}, "guarded accumulate")
	}
}

// TestGemmVectorZeroAllocs: the hand-off to the assembly allocates nothing —
// a warm MatMul and a warm LinearLeakyReLU on a reset inference tape at one
// worker, vector tile on where the machine has one.
func TestGemmVectorZeroAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race runtime perturbs alloc accounting (see obs.RaceEnabled)")
	}
	t.Run("float64", testGemmVectorZeroAllocs[float64])
	t.Run("float32", testGemmVectorZeroAllocs[float32])
}

func testGemmVectorZeroAllocs[T Float](t *testing.T) {
	defer par.SetWorkers(1)()
	rng := rand.New(rand.NewSource(22))
	x, w, bias := gemmOperand[T](rng, 50, 32, false), gemmOperand[T](rng, 32, 48, false), gemmOperand[T](rng, 1, 48, false)
	tp := NewInferenceTapeOf[T]()
	for name, run := range map[string]func(){
		"MatMul":          func() { tp.Reset(); tp.MatMul(tp.Const(x), tp.Const(w)) },
		"LinearLeakyReLU": func() { tp.Reset(); tp.LinearLeakyReLU(tp.Const(x), tp.Const(w), tp.Const(bias), 0.2) },
	} {
		run()
		if n := testing.AllocsPerRun(20, run); n != 0 {
			t.Errorf("warm %s (gemm kernel %s) allocates %v objects/op, want 0", name, GemmKernel(), n)
		}
	}
}

// BenchmarkGemmInferenceShapes reports the multiply-add rate of gemm at the
// solve-ring-396 inference shapes (node projections, decoder, one R1 layer),
// both dtypes, vector tile and Go tile. Run with -cpu 1 for the per-core
// figure: go test -run '^$' -bench GemmInferenceShapes -cpu 1 ./internal/autodiff
func BenchmarkGemmInferenceShapes(b *testing.B) {
	b.Run("f64", benchGemmInferenceShapes[float64])
	b.Run("f32", benchGemmInferenceShapes[float32])
}

func benchGemmInferenceShapes[T Float](b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	for _, sh := range [][3]int{{3185, 32, 32}, {3185, 32, 16}, {3185, 64, 64}, {396, 32, 16}} {
		m, k, n := sh[0], sh[1], sh[2]
		a, w, out := NewTensorOf[T](m, k).Randn(rng, 1), NewTensorOf[T](k, n).Randn(rng, 1), NewTensorOf[T](m, n)
		for _, vector := range []bool{true, false} {
			if vector && !gemmVectorSupported() {
				continue
			}
			restore := setGemmVector(vector)
			b.Run(fmt.Sprintf("%dx%dx%d/%s", m, k, n, GemmKernel()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					gemm(out, a, w, false)
				}
				b.ReportMetric(float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
			restore()
		}
	}
}
