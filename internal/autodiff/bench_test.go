package autodiff

import (
	"fmt"
	"math/rand"
	"testing"

	"sate/internal/par"
)

// benchMatMul measures one forward+backward MatMul round at a GAT-sized
// shape under a fixed worker count.
func benchMatMul(b *testing.B, workers int) {
	restore := par.SetWorkers(workers)
	defer restore()
	rng := rand.New(rand.NewSource(1))
	av := NewTensor(2048, 64).Randn(rng, 1)
	bv := NewTensor(64, 64).Randn(rng, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := NewTape()
		a := tp.Const(av)
		w := tp.Const(bv)
		y := tp.MatMul(a, w)
		tp.Backward(tp.MeanAll(y))
	}
}

// BenchmarkParMatMul reports serial-vs-parallel ns/op for the matmul kernel
// (forward + backward). The Serial variant pins one worker; Parallel uses
// the full GOMAXPROCS/SATE_WORKERS budget.
func BenchmarkParMatMulSerial(b *testing.B)   { benchMatMul(b, 1) }
func BenchmarkParMatMulParallel(b *testing.B) { benchMatMul(b, 0) }

// BenchmarkParMatMulWorkers sweeps explicit worker counts (useful on
// multi-core hosts: ns/op should drop roughly linearly until the memory bus
// saturates).
func BenchmarkParMatMulWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) { benchMatMul(b, w) })
	}
}

func benchSegmentSoftmax(b *testing.B, workers int) {
	restore := par.SetWorkers(workers)
	defer restore()
	n, nSeg := 20000, 2000
	rng := rand.New(rand.NewSource(2))
	seg := make([]int, n)
	for i := range seg {
		seg[i] = rng.Intn(nSeg)
	}
	xv := NewTensor(n, 1).Randn(rng, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := NewTape()
		x := tp.Const(xv)
		y := tp.SegmentSoftmax(x, seg, nSeg)
		tp.Backward(tp.MeanAll(y))
	}
}

func BenchmarkParSegmentSoftmaxSerial(b *testing.B)   { benchSegmentSoftmax(b, 1) }
func BenchmarkParSegmentSoftmaxParallel(b *testing.B) { benchSegmentSoftmax(b, 0) }

// gatTapeStep builds a forward/backward/Adam step closure over one GAT-shaped
// layer of the fused kernels: LinearLeakyReLU on the edge features, the node
// projections, EdgeAttention, a Linear readout. When reuse is true a single tape is recycled
// with Reset; otherwise every step allocates a fresh tape (the pre-arena
// behaviour, kept as the comparison point).
func gatTapeStep(nodes, edges, dim int, reuse bool) func() {
	const heads = 2
	dh := dim / heads
	rng := rand.New(rand.NewSource(5))
	mk := func(r, c int) *Value { return Param(NewTensor(r, c).Randn(rng, 1)) }
	w1, b1, wS := mk(dim, dim), Param(NewTensor(1, dim)), mk(dim, dim)
	wO, bO := mk(dim, 1), Param(NewTensor(1, 1))
	params := []*Value{w1, b1, wS, wO, bO}
	var wD, wN, wE, attn [heads]*Value
	for k := range wD {
		wD[k], wN[k], wE[k], attn[k] = mk(dim, dh), mk(dim, dh), mk(dim, dh), mk(3*dh, 1)
		params = append(params, wD[k], wN[k], wE[k], attn[k])
	}
	v := NewTensor(nodes, dim).Randn(rng, 1)
	x := NewTensor(edges, dim).Randn(rng, 1)
	dst, src := make([]int, edges), make([]int, edges)
	for i := range dst {
		dst[i], src[i] = rng.Intn(nodes), rng.Intn(nodes)
	}
	opt := NewAdam(1e-3, params...)
	tp := NewTape()
	return func() {
		if reuse {
			tp.Reset()
		} else {
			tp = NewTape()
		}
		vin := tp.Const(tp.TensorFrom(nodes, dim, v.Data))
		e := tp.LinearLeakyReLU(tp.Const(tp.TensorFrom(edges, dim, x.Data)), tp.Watch(w1), tp.Watch(b1), 0.2)
		var hDst, hSrc, hE [heads]*Value
		for k := range hDst {
			hDst[k], hSrc[k], hE[k] = tp.MatMul(vin, wD[k]), tp.MatMul(vin, wN[k]), tp.MatMul(e, wE[k])
		}
		out := tp.EdgeAttention(tp.MatMul(vin, wS), hDst[:], hSrc[:], hE[:], attn[:], nil, dst, src, 0.2)
		y := tp.Linear(out, tp.Watch(wO), tp.Watch(bO))
		loss := tp.MeanAll(tp.Mul(y, y))
		opt.ZeroGrad()
		tp.Backward(loss)
		opt.Step()
	}
}

// BenchmarkTapeReuseForwardBackward measures the zero-allocation steady
// state: a full forward/backward/optimizer step on a reused tape. Serial
// workers — parallel dispatch itself spawns goroutines. Expect 0 allocs/op
// (TestTapeReuseZeroAllocs holds the hard assertion).
func BenchmarkTapeReuseForwardBackward(b *testing.B) {
	restore := par.SetWorkers(1)
	defer restore()
	step := gatTapeStep(512, 2048, 32, true)
	step()
	step() // two warm-up steps fill every free-list to steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkTapeFreshForwardBackward is the fresh-tape-per-step comparison
// point for BenchmarkTapeReuseForwardBackward.
func BenchmarkTapeFreshForwardBackward(b *testing.B) {
	restore := par.SetWorkers(1)
	defer restore()
	step := gatTapeStep(512, 2048, 32, false)
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
