package gnn

import (
	"math"
	"math/rand"
	"testing"

	"sate/internal/autodiff"
)

// lineGraph: 0-1-2 chain with bidirectional edges.
func lineGraph() EdgeList {
	return EdgeList{
		Src: []int{0, 1, 1, 2},
		Dst: []int{1, 0, 2, 1},
	}
}

func TestGATForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewGATLayer(rng, 4, 4, 2, 2, 3)
	tp := autodiff.NewTape()
	v := tp.Const(autodiff.NewTensor(3, 4).Randn(rng, 1))
	e := tp.Const(autodiff.NewTensor(4, 2).Randn(rng, 1))
	out := l.Forward(tp, v, v, e, lineGraph())
	if out.Val.Rows != 3 || out.Val.Cols != 6 {
		t.Errorf("output shape %dx%d", out.Val.Rows, out.Val.Cols)
	}
	for _, x := range out.Val.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatal("non-finite output")
		}
	}
}

func TestGATIsolatedNodeGetsSelfTermOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewGATLayer(rng, 3, 3, 1, 1, 3)
	tp := autodiff.NewTape()
	v := tp.Const(autodiff.NewTensor(4, 3).Randn(rng, 1))
	// Only nodes 0,1 connected; nodes 2,3 isolated.
	rel := EdgeList{Src: []int{0, 1}, Dst: []int{1, 0}}
	e := tp.Const(autodiff.NewTensor(2, 1).Randn(rng, 1))
	out := l.Forward(tp, v, v, e, rel)
	// Isolated node output = LeakyReLU(thetaS . v): recompute directly.
	tp2 := autodiff.NewTape()
	self := tp2.LeakyReLU(tp2.MatMul(tp2.Const(v.Val), tp2.Watch(l.thetaS)), l.Slope)
	for c := 0; c < out.Val.Cols; c++ {
		if math.Abs(out.Val.At(2, c)-self.Val.At(2, c)) > 1e-12 {
			t.Fatalf("isolated node got neighbour contributions")
		}
	}
}

func TestGATBipartite(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// dst nodes: 2 paths with dim 5; src nodes: 3 traffic with dim 3.
	l := NewGATLayer(rng, 5, 3, 2, 2, 4)
	tp := autodiff.NewTape()
	vp := tp.Const(autodiff.NewTensor(2, 5).Randn(rng, 1))
	vt := tp.Const(autodiff.NewTensor(3, 3).Randn(rng, 1))
	rel := EdgeList{Src: []int{0, 1, 2}, Dst: []int{0, 0, 1}}
	e := tp.Const(autodiff.NewTensor(3, 2).Randn(rng, 1))
	out := l.Forward(tp, vp, vt, e, rel)
	if out.Val.Rows != 2 || out.Val.Cols != 8 {
		t.Errorf("bipartite output shape %dx%d", out.Val.Rows, out.Val.Cols)
	}
}

func TestGATGradientsFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewGATLayer(rng, 3, 3, 2, 1, 3)
	rel := lineGraph()
	vT := autodiff.NewTensor(3, 3).Randn(rng, 1)
	eT := autodiff.NewTensor(4, 2).Randn(rng, 1)

	run := func() float64 {
		tp := autodiff.NewTape()
		out := l.Forward(tp, tp.Const(vT), tp.Const(vT), tp.Const(eT), rel)
		return tp.SumAll(tp.Mul(out, out)).Val.Data[0]
	}
	for pi, p := range l.Params() {
		clear(p.Grad.Data)
		_ = pi
	}
	tp := autodiff.NewTape()
	out := l.Forward(tp, tp.Const(vT), tp.Const(vT), tp.Const(eT), rel)
	loss := tp.SumAll(tp.Mul(out, out))
	tp.Backward(loss)
	for pi, p := range l.Params() {
		analytic := p.Grad.Clone()
		if err := autodiff.GradCheck(p, run, analytic, 1e-5, 8); err > 5e-4 {
			t.Errorf("param %d gradient error %v", pi, err)
		}
	}
}

func TestStackResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewStack(rng, 3, 6, 2, 2)
	if len(s.Layers) != 3 {
		t.Fatal("depth wrong")
	}
	tp := autodiff.NewTape()
	v := tp.Const(autodiff.NewTensor(3, 6).Randn(rng, 1))
	e := tp.Const(autodiff.NewTensor(4, 2).Randn(rng, 1))
	out := s.Forward(tp, v, e, lineGraph())
	if out.Val.Rows != 3 || out.Val.Cols != 6 {
		t.Errorf("stack output %dx%d", out.Val.Rows, out.Val.Cols)
	}
	if len(s.Params()) != 3*len(s.Layers[0].Params()) {
		t.Error("params incomplete")
	}
}

func TestStackDimValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("dim not divisible by heads should panic")
		}
	}()
	NewStack(rand.New(rand.NewSource(1)), 1, 5, 2, 2)
}

func TestMLPShapesAndGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewMLP(rng, 4, 8, 1)
	xT := autodiff.NewTensor(5, 4).Randn(rng, 1)
	run := func() float64 {
		tp := autodiff.NewTape()
		out := m.Forward(tp, tp.Const(xT))
		return tp.SumAll(tp.Mul(out, out)).Val.Data[0]
	}
	for _, p := range m.Params() {
		clear(p.Grad.Data)
	}
	tp := autodiff.NewTape()
	out := m.Forward(tp, tp.Const(xT))
	if out.Val.Rows != 5 || out.Val.Cols != 1 {
		t.Fatalf("MLP output %dx%d", out.Val.Rows, out.Val.Cols)
	}
	tp.Backward(tp.SumAll(tp.Mul(out, out)))
	for pi, p := range m.Params() {
		analytic := p.Grad.Clone()
		if err := autodiff.GradCheck(p, run, analytic, 1e-5, 8); err > 5e-4 {
			t.Errorf("MLP param %d gradient error %v", pi, err)
		}
	}
}

func TestGATLearnsNeighborAggregation(t *testing.T) {
	// End-to-end learning sanity: predict the mean of neighbour features —
	// requires information to flow across edges. (Degree counting is
	// deliberately NOT learnable by attention: the softmax weights sum to 1,
	// which is why the paper initialises satellite embeddings with
	// #Neighbors explicitly, Fig. 7.)
	rng := rand.New(rand.NewSource(7))
	l := NewGATLayer(rng, 1, 1, 1, 1, 4)
	dec := NewMLP(rng, 4, 8, 1)
	params := append(l.Params(), dec.Params()...)
	opt := autodiff.NewAdam(0.01, params...)

	rel := EdgeList{ // star: node 0 <-> {1,2,3}
		Src: []int{1, 2, 3, 0, 0, 0},
		Dst: []int{0, 0, 0, 1, 2, 3},
	}
	vT := autodiff.FromSlice(4, 1, []float64{0.5, 1, 2, 3})
	eT := autodiff.FromSlice(6, 1, []float64{1, 1, 1, 1, 1, 1})
	// target[i] = mean of i's neighbour values.
	target := autodiff.FromSlice(4, 1, []float64{2, 0.5, 0.5, 0.5})

	var loss float64
	for i := 0; i < 600; i++ {
		tp := autodiff.NewTape()
		h := l.Forward(tp, tp.Const(vT), tp.Const(vT), tp.Const(eT), rel)
		pred := dec.Forward(tp, h)
		lv := tp.MSE(pred, tp.Const(target))
		opt.ZeroGrad()
		tp.Backward(lv)
		opt.Step()
		loss = lv.Val.Data[0]
	}
	if loss > 0.05 {
		t.Errorf("failed to learn neighbour aggregation: loss %v", loss)
	}
}

func TestReverse(t *testing.T) {
	r := EdgeList{Src: []int{1, 2}, Dst: []int{3, 4}}
	rev := r.Reverse()
	if rev.Src[0] != 3 || rev.Dst[0] != 1 || rev.Len() != 2 {
		t.Errorf("reverse wrong: %+v", rev)
	}
}

func TestEmptyRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewGATLayer(rng, 3, 3, 1, 1, 3)
	tp := autodiff.NewTape()
	v := tp.Const(autodiff.NewTensor(2, 3).Randn(rng, 1))
	e := tp.Const(autodiff.NewTensor(0, 1))
	out := l.Forward(tp, v, v, e, EdgeList{})
	if out.Val.Rows != 2 {
		t.Errorf("empty relation output rows %d", out.Val.Rows)
	}
}

// r2Shaped builds a relation with the shape of R2 at 396 satellites (the
// solve-ring-396 benchmark workload): every path node touches the 7–11
// satellites it crosses, and the edge features take nFeat distinct values.
func r2Shaped(rng *rand.Rand, nPath, nSat, nFeat int) (rel EdgeList, eIdx []int) {
	for p := 0; p < nPath; p++ {
		for h, hops := 0, 7+rng.Intn(5); h < hops; h++ {
			rel.Dst = append(rel.Dst, p)
			rel.Src = append(rel.Src, rng.Intn(nSat))
			eIdx = append(eIdx, rng.Intn(nFeat))
		}
	}
	return rel, eIdx
}

// tensorRequests counts the arena tensors f takes from tp.
func tensorRequests[T autodiff.Float](tp *autodiff.TapeOf[T], f func()) uint64 {
	before := tp.ArenaStats()
	f()
	after := tp.ArenaStats()
	return after.TensorReuse + after.TensorAlloc - before.TensorReuse - before.TensorAlloc
}

// TestInferenceForwardIsOneEdgeKernel pins a layer to one spelling on both
// tapes. Forward and ForwardDedup on an inference tape return the gradient
// tape's bits, and either tape takes only node-level tensors from the arena —
// self, three projections per head (two when uniform) and the output, each
// with a gradient on the gradient tape: no per-edge Gather, Concat, score
// MatMul or weighted messages. (The kernel's per-edge stash, α and the raw
// score per head, is arena scratch, not a tensor.)
func TestInferenceForwardIsOneEdgeKernel(t *testing.T) {
	const nPath, nSat, nFeat, dim, heads = 300, 40, 9, 8, 2
	rng := rand.New(rand.NewSource(11))
	rel, eIdx := r2Shaped(rng, nPath, nSat, nFeat)
	vPath := autodiff.NewTensor(nPath, dim).Randn(rng, 1)
	vSat := autodiff.NewTensor(nSat, dim).Randn(rng, 1)
	eU := autodiff.NewTensor(nFeat, 3).Randn(rng, 1)
	eFull := autodiff.NewTensor(rel.Len(), 3)
	for e, ix := range eIdx {
		copy(eFull.Data[e*3:(e+1)*3], eU.Data[ix*3:(ix+1)*3])
	}
	for _, uniform := range []bool{false, true} {
		for _, toSat := range []bool{false, true} {
			l := NewGATLayer(rng, dim, dim, 3, heads, dim/heads)
			l.Uniform = uniform
			r, vDst, vSrc := rel, vPath, vSat
			if toSat {
				r, vDst, vSrc = rel.Reverse(), vSat, vPath
			}
			gtp := autodiff.NewTape()
			var want *autodiff.Value
			gradReqs := tensorRequests(gtp, func() {
				want = l.Forward(gtp, gtp.Const(vDst), gtp.Const(vSrc), gtp.Const(eFull), r)
			})
			// A node takes a value and a gradient; the three inputs'
			// gradients are one tensor each.
			wantGrad := uint64(2*(3*heads+2) + 3)
			if uniform {
				wantGrad = uint64(2*(2*heads+2) + 3)
			}
			if gradReqs != wantGrad {
				t.Errorf("uniform=%v toSat=%v: gradient tape took %d tensors, want %d", uniform, toSat, gradReqs, wantGrad)
			}
			itp := autodiff.NewInferenceTape()
			for _, dedup := range []bool{false, true} {
				itp.Reset()
				var got *autodiff.Value
				reqs := tensorRequests(itp, func() {
					if dedup {
						got = l.ForwardDedup(itp, itp.Const(vDst), itp.Const(vSrc), itp.Const(eU), eIdx, r)
					} else {
						got = l.Forward(itp, itp.Const(vDst), itp.Const(vSrc), itp.Const(eFull), r)
					}
				})
				wantReqs := uint64(3*heads + 2)
				if uniform {
					wantReqs = uint64(2*heads + 2)
				}
				if reqs != wantReqs {
					t.Errorf("uniform=%v toSat=%v dedup=%v: inference tape took %d tensors, want %d", uniform, toSat, dedup, reqs, wantReqs)
				}
				for i, x := range want.Val.Data {
					if math.Float64bits(got.Val.Data[i]) != math.Float64bits(x) {
						t.Fatalf("uniform=%v toSat=%v dedup=%v: output[%d] = %v, gradient tape %v", uniform, toSat, dedup, i, got.Val.Data[i], x)
					}
				}
			}
		}
	}
}

// BenchmarkGATLayerInference runs one R2-shaped layer (3,185 path nodes, 396
// satellites, ~28 k edges over 60 distinct edge features, dim 32, 2 heads —
// the solve-ring-396 shape) on a reused inference tape, in each direction:
// the kernel under the benchmark's solve, without the harness.
func BenchmarkGATLayerInference(b *testing.B) {
	const nPath, nSat, nFeat, dim, heads = 3185, 396, 60, 32, 2
	rng := rand.New(rand.NewSource(1))
	rel, eIdx := r2Shaped(rng, nPath, nSat, nFeat)
	vPath := autodiff.NewTensor(nPath, dim).Randn(rng, 1)
	vSat := autodiff.NewTensor(nSat, dim).Randn(rng, 1)
	eU := autodiff.NewTensor(nFeat, dim).Randn(rng, 1)
	for _, dir := range []struct {
		name       string
		rel        EdgeList
		vDst, vSrc *autodiff.Tensor
	}{
		{"SatToPath", rel, vPath, vSat},
		{"PathToSat", rel.Reverse(), vSat, vPath},
	} {
		b.Run(dir.name, func(b *testing.B) {
			l := NewGATLayer(rng, dim, dim, dim, heads, dim/heads)
			tp := autodiff.NewInferenceTape()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tp.Reset()
				l.ForwardDedup(tp, tp.Const(dir.vDst), tp.Const(dir.vSrc), tp.Const(eU), eIdx, dir.rel)
			}
		})
	}
}
