// Package gnn implements graph-attention layers (Eq. 6/7 of the paper) on
// the autodiff engine: multi-head edge-featured attention with per-segment
// softmax over incoming edges, bipartite-relation support (the R2/R3
// relations connect different node types), residual stacks, and a small MLP
// for the decoder.
//
// Layers are generic over the autodiff element type. Training is
// float64-only (constructors return the float64 instantiation); the float32
// instantiations are produced by the Convert* functions, which copy trained
// float64 weights into narrower parameters for the inference fast path.
package gnn

import (
	"math"
	"math/rand"

	"sate/internal/autodiff"
)

// EdgeList is a sparse relation: edge i connects Src[i] -> Dst[i] and carries
// feature row i of the edge-feature tensor. Attention normalises over the
// incoming edges of each destination node.
type EdgeList struct {
	Src, Dst []int
}

// Len returns the number of edges.
func (e EdgeList) Len() int { return len(e.Src) }

// Reverse returns the relation with directions flipped (for updating the
// other side of a bipartite relation).
func (e EdgeList) Reverse() EdgeList { return EdgeList{Src: e.Dst, Dst: e.Src} }

// GATLayerOf is one multi-head graph-attention layer following Eq. (6)/(7):
//
//	v'_i = LeakyReLU( Θs·v_i + ‖_k Σ_{j∈r(i)} α^k_{j,i} (Θn^k·v_j + Θe^k·e_{j,i}) )
//	α^k_{j,i} = softmax_i( LeakyReLU( a^T [Θd^k·v_i ‖ Θn^k·v_j ‖ Θe^k·e_{j,i}] ) )
//
// Destination and source nodes may be different types (bipartite relations),
// hence separate Θd/Θn input dimensions. Output dimension is Heads*HeadDim.
type GATLayerOf[T autodiff.Float] struct {
	InDst, InSrc, InEdge int
	Heads, HeadDim       int
	Slope                float64 // LeakyReLU slope
	// Uniform disables learned attention: every incoming edge gets weight
	// 1/deg (mean aggregation). Used by the attention ablation.
	Uniform bool

	thetaS     *autodiff.ValueOf[T]   // InDst x Heads*HeadDim
	thetaDst   []*autodiff.ValueOf[T] // per head: InDst x HeadDim (attention query)
	thetaSrc   []*autodiff.ValueOf[T] // per head: InSrc x HeadDim (message + key)
	thetaEdge  []*autodiff.ValueOf[T] // per head: InEdge x HeadDim
	attnVector []*autodiff.ValueOf[T] // per head: 3*HeadDim x 1
	params     []*autodiff.ValueOf[T] // cached Params() result (Forward is hot)
}

// GATLayer is the float64 (training) layer.
type GATLayer = GATLayerOf[float64]

// NewGATLayer creates a layer with Xavier-style initialisation.
func NewGATLayer(rng *rand.Rand, inDst, inSrc, inEdge, heads, headDim int) *GATLayer {
	l := &GATLayer{
		InDst: inDst, InSrc: inSrc, InEdge: inEdge,
		Heads: heads, HeadDim: headDim, Slope: 0.2,
	}
	mk := func(r, c int) *autodiff.Value {
		return autodiff.Param(autodiff.NewTensor(r, c).Randn(rng, math.Sqrt(2/float64(r+c))))
	}
	l.thetaS = mk(inDst, heads*headDim)
	for k := 0; k < heads; k++ {
		l.thetaDst = append(l.thetaDst, mk(inDst, headDim))
		l.thetaSrc = append(l.thetaSrc, mk(inSrc, headDim))
		l.thetaEdge = append(l.thetaEdge, mk(inEdge, headDim))
		l.attnVector = append(l.attnVector, mk(3*headDim, 1))
	}
	l.cacheParams()
	return l
}

func (l *GATLayerOf[T]) cacheParams() {
	l.params = l.params[:0]
	l.params = append(l.params, l.thetaS)
	l.params = append(l.params, l.thetaDst...)
	l.params = append(l.params, l.thetaSrc...)
	l.params = append(l.params, l.thetaEdge...)
	l.params = append(l.params, l.attnVector...)
}

// convParam copies a trained float64 parameter into a fresh parameter of
// element type T (an elementwise conversion; exact for T = float64).
func convParam[T autodiff.Float](v *autodiff.Value) *autodiff.ValueOf[T] {
	t := autodiff.NewTensorOf[T](v.Val.Rows, v.Val.Cols)
	for i, x := range v.Val.Data {
		t.Data[i] = T(x)
	}
	return autodiff.Param(t)
}

func convParams[T autodiff.Float](vs []*autodiff.Value) []*autodiff.ValueOf[T] {
	out := make([]*autodiff.ValueOf[T], len(vs))
	for i, v := range vs {
		out[i] = convParam[T](v)
	}
	return out
}

// ConvertGATLayer copies a trained float64 layer's weights into a layer of
// element type T for inference. The returned layer shares no storage with l.
func ConvertGATLayer[T autodiff.Float](l *GATLayer) *GATLayerOf[T] {
	c := &GATLayerOf[T]{
		InDst: l.InDst, InSrc: l.InSrc, InEdge: l.InEdge,
		Heads: l.Heads, HeadDim: l.HeadDim, Slope: l.Slope, Uniform: l.Uniform,
		thetaS:     convParam[T](l.thetaS),
		thetaDst:   convParams[T](l.thetaDst),
		thetaSrc:   convParams[T](l.thetaSrc),
		thetaEdge:  convParams[T](l.thetaEdge),
		attnVector: convParams[T](l.attnVector),
	}
	c.cacheParams()
	return c
}

// Params returns the trainable parameters. The slice is cached — callers
// must not mutate it.
func (l *GATLayerOf[T]) Params() []*autodiff.ValueOf[T] { return l.params }

// Forward computes updated destination-node embeddings. vDst is nDst x InDst,
// vSrc is nSrc x InSrc, eFeat is E x InEdge (one row per edge, aligned with
// rel). Nodes with no incoming edges receive only the Θs·v self term.
func (l *GATLayerOf[T]) Forward(tp *autodiff.TapeOf[T], vDst, vSrc, eFeat *autodiff.ValueOf[T], rel EdgeList) *autodiff.ValueOf[T] {
	return l.forward(tp, vDst, vSrc, eFeat, nil, rel)
}

// ForwardDedup is Forward for relations whose per-edge features repeat:
// eFeatU holds only the distinct feature rows and eIdx[e] selects edge e's
// row in it. The edge projection Θe·e runs once per distinct row and the
// edge kernel reads it through eIdx in place — bitwise identical to Forward
// on the expanded features, since a gemm output row depends only on its own
// input row. Inference tapes only: EdgeAttention panics on a gradient tape,
// where the distinct rows' gradient would sum in a different order than
// Forward's and training would stop being bit-reproducible.
func (l *GATLayerOf[T]) ForwardDedup(tp *autodiff.TapeOf[T], vDst, vSrc, eFeatU *autodiff.ValueOf[T], eIdx []int, rel EdgeList) *autodiff.ValueOf[T] {
	return l.forward(tp, vDst, vSrc, eFeatU, eIdx, rel)
}

// maxStackHeads is how many heads' operand lists forward keeps on the stack
// (it runs once per layer per step — zero-alloc steady state); append spills
// wider layers to the heap.
const maxStackHeads = 8

// forward is the node-level projections and one edge kernel, on either tape:
// EdgeAttention scores, normalises and aggregates per destination for all
// heads and applies the self term and activation, with nothing E x dh stored
// but the edge projection itself.
func (l *GATLayerOf[T]) forward(tp *autodiff.TapeOf[T], vDst, vSrc, eFeat *autodiff.ValueOf[T], eIdx []int, rel EdgeList) *autodiff.ValueOf[T] {
	for _, p := range l.Params() {
		tp.Watch(p)
	}
	self := tp.MatMul(vDst, l.thetaS)
	var bufD, bufS, bufE [maxStackHeads]*autodiff.ValueOf[T]
	hDst, hSrc, hE := bufD[:0], bufS[:0], bufE[:0]
	attn := l.attnVector
	if l.Uniform {
		attn = nil // every edge scores 0; the query projection is not needed
	}
	for k := 0; k < l.Heads; k++ {
		if attn != nil {
			hDst = append(hDst, tp.MatMul(vDst, l.thetaDst[k])) // nDst x dh
		}
		hSrc = append(hSrc, tp.MatMul(vSrc, l.thetaSrc[k])) // nSrc x dh
		hE = append(hE, tp.MatMul(eFeat, l.thetaEdge[k]))   // E x dh (U x dh when deduped)
	}
	return tp.EdgeAttention(self, hDst, hSrc, hE, attn, eIdx, rel.Dst, rel.Src, T(l.Slope))
}

// StackOf is a residual stack of GAT layers over one relation: each layer's
// output feeds the next, with identity residuals where dimensions match
// (Appendix B: residual connections mitigate over-smoothing).
type StackOf[T autodiff.Float] struct {
	Layers []*GATLayerOf[T]
}

// Stack is the float64 (training) stack.
type Stack = StackOf[float64]

// NewStack builds depth layers of identical dimensions (dim -> dim) over a
// same-type relation.
func NewStack(rng *rand.Rand, depth, dim, edgeDim, heads int) *Stack {
	if dim%heads != 0 {
		panic("gnn: dim must be divisible by heads")
	}
	s := &Stack{}
	for i := 0; i < depth; i++ {
		s.Layers = append(s.Layers, NewGATLayer(rng, dim, dim, edgeDim, heads, dim/heads))
	}
	return s
}

// ConvertStack copies a trained float64 stack into element type T.
func ConvertStack[T autodiff.Float](s *Stack) *StackOf[T] {
	c := &StackOf[T]{}
	for _, l := range s.Layers {
		c.Layers = append(c.Layers, ConvertGATLayer[T](l))
	}
	return c
}

// Params returns all trainable parameters of the stack.
func (s *StackOf[T]) Params() []*autodiff.ValueOf[T] {
	var out []*autodiff.ValueOf[T]
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Forward runs the stack on a homogeneous relation (src and dst are the same
// node set).
func (s *StackOf[T]) Forward(tp *autodiff.TapeOf[T], v, eFeat *autodiff.ValueOf[T], rel EdgeList) *autodiff.ValueOf[T] {
	h := v
	for _, l := range s.Layers {
		out := l.Forward(tp, h, h, eFeat, rel)
		if out.Val.Cols == h.Val.Cols {
			out = tp.Add(out, h) // residual
		}
		h = out
	}
	return h
}

// MLPOf is a small fully connected network used as the allocation decoder.
type MLPOf[T autodiff.Float] struct {
	weights []*autodiff.ValueOf[T]
	biases  []*autodiff.ValueOf[T]
	Slope   float64
}

// MLP is the float64 (training) network.
type MLP = MLPOf[float64]

// NewMLP builds an MLP with the given layer widths (e.g. in, hidden, out).
func NewMLP(rng *rand.Rand, widths ...int) *MLP {
	if len(widths) < 2 {
		panic("gnn: MLP needs at least input and output widths")
	}
	m := &MLP{Slope: 0.2}
	for i := 0; i+1 < len(widths); i++ {
		w := autodiff.Param(autodiff.NewTensor(widths[i], widths[i+1]).
			Randn(rng, math.Sqrt(2/float64(widths[i]+widths[i+1]))))
		b := autodiff.Param(autodiff.NewTensor(1, widths[i+1]))
		m.weights = append(m.weights, w)
		m.biases = append(m.biases, b)
	}
	return m
}

// ConvertMLP copies a trained float64 MLP into element type T.
func ConvertMLP[T autodiff.Float](m *MLP) *MLPOf[T] {
	return &MLPOf[T]{
		weights: convParams[T](m.weights),
		biases:  convParams[T](m.biases),
		Slope:   m.Slope,
	}
}

// Params returns the trainable parameters.
func (m *MLPOf[T]) Params() []*autodiff.ValueOf[T] {
	var out []*autodiff.ValueOf[T]
	for i := range m.weights {
		out = append(out, m.weights[i], m.biases[i])
	}
	return out
}

// SetOutputBias sets the bias of one output column of the final layer.
// Useful to start gated outputs away from saturation (e.g. a sigmoid gate
// biased positive so early penalty gradients cannot kill it).
func (m *MLPOf[T]) SetOutputBias(col int, v float64) {
	last := m.biases[len(m.biases)-1]
	last.Val.Set(0, col, T(v))
}

// Forward applies the MLP with LeakyReLU between layers (linear output).
// Each layer is one fused Linear/LinearLeakyReLU kernel.
func (m *MLPOf[T]) Forward(tp *autodiff.TapeOf[T], x *autodiff.ValueOf[T]) *autodiff.ValueOf[T] {
	h := x
	slope := T(m.Slope)
	for i := range m.weights {
		tp.Watch(m.weights[i])
		tp.Watch(m.biases[i])
		if i+1 < len(m.weights) {
			h = tp.LinearLeakyReLU(h, m.weights[i], m.biases[i], slope)
		} else {
			h = tp.Linear(h, m.weights[i], m.biases[i])
		}
	}
	return h
}
