package autodiff

import (
	"math"

	"sate/internal/par"
)

// AdamOf is the Adam optimizer over a fixed set of parameters. Step and
// ZeroGrad run block-parallel over fixed parameter slices: the update is
// independent per element, so any partition of the elements produces
// bitwise-identical parameters (see TestAdamParallelMatchesSerial). The
// global gradient norm stays a serial reduction — its cross-parameter
// accumulation order is part of the determinism contract.
//
// Hyperparameters and the per-element update arithmetic are float64 for
// every dtype (moments are stored in T); for T = float64 this is exactly the
// pre-generic optimizer. Training in this repo is float64-only — the float32
// instantiation exists for API completeness.
type AdamOf[T Float] struct {
	LR       float64
	ClipNorm float64 // global gradient-norm clip; 0 disables

	params []*ValueOf[T]
	m, v   []*TensorOf[T]
	blocks []adamBlock
	t      int
}

// Adam is the float64 optimizer.
type Adam = AdamOf[float64]

// adamBlock is one contiguous slice [lo, hi) of parameter pi's elements.
type adamBlock struct{ pi, lo, hi int }

// Adam's moment decay rates and denominator guard. They are typed so that
// 1-adamBeta1 and 1-adamBeta2 fold to the float64 rounding a runtime
// subtraction gives, not to the exact decimal.
const (
	adamBeta1 float64 = 0.9
	adamBeta2 float64 = 0.999
	adamEps   float64 = 1e-8
)

// adamBlockSize bounds elements per block: large parameters split across
// workers, small ones stay whole.
const adamBlockSize = 4096

// NewAdam creates an optimizer with learning rate lr and no gradient clip.
func NewAdam[T Float](lr float64, params ...*ValueOf[T]) *AdamOf[T] {
	a := &AdamOf[T]{LR: lr, params: params}
	for pi, p := range params {
		if !p.isParam {
			panic("autodiff: Adam over non-parameter value")
		}
		a.m = append(a.m, NewTensorOf[T](p.Val.Rows, p.Val.Cols))
		a.v = append(a.v, NewTensorOf[T](p.Val.Rows, p.Val.Cols))
		for lo := 0; lo < len(p.Val.Data); lo += adamBlockSize {
			hi := lo + adamBlockSize
			if hi > len(p.Val.Data) {
				hi = len(p.Val.Data)
			}
			a.blocks = append(a.blocks, adamBlock{pi: pi, lo: lo, hi: hi})
		}
	}
	return a
}

// ZeroGrad clears all parameter gradients.
func (a *AdamOf[T]) ZeroGrad() {
	par.ForCtx(len(a.blocks), par.Grain(len(a.blocks), 1), a, opsFor[T]().adamZeroChunk)
}

func adamZeroChunk[T Float](a *AdamOf[T], lo, hi int) {
	for _, blk := range a.blocks[lo:hi] {
		clear(a.params[blk.pi].Grad.Data[blk.lo:blk.hi])
	}
}

// GradNorm returns the global L2 norm of all parameter gradients.
func (a *AdamOf[T]) GradNorm() float64 {
	var s float64
	for _, p := range a.params {
		for _, g := range p.Grad.Data {
			s += f64(g) * f64(g)
		}
	}
	return math.Sqrt(s)
}

// adamStepArgs carries one step's scalars into the block chunks.
type adamStepArgs[T Float] struct {
	a               *AdamOf[T]
	scale, b1c, b2c float64
}

// Step applies one Adam update from the accumulated gradients.
func (a *AdamOf[T]) Step() {
	a.t++
	scale := 1.0
	if a.ClipNorm > 0 {
		if n := a.GradNorm(); n > a.ClipNorm {
			scale = a.ClipNorm / n
		}
	}
	b1c := 1 - math.Pow(adamBeta1, float64(a.t))
	b2c := 1 - math.Pow(adamBeta2, float64(a.t))
	par.ForCtx(len(a.blocks), par.Grain(len(a.blocks), 1),
		adamStepArgs[T]{a: a, scale: scale, b1c: b1c, b2c: b2c}, opsFor[T]().adamStepChunk)
}

func adamStepChunk[T Float](s adamStepArgs[T], lo, hi int) {
	a := s.a
	for _, blk := range a.blocks[lo:hi] {
		p, m, v := a.params[blk.pi], a.m[blk.pi], a.v[blk.pi]
		for i := blk.lo; i < blk.hi; i++ {
			g := f64(p.Grad.Data[i]) * s.scale
			mv := adamBeta1*f64(m.Data[i]) + (1-adamBeta1)*g
			vv := adamBeta2*f64(v.Data[i]) + (1-adamBeta2)*g*g
			m.Data[i] = T(mv)
			v.Data[i] = T(vv)
			mh := mv / s.b1c
			vh := vv / s.b2c
			p.Val.Data[i] = T(f64(p.Val.Data[i]) - a.LR*mh/(math.Sqrt(vh)+adamEps))
		}
	}
}

// GradCheck numerically verifies the analytic gradient of a scalar-valued
// function with respect to one parameter, returning the maximum relative
// error over sampled entries. f must rebuild the graph on a fresh tape and
// return the scalar output; it is called multiple times. Gradient checking
// is a float64-only tool: central differences drown in float32 rounding.
func GradCheck(p *Value, f func() float64, analytic *Tensor, h float64, samples int) float64 {
	if samples <= 0 || samples > len(p.Val.Data) {
		samples = len(p.Val.Data)
	}
	maxErr := 0.0
	stride := len(p.Val.Data) / samples
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < len(p.Val.Data); i += stride {
		orig := p.Val.Data[i]
		p.Val.Data[i] = orig + h
		fp := f()
		p.Val.Data[i] = orig - h
		fm := f()
		p.Val.Data[i] = orig
		num := (fp - fm) / (2 * h)
		ana := analytic.Data[i]
		den := math.Max(1e-6, math.Abs(num)+math.Abs(ana))
		if err := math.Abs(num-ana) / den; err > maxErr {
			maxErr = err
		}
	}
	return maxErr
}
