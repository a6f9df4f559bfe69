package autodiff

import "math"

// Float is the scalar constraint for the generic tensor stack. It is a
// closed two-member set (no ~): kernels type-switch on `any(zero)` to pick
// per-dtype resources (scratch pools, gemm block sizes), and a closed set
// keeps those switches exhaustive.
//
// The float64 instantiation is the reference path: every generic scalar
// helper below lowers to an identity conversion around the stdlib math call,
// so TensorOf[float64] arithmetic is bitwise-identical to the pre-generic
// float64 code. What the tree pins today is that every float64 path agrees
// with every other, bit for bit: TestWarmStartBitwise (root package) and
// core's TestSolveMatchesGradientTapeForward.
type Float interface {
	float32 | float64
}

// f64 widens a generic scalar to float64. Serial reductions and stdlib math
// route through it; for T = float64 it compiles to a no-op.
func f64[T Float](x T) float64 {
	//lint:ignore no-dtype-literal f64 is the one sanctioned TypeParam-to-float64 widening; all scalar math funnels through it
	return float64(x)
}

// ToFloat64 widens a generic scalar to float64 — the sanctioned spelling for
// code outside this package (decoders, metrics) that must read generic
// tensor data at full precision; the no-dtype-literal lint rule forbids the
// direct conversion.
func ToFloat64[T Float](x T) float64 { return f64(x) }

// expT is math.Exp over a generic scalar (computed in float64, rounded once).
func expT[T Float](x T) T { return T(math.Exp(f64(x))) }

// minT is math.Min over generic scalars (keeps math.Min's NaN/±0 semantics,
// which a plain < comparison would not).
func minT[T Float](a, b T) T { return T(math.Min(f64(a), f64(b))) }

// maxT is math.Max over generic scalars.
func maxT[T Float](a, b T) T { return T(math.Max(f64(a), f64(b))) }

// negInfT returns -Inf in T.
func negInfT[T Float]() T { return T(math.Inf(-1)) }
