package autodiff

import (
	"math"
	"unsafe"
)

// The assembly half of edgeAttnChunk's lanes (edge_amd64.s). Each takes the
// edges of a run of destination segments for one head — the list is
// sidx.rows over the run, segment after segment — and works out the row
// offsets itself: src[e], eIdx[e] (nil: the edge's own row), dst[e] for the
// per-destination scalars, and the clamped lanes of a short last group. A
// non-empty list and dh >= 1 are the caller's to guarantee; the operands were
// range-checked when the op was issued.
//
// edgeScores writes raw[e] (when raw is not nil) and alpha[e] =
// LeakyReLU(raw[e]) for every listed edge, each lane running
// prefix[dst[e]] += hs[src[e]][p]·aSrc[p], then += he[e][p]·aEdge[p], in
// increasing p. The slope travels as float64 in both dtypes: a float32 widens
// exactly and the float32 routine narrows it back.
//
//go:noescape
func edgeScoresF64(edges *int, n int, dst, src, eIdx *int, hs, he, aSrc, aEdge *float64, dh int, prefix *float64, slope float64, alpha, raw *float64)

//go:noescape
func edgeScoresF32(edges *int, n int, dst, src, eIdx *int, hs, he, aSrc, aEdge *float32, dh int, prefix *float32, slope float64, alpha, raw *float32)

// edgeExp rewrites alpha[e] as exp(alpha[e] − mx[dst[e]]), four edges a
// group, with math/exp_amd64.s's operation sequence (fused where fma). It
// returns how many leading edges it rewrote: it stops before the first group
// with an input outside [−708, 709] — NaN, ±Inf, and wherever math.Exp's
// exponent round(x·log2 e) leaves [−1021, 1023], so its overflow or denormal
// branch could run — which edgeExpLanes then hands to math.Exp.
//
//go:noescape
func edgeExpF64(edges *int, n int, dst *int, alpha, mx *float64, fma bool) int

//go:noescape
func edgeExpF32(edges *int, n int, dst *int, alpha, mx *float32, fma bool) int

// edgeFold adds alpha[e]·(hs[src[e]] + he[e]) into each segment's row of ro
// for its edges in order, one lane per column: segment i's edges are
// edges[off[i]:off[i+1]] and its row is dh elements at ro[i·stride:].
//
//go:noescape
func edgeFoldF64(edges, off *int, nSeg int, src, eIdx *int, hs, he, alpha, ro *float64, dh, stride int)

//go:noescape
func edgeFoldF32(edges, off *int, nSeg int, src, eIdx *int, hs, he, alpha, ro *float32, dh, stride int)

const cpuidFMA = 1 << 12 // leaf 1 ECX

// expLaneFMA and expLanes pick the exp lanes' variant once: the one whose
// bits match math.Exp on expProbes — math.Exp fuses where the CPU has FMA and
// GODEBUG has not turned it off — or none, and then the exp stays scalar.
var expLaneFMA, expLanes = pickExpLanes()

// expProbes are inputs on which the fused and unfused sequences differ
// (TestExpLanesSelected), spread over the lanes' range.
func expProbes() []float64 {
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = -0.173*float64(i*i) + 0.61*float64(i) + 1/3.0
	}
	return xs
}

func pickExpLanes() (fma, ok bool) {
	if !gemmVectorSupported() {
		return false, false
	}
	_, _, c1, _ := cpuid(1, 0)
	for _, fma := range []bool{false, true} {
		if fma && c1&cpuidFMA == 0 {
			continue
		}
		if expVariantMatches(fma) {
			return fma, true
		}
	}
	return false, false
}

func expVariantMatches(fma bool) bool {
	xs := expProbes()
	got := expVariant(xs, fma)
	for i, x := range xs {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}

// expVariant runs one exp variant over xs (all inside the lanes' range).
func expVariant(xs []float64, fma bool) []float64 {
	ys := append([]float64(nil), xs...)
	edges, dst, mx := make([]int, len(ys)), make([]int, len(ys)), []float64{0}
	for i := range edges {
		edges[i] = i
	}
	edgeExpF64(&edges[0], len(edges), &dst[0], &ys[0], &mx[0], fma)
	return ys
}

// edgeScoreLanes runs scores' arithmetic over the listed edges in the
// assembly lanes, each starting from a.seg[dst[e]], and reports whether it
// did (the vector path is on, and rows have a column to point at). The dtype
// branch is on the element size, as in gemmVectorTile.
func edgeScoreLanes[T Float](a *edgeAttnArgs[T], edges []int, alpha, raw, hs, he, aSrc, aEdge []T) bool {
	if !gemmVector || a.dh == 0 {
		return false
	}
	var z T
	pr := unsafe.Pointer(nil)
	if raw != nil {
		pr = unsafe.Pointer(&raw[0])
	}
	ps, pe, ws, we := unsafe.Pointer(&hs[0]), unsafe.Pointer(&he[0]), unsafe.Pointer(&aSrc[0]), unsafe.Pointer(&aEdge[0])
	pp, pa := unsafe.Pointer(&a.seg[0]), unsafe.Pointer(&alpha[0])
	if unsafe.Sizeof(z) == 4 {
		edgeScoresF32(&edges[0], len(edges), &a.dst[0], &a.src[0], firstInt(a.eIdx), (*float32)(ps), (*float32)(pe), (*float32)(ws), (*float32)(we), a.dh, (*float32)(pp), f64(a.slope), (*float32)(pa), (*float32)(pr))
	} else {
		edgeScoresF64(&edges[0], len(edges), &a.dst[0], &a.src[0], firstInt(a.eIdx), (*float64)(ps), (*float64)(pe), (*float64)(ws), (*float64)(we), a.dh, (*float64)(pp), f64(a.slope), (*float64)(pa), (*float64)(pr))
	}
	return true
}

// edgeExpLanes rewrites alpha[e] as expT(alpha[e] − a.seg[dst[e]]) for the
// listed edges and reports whether it did. A group the lanes refuse goes to
// expT edge by edge, and the lanes resume after it.
func edgeExpLanes[T Float](a *edgeAttnArgs[T], edges []int, alpha []T) bool {
	if !gemmVector || !expLanes {
		return false
	}
	var z T
	pa, pm := unsafe.Pointer(&alpha[0]), unsafe.Pointer(&a.seg[0])
	for i := 0; i < len(edges); {
		if unsafe.Sizeof(z) == 4 {
			i += edgeExpF32(&edges[i], len(edges)-i, &a.dst[0], (*float32)(pa), (*float32)(pm), expLaneFMA)
		} else {
			i += edgeExpF64(&edges[i], len(edges)-i, &a.dst[0], (*float64)(pa), (*float64)(pm), expLaneFMA)
		}
		for end := min(i+4, len(edges)); i < end; i++ {
			e := edges[i]
			alpha[e] = expT(alpha[e] - a.seg[a.dst[e]])
		}
	}
	return true
}

// edgeFoldLanes runs the message fold of destinations [lo, hi), which have
// edges, in the assembly lanes, into agg (the rows from lo on) at column col,
// and reports whether it did.
func edgeFoldLanes[T Float](a *edgeAttnArgs[T], lo, hi int, alpha, hs, he, agg []T, col int) bool {
	if !gemmVector || a.dh == 0 {
		return false
	}
	var z T
	ps, pe, pa, po := unsafe.Pointer(&hs[0]), unsafe.Pointer(&he[0]), unsafe.Pointer(&alpha[0]), unsafe.Pointer(&agg[col])
	width := len(a.hSrc) * a.dh
	if unsafe.Sizeof(z) == 4 {
		edgeFoldF32(&a.sidx.rows[0], &a.sidx.off[lo], hi-lo, &a.src[0], firstInt(a.eIdx), (*float32)(ps), (*float32)(pe), (*float32)(pa), (*float32)(po), a.dh, width)
	} else {
		edgeFoldF64(&a.sidx.rows[0], &a.sidx.off[lo], hi-lo, &a.src[0], firstInt(a.eIdx), (*float64)(ps), (*float64)(pe), (*float64)(pa), (*float64)(po), a.dh, width)
	}
	return true
}

// firstInt points at xs[0], or is nil for an empty slice.
func firstInt(xs []int) *int {
	if len(xs) == 0 {
		return nil
	}
	return &xs[0]
}
