package autodiff

import (
	"fmt"

	"sate/internal/par"
)

// EdgeAttention is the whole edge-level tail of a multi-head GAT layer
// (Eq. 6/7) as one inference kernel. Per head k it takes the node-level
// projections hDst[k] (nDst x dh) and hSrc[k] (nSrc x dh), the edge
// projection hE[k] — one row per edge, or, with eIdx, one row per distinct
// edge feature and edge e reading row eIdx[e] — and the attention vector
// attn[k] (3·dh x 1). Edge e runs src[e] -> dst[e]. The result is
//
//	out[s] = LeakyReLU( self[s] + ‖_k Σ_{e: dst[e]=s} α^k_e (hSrc[k][src[e]] + hE[k][e]) )
//	α^k    = softmax over each s of LeakyReLU( attn[k]ᵀ [hDst[k][s] ‖ hSrc[k][src[e]] ‖ hE[k][e]] )
//
// written straight into the concatenated nDst x heads·dh layout. An empty attn
// scores every edge 0 (mean aggregation; hDst is not read).
//
// Every float equals the composed graph's — per head Gather, GatherConcat,
// MatMul, LeakyReLU, Add, SegmentAttention, then Concat, Add, LeakyReLU —
// because each segment performs the same operations in the same order
// (DESIGN.md §11): the score's first dh terms depend on the destination only,
// so they are summed once per segment and every edge's accumulator continues
// from that prefix through the same += sequence in increasing p that gemm
// runs over the concatenated row; max, exp(x−max), sum and divide follow the
// segment softmax's order; and messages fold into the output row in
// increasing e. Nothing E-sized is materialised but one column of attention
// weights, and the segment index is built once for all heads.
//
// Inference tapes only: there is no backward pass, and gradient tapes keep
// the composed ops so training bits cannot move.
func (tp *TapeOf[T]) EdgeAttention(self *ValueOf[T], hDst, hSrc, hE, attn []*ValueOf[T], eIdx, dst, src []int, slope T) *ValueOf[T] {
	if tp.grad {
		panic("autodiff: EdgeAttention on a gradient tape")
	}
	heads, nDst, nEdge := len(hSrc), self.Val.Rows, len(dst)
	uniform := len(attn) == 0
	if heads == 0 || len(hE) != heads || (!uniform && (len(attn) != heads || len(hDst) != heads)) {
		panic("autodiff: EdgeAttention needs one hSrc, hE (and with attn, hDst and attn) per head")
	}
	if len(src) != nEdge || (eIdx != nil && len(eIdx) != nEdge) {
		panic(fmt.Sprintf("autodiff: EdgeAttention with %d dst, %d src and %d edge-feature indices", nEdge, len(src), len(eIdx)))
	}
	dh, nSrc, nFeat := hSrc[0].Val.Cols, hSrc[0].Val.Rows, hE[0].Val.Rows
	if eIdx == nil && nFeat != nEdge {
		panic(fmt.Sprintf("autodiff: EdgeAttention edge projection has %d rows for %d edges", nFeat, nEdge))
	}
	if self.Val.Cols != heads*dh {
		panic(fmt.Sprintf("autodiff: EdgeAttention self %s for %d heads of width %d", self.Val.shape(), heads, dh))
	}
	for k := 0; k < heads; k++ {
		if s, e := hSrc[k].Val, hE[k].Val; s.Rows != nSrc || s.Cols != dh || e.Rows != nFeat || e.Cols != dh {
			panic(fmt.Sprintf("autodiff: EdgeAttention head %d: hSrc %s, hE %s, want %dx%d and %dx%d", k, s.shape(), e.shape(), nSrc, dh, nFeat, dh))
		}
		if uniform {
			continue
		}
		if d, a := hDst[k].Val, attn[k].Val; d.Rows != nDst || d.Cols != dh || a.Rows != 3*dh || a.Cols != 1 {
			panic(fmt.Sprintf("autodiff: EdgeAttention head %d: hDst %s, attn %s, want %dx%d and %dx1", k, d.shape(), a.shape(), nDst, dh, 3*dh))
		}
	}
	for e, s := range dst {
		if s < 0 || s >= nDst || src[e] < 0 || src[e] >= nSrc || (eIdx != nil && (eIdx[e] < 0 || eIdx[e] >= nFeat)) {
			panic(fmt.Sprintf("autodiff: EdgeAttention edge %d out of range", e))
		}
	}

	v := tp.newNodeStored(nDst, heads*dh, nil)
	a := edgeAttnArgs[T]{
		out: v.Val.Data, self: self.Val.Data,
		alpha: tp.arena.scalars.take(nEdge),
		hSrc:  tp.arena.keep(hSrc), hE: tp.arena.keep(hE),
		src: src, eIdx: eIdx,
		sidx: buildSegmentIndex(tp, dst, nDst),
		dh:   dh, slope: slope,
	}
	if !uniform {
		a.hDst, a.attn = tp.arena.keep(hDst), tp.arena.keep(attn)
	}
	// Segments are as uneven as node degrees; the grain goes by the mean.
	segCost := 4 * heads * dh
	if nDst > 0 {
		segCost *= 1 + nEdge/nDst
	}
	par.ForCtx(nDst, rowGrain(nDst, segCost), a, opsFor[T]().edgeAttnChunk)
	return v
}

// edgeAttnArgs carries one EdgeAttention launch. hDst and attn are nil for
// uniform attention; alpha is the launch's one per-edge column, each entry
// owned by its edge's segment.
type edgeAttnArgs[T Float] struct {
	out, self, alpha     []T
	hDst, hSrc, hE, attn []*ValueOf[T]
	src, eIdx            []int
	sidx                 segmentIndex
	dh                   int
	slope                T
}

func edgeAttnChunk[T Float](a edgeAttnArgs[T], lo, hi int) {
	dh, slope := a.dh, a.slope
	width := len(a.hSrc) * dh
	for s := lo; s < hi; s++ {
		edges := a.sidx.rows[a.sidx.off[s]:a.sidx.off[s+1]]
		row := a.out[s*width : (s+1)*width]
		clear(row)
		for k := 0; k < len(a.hSrc) && len(edges) > 0; k++ {
			hs, he := a.hSrc[k].Val.Data, a.hE[k].Val.Data
			mx := T(0)
			if a.attn == nil {
				for _, e := range edges {
					a.alpha[e] = 0
				}
			} else {
				av := a.attn[k].Val.Data
				// The destination's dh terms of the score, once per segment.
				var prefix T
				for p, x := range a.hDst[k].Val.Data[s*dh : (s+1)*dh] {
					prefix += x * av[p]
				}
				mx = a.scores(edges, hs, he, av[dh:2*dh], av[2*dh:3*dh], prefix)
			}
			var sum T
			for _, e := range edges {
				a.alpha[e] = expT(a.alpha[e] - mx)
				sum += a.alpha[e]
			}
			ro := row[k*dh : (k+1)*dh]
			for _, e := range edges {
				f := a.alpha[e] / sum
				sr, er := a.edgeRows(hs, he, e, len(ro))
				for j := range ro {
					ro[j] += f * (sr[j] + er[j])
				}
			}
		}
		for j, sv := range a.self[s*width : (s+1)*width] {
			if x := sv + row[j]; x >= 0 {
				row[j] = x
			} else {
				row[j] = slope * x
			}
		}
	}
}

// edgeRows returns edge e's source-node and edge-feature projection rows,
// each of length n (= dh; taking it from the slice the caller's loop ranges
// over lets the compiler drop the loop's bounds checks).
func (a *edgeAttnArgs[T]) edgeRows(hs, he []T, e, n int) (sr, er []T) {
	ix := e
	if a.eIdx != nil {
		ix = a.eIdx[e]
	}
	return hs[a.src[e]*n:][:n], he[ix*n:][:n]
}

// scores writes LeakyReLU(prefix + hs[src[e]]·aSrc + he[e]·aEdge) into
// alpha[e] for one segment's edges and returns their maximum. Four edges run
// in lockstep — each score is a serial chain of 2·dh dependent adds, and four
// independent chains keep the adder busy the way gemm's four-row tile does;
// each chain is still its edge's own terms in increasing p. A short last
// group repeats the segment's last edge, which stores the same score again.
func (a *edgeAttnArgs[T]) scores(edges []int, hs, he, aSrc, aEdge []T, prefix T) T {
	slope, dh := a.slope, len(aSrc)
	aEdge = aEdge[:dh]
	mx := negInfT[T]()
	store := func(e int, sc T) {
		if !(sc >= 0) { // NaN takes the slope branch, as in LeakyReLU
			sc = slope * sc
		}
		a.alpha[e] = sc
		if sc > mx {
			mx = sc
		}
	}
	last := len(edges) - 1
	for i := 0; i <= last; i += 4 {
		i0, i1, i2, i3 := edges[i], edges[min(i+1, last)], edges[min(i+2, last)], edges[min(i+3, last)]
		s0, e0 := a.edgeRows(hs, he, i0, dh)
		s1, e1 := a.edgeRows(hs, he, i1, dh)
		s2, e2 := a.edgeRows(hs, he, i2, dh)
		s3, e3 := a.edgeRows(hs, he, i3, dh)
		c0, c1, c2, c3 := prefix, prefix, prefix, prefix
		for p, w := range aSrc {
			c0 += s0[p] * w
			c1 += s1[p] * w
			c2 += s2[p] * w
			c3 += s3[p] * w
		}
		for p, w := range aEdge {
			c0 += e0[p] * w
			c1 += e1[p] * w
			c2 += e2[p] * w
			c3 += e3[p] * w
		}
		store(i0, c0)
		store(i1, c1)
		store(i2, c2)
		store(i3, c3)
	}
	return mx
}
