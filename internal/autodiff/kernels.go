package autodiff

import (
	"sync"

	"sate/internal/par"
)

// This file holds the dense matrix kernels shared by the MatMul/MatMulT
// forward and backward passes. All three are row-parallel over the output:
// each par chunk owns a disjoint row range of out, so there is no shared
// write state and no gradient merge — results are bitwise identical to the
// serial loops for every worker count (see the package par contract).
//
// gemm runs register tiles over full groups of gemmRowTile output rows (see
// gemmChunk): a vector tile first, where the machine has one, then a
// register-blocked 4x2 Go tile over the columns that are left; the row
// remainder, gemmBT and gemmAT — the training-side kernels — are cache-blocked
// for L1/L2 locality: output rows are processed in tiles of gemmRowTile (so a
// row of b is reused across several rows of a while it is hot), and the j
// dimension in blocks of colBlockOf[T] elements (≈2KB per block regardless of
// dtype — 256 float64s or 512 float32s — comfortably L1-resident together
// with the accumulator rows). Tiling and blocking only reorder WHICH (i, j)
// cell is touched when; for any single output element the terms are still
// added in increasing p, so the result is bitwise identical to the unblocked
// axpy loop.
//
// Vector tile. On amd64 with AVX2 (gemm_amd64.{go,s}; decided once, by CPUID
// and XGETBV, into gemmVector) every full block of 8 float64 / 16 float32
// columns of a row tile is computed by one assembly routine, four rows by one
// block in eight YMM accumulators. It is the Go tile's arithmetic, not an
// approximation of it: a lane is one output element; it starts from +0
// (VXORPD) and for p = 0, 1, ... takes round(a[i][p] * b[p][j]) (VMULPD) and
// then round(c + that) (VADDPD) — two IEEE operations, each rounded to the
// element type, in increasing p, exactly the MULSD / ADDSD pair the compiler
// emits for the Go tile's c += a * b; accumulate mode then adds out once, as
// the Go tile does. A fused multiply-add would round once where these round
// twice and move the last bit of most sums, so the routine never uses one.
// Hence the Kernel bitwise contract (DESIGN.md §11) holds across kernels as
// it does across tilings: same bits with the tile on or off, at every worker
// count, forward and backward (TestGemmVectorMatchesGeneric, FuzzGemmVector;
// NaN payloads excepted — x86 picks them by operand order). The contract is
// stated for the default GOAMD64=v1: at v3 the compiler may itself fuse the
// Go tile's multiply-adds, which moves the Go tile's bits, not the
// assembly's. Other architectures, and amd64 without usable AVX2, run the Go
// tile over every column (gemm_other.go); GemmKernel reports which.
//
// The accumulate flag selects between out = product (forward) and
// out += product (backward gradient accumulation). In accumulate mode each
// output row's contribution is summed into a zeroed scratch row first and
// added to out in one pass, preserving the exact floating-point order of
// the original compute-s-then-add backward loops. Scratch rows come from a
// per-dtype process-wide sync.Pool (chunks may run on pool goroutines, so
// they cannot touch the single-threaded tape arena).

// gemmVector says whether gemmChunk's vector register tile and EdgeAttention's
// edge lanes run (amd64 with AVX2 the kernel saves, decided once here) or the
// Go spellings take everything. Only the bitwise tests and benchmarks write
// it, between launches, to run both kernels in one process.
var gemmVector = gemmVectorSupported()

// GemmKernel names the instruction set under gemm and EdgeAttention's edge
// lanes — "avx2" or "generic" — so a latency figure can be traced to the
// kernel that produced it. Both produce the same bits.
func GemmKernel() string {
	if gemmVector {
		return "avx2"
	}
	return "generic"
}

// kernelFlopTarget is the minimum number of multiply-adds a chunk should
// carry so goroutine dispatch stays negligible.
const kernelFlopTarget = 1 << 15

// segGrainMin is the minimum rows/segments per chunk for the cheap
// per-row ops (softmax, scatter): small enough to spread GAT-sized inputs
// across cores, large enough to amortise dispatch.
const segGrainMin = 64

// gemmRowTile is how many output rows a kernel processes together, sharing
// each streamed row of b across all of them.
const gemmRowTile = 4

// colBlockOf is the j-dimension block width in elements, tuned so a block is
// ~2KB for either dtype: 256 float64s, 512 float32s. Compiles to a constant
// per instantiation.
func colBlockOf[T Float]() int {
	var z T
	if _, ok := any(z).(float32); ok {
		return 512
	}
	return 256
}

// rowGrain picks the par grain for a kernel over rows where each row costs
// about rowCost multiply-adds.
func rowGrain(rows, rowCost int) int {
	min := 1
	if rowCost > 0 {
		min = (kernelFlopTarget + rowCost - 1) / rowCost
	}
	return par.Grain(rows, min)
}

// scratch32/scratch64 recycle per-chunk accumulator rows, one pool per
// dtype (sync.Pool is not generic). Entries are *[]T (not []T) so Get/Put
// avoid an interface-boxing allocation.
var (
	scratch32 sync.Pool
	scratch64 sync.Pool
)

func poolFor[T Float]() *sync.Pool {
	var z T
	if _, ok := any(z).(float32); ok {
		return &scratch32
	}
	return &scratch64
}

func getScratch[T Float](n int) *[]T {
	if p, _ := poolFor[T]().Get().(*[]T); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	s := make([]T, n)
	return &s
}

func putScratch[T Float](p *[]T) { poolFor[T]().Put(p) }

// gemmArgs carries one kernel launch's operands into the static chunk
// functions (closure-free: see par.ForCtx).
type gemmArgs[T Float] struct {
	out, a, b  *TensorOf[T]
	accumulate bool
}

// gemm computes out (+)= a @ b (a: m x k, b: k x n, out: m x n). When
// accumulate is false the caller must pass a zero-initialised out (all
// callers hand it an arena-zeroed tensor); rows are accumulated in place.
func gemm[T Float](out, a, b *TensorOf[T], accumulate bool) {
	m, k, n := a.Rows, a.Cols, b.Cols
	par.ForCtx(m, rowGrain(m, k*n), gemmArgs[T]{out, a, b, accumulate}, opsFor[T]().gemmChunk)
}

func gemmChunk[T Float](g gemmArgs[T], lo, hi int) {
	a, b, out := g.a, g.b, g.out
	k, n := a.Cols, b.Cols
	bd := b.Data
	// Full row tiles. The vector tile (when on) takes the leading full column
	// blocks and says how many columns that was; the register-blocked 4x2 Go
	// tile continues from there — all of them where there is no vector tile
	// or n is under one block (the decoder's 64x2). The Go tile keeps eight
	// accumulators, four a-entries and two b-entries — fourteen values
	// against amd64's fifteen usable XMM registers, so the accumulators stay
	// resident across the whole p sweep (the compiler, which schedules the
	// eight products before the eight adds, still parks two of them and one
	// b-entry on the stack: 7 moves per p, where a 4x4 tile's sixteen
	// accumulators alone overflow the file and moved ~30). Either way every
	// output element sums its terms serially in increasing p — the identical
	// operation sequence (+0 start, += term per p) as the row-sweep form — so
	// the result is bitwise identical for any tiling and either kernel. Every
	// path takes every term: skipping a zero a-entry would drop a ±0 addition
	// when b is finite but the NaN of 0·Inf when it is not — the answer would
	// depend on which rows a chunk boundary leaves to the remainder — and the
	// compares measure slower than the multiply-adds they save.
	i0 := lo
	for ; i0+gemmRowTile <= hi; i0 += gemmRowTile {
		base := i0 * k
		a0 := a.Data[base : base+k]
		a1 := a.Data[base+k : base+2*k]
		a2 := a.Data[base+2*k : base+3*k]
		a3 := a.Data[base+3*k : base+4*k]
		o0 := out.Data[(i0+0)*n : (i0+1)*n]
		o1 := out.Data[(i0+1)*n : (i0+2)*n]
		o2 := out.Data[(i0+2)*n : (i0+3)*n]
		o3 := out.Data[(i0+3)*n : (i0+4)*n]
		jt := gemmVectorTile(a.Data[base:base+4*k], bd, out.Data[i0*n:(i0+4)*n], k, n, g.accumulate)
		for ; jt+2 <= n; jt += 2 {
			var c00, c01 T
			var c10, c11 T
			var c20, c21 T
			var c30, c31 T
			off := jt
			for p := 0; p < k; p++ {
				v0, v1, v2, v3 := a0[p], a1[p], a2[p], a3[p]
				bp := bd[off : off+2]
				b0, b1 := bp[0], bp[1]
				off += n
				c00 += v0 * b0
				c01 += v0 * b1
				c10 += v1 * b0
				c11 += v1 * b1
				c20 += v2 * b0
				c21 += v2 * b1
				c30 += v3 * b0
				c31 += v3 * b1
			}
			if g.accumulate {
				o0[jt], o0[jt+1] = o0[jt]+c00, o0[jt+1]+c01
				o1[jt], o1[jt+1] = o1[jt]+c10, o1[jt+1]+c11
				o2[jt], o2[jt+1] = o2[jt]+c20, o2[jt+1]+c21
				o3[jt], o3[jt+1] = o3[jt]+c30, o3[jt+1]+c31
			} else {
				o0[jt], o0[jt+1] = c00, c01
				o1[jt], o1[jt+1] = c10, c11
				o2[jt], o2[jt+1] = c20, c21
				o3[jt], o3[jt+1] = c30, c31
			}
		}
		// Column remainder: 4x1 register tile.
		for ; jt < n; jt++ {
			var c0, c1, c2, c3 T
			off := jt
			for p := 0; p < k; p++ {
				v0, v1, v2, v3 := a0[p], a1[p], a2[p], a3[p]
				bv := bd[off]
				off += n
				c0 += v0 * bv
				c1 += v1 * bv
				c2 += v2 * bv
				c3 += v3 * bv
			}
			if g.accumulate {
				o0[jt] += c0
				o1[jt] += c1
				o2[jt] += c2
				o3[jt] += c3
			} else {
				o0[jt] = c0
				o1[jt] = c1
				o2[jt] = c2
				o3[jt] = c3
			}
		}
	}
	if i0 >= hi {
		return
	}
	// Row remainder (fewer than gemmRowTile rows): cache-blocked axpy sweep,
	// accumulating into zeroed scratch rows first in accumulate mode to
	// preserve the compute-then-add term order. Non-accumulate destination
	// rows are cleared here — out may arrive unzeroed (newNodeStored).
	rows := hi - i0
	colBlock := colBlockOf[T]()
	var dst [gemmRowTile][]T
	var acc []T
	if g.accumulate {
		p := getScratch[T](rows * n)
		defer putScratch(p)
		acc = *p
	}
	for r := 0; r < rows; r++ {
		if g.accumulate {
			dst[r] = acc[r*n : (r+1)*n]
		} else {
			dst[r] = out.Data[(i0+r)*n : (i0+r+1)*n]
		}
		clear(dst[r])
	}
	for j0 := 0; j0 < n; j0 += colBlock {
		j1 := j0 + colBlock
		if j1 > n {
			j1 = n
		}
		for p := 0; p < k; p++ {
			rb := bd[p*n+j0 : p*n+j1]
			for r := 0; r < rows; r++ {
				av := a.Data[(i0+r)*k+p]
				d := dst[r][j0:j1]
				for j, bv := range rb {
					d[j] += av * bv
				}
			}
		}
	}
	if g.accumulate {
		for r := 0; r < rows; r++ {
			ro := out.Data[(i0+r)*n : (i0+r+1)*n]
			for j, v := range acc[r*n : (r+1)*n] {
				ro[j] += v
			}
		}
	}
}

// gemmBT computes out (+)= a @ b^T (a: m x k, b: n x k, out: m x n) without
// materialising the transpose: entry (i, j) is the dot product of row i of a
// and row j of b, both contiguous. Row-tiled so each row of b is reused
// across gemmRowTile rows of a.
func gemmBT[T Float](out, a, b *TensorOf[T], accumulate bool) {
	m, k, n := a.Rows, a.Cols, b.Rows
	par.ForCtx(m, rowGrain(m, k*n), gemmArgs[T]{out, a, b, accumulate}, opsFor[T]().gemmBTChunk)
}

func gemmBTChunk[T Float](g gemmArgs[T], lo, hi int) {
	a, b, out := g.a, g.b, g.out
	k, n := a.Cols, b.Rows
	for i0 := lo; i0 < hi; i0 += gemmRowTile {
		i1 := i0 + gemmRowTile
		if i1 > hi {
			i1 = hi
		}
		for j := 0; j < n; j++ {
			rb := b.Data[j*k : (j+1)*k]
			for i := i0; i < i1; i++ {
				ra := a.Data[i*k : (i+1)*k]
				var s T
				for p, bv := range rb {
					s += ra[p] * bv
				}
				if g.accumulate {
					out.Data[i*n+j] += s
				} else {
					out.Data[i*n+j] = s
				}
			}
		}
	}
}

// gemmAT computes out (+)= a^T @ b (a: m x k, b: m x n, out: k x n). Rather
// than striding down a's columns per output entry, a tile of output rows
// accumulates a[r][i] * b[r] across r into scratch rows (same term order as
// the per-entry dot product), streaming b once per tile, then folds into out
// in one pass.
func gemmAT[T Float](out, a, b *TensorOf[T], accumulate bool) {
	m, k, n := a.Rows, a.Cols, b.Cols
	par.ForCtx(k, rowGrain(k, m*n), gemmArgs[T]{out, a, b, accumulate}, opsFor[T]().gemmATChunk)
}

func gemmATChunk[T Float](g gemmArgs[T], lo, hi int) {
	a, b, out := g.a, g.b, g.out
	m, k, n := a.Rows, a.Cols, b.Cols
	p := getScratch[T](gemmRowTile * n)
	defer putScratch(p)
	acc := *p
	for i0 := lo; i0 < hi; i0 += gemmRowTile {
		i1 := i0 + gemmRowTile
		if i1 > hi {
			i1 = hi
		}
		rows := i1 - i0
		clear(acc[:rows*n])
		for r := 0; r < m; r++ {
			rb := b.Data[r*n : (r+1)*n]
			ra := a.Data[r*k : (r+1)*k]
			for t := 0; t < rows; t++ {
				av := ra[i0+t]
				accRow := acc[t*n : (t+1)*n]
				for j, bv := range rb {
					accRow[j] += av * bv
				}
			}
		}
		for t := 0; t < rows; t++ {
			ro := out.Data[(i0+t)*n : (i0+t+1)*n]
			accRow := acc[t*n : (t+1)*n]
			if g.accumulate {
				for j, v := range accRow {
					ro[j] += v
				}
			} else {
				copy(ro, accRow)
			}
		}
	}
}

// segmentIndex groups the rows 0..n-1 by segment id, preserving row order
// within each segment: rows[off[s]:off[s+1]] lists the rows of segment s in
// increasing order. It lets the segment ops run segment-parallel (each
// segment owned by one chunk) while keeping the exact accumulation order of
// the serial row sweep. Storage comes from the tape arena (valid until the
// next Reset).
type segmentIndex struct {
	off  []int
	rows []int
}

func buildSegmentIndex[T Float](tp *TapeOf[T], seg []int, nSeg int) segmentIndex {
	off := tp.arena.ints.takeZeroed(nSeg + 1)
	for _, s := range seg {
		off[s+1]++
	}
	for s := 0; s < nSeg; s++ {
		off[s+1] += off[s]
	}
	rows := tp.arena.ints.take(len(seg))
	pos := tp.arena.ints.take(nSeg)
	copy(pos, off[:nSeg])
	for i, s := range seg {
		rows[pos[s]] = i
		pos[s]++
	}
	return segmentIndex{off: off, rows: rows}
}

// segSoftmaxArgs drives the segment-parallel softmax chunks: forward
// normalises each segment of x into out; backward applies the softmax
// Jacobian (ga += out * (g - <g, out>_segment)).
type segSoftmaxArgs[T Float] struct {
	x, out, g, ga []T
	sidx          segmentIndex
}

// segmentSoftmaxForward computes the grouped softmax of x (n x 1, groups by
// seg) into out. It returns the segment index when the parallel path built
// one — callers stash it for backward — and the zero segmentIndex on the
// serial path. Segment-parallel: every segment's rows are owned by exactly
// one chunk and visited in increasing row order, so the max/sum/normalise
// pass performs the same floating-point operations as the serial row sweep —
// bitwise identical for every worker count. When one chunk would run anyway,
// the cache-friendly linear sweep skips the index build.
func segmentSoftmaxForward[T Float](tp *TapeOf[T], out, x *TensorOf[T], seg []int, nSeg int) segmentIndex {
	n := x.Rows
	grain := par.Grain(nSeg, segGrainMin)
	if par.NumChunks(nSeg, grain) <= 1 {
		maxv := tp.arena.scalars.take(nSeg)
		for i := range maxv {
			maxv[i] = negInfT[T]()
		}
		for i := 0; i < n; i++ {
			if x.Data[i] > maxv[seg[i]] {
				maxv[seg[i]] = x.Data[i]
			}
		}
		sum := tp.arena.scalars.takeZeroed(nSeg)
		for i := 0; i < n; i++ {
			out.Data[i] = expT(x.Data[i] - maxv[seg[i]])
			sum[seg[i]] += out.Data[i]
		}
		for i := 0; i < n; i++ {
			out.Data[i] /= sum[seg[i]]
		}
		return segmentIndex{}
	}
	sidx := buildSegmentIndex(tp, seg, nSeg)
	par.ForCtx(nSeg, grain, segSoftmaxArgs[T]{x: x.Data, out: out.Data, sidx: sidx}, opsFor[T]().segSoftmaxFwdChunk)
	return sidx
}

func segSoftmaxFwdChunk[T Float](a segSoftmaxArgs[T], lo, hi int) {
	for s := lo; s < hi; s++ {
		rows := a.sidx.rows[a.sidx.off[s]:a.sidx.off[s+1]]
		mx := negInfT[T]()
		for _, i := range rows {
			if a.x[i] > mx {
				mx = a.x[i]
			}
		}
		var sum T
		for _, i := range rows {
			a.out[i] = expT(a.x[i] - mx)
			sum += a.out[i]
		}
		for _, i := range rows {
			a.out[i] /= sum
		}
	}
}

// segmentSoftmaxBackward accumulates the grouped-softmax gradient into ga:
// ga_i += out_i * (g_i - sum_{j in seg(i)} g_j out_j). sidx may be the zero
// segmentIndex; it is built on demand if the parallel path runs.
func segmentSoftmaxBackward[T Float](tp *TapeOf[T], ga, out, g []T, seg []int, nSeg int, sidx segmentIndex) {
	grain := par.Grain(nSeg, segGrainMin)
	if par.NumChunks(nSeg, grain) <= 1 {
		dot := tp.arena.scalars.takeZeroed(nSeg)
		for i, s := range seg {
			dot[s] += g[i] * out[i]
		}
		for i, s := range seg {
			ga[i] += out[i] * (g[i] - dot[s])
		}
		return
	}
	if sidx.off == nil {
		sidx = buildSegmentIndex(tp, seg, nSeg)
	}
	par.ForCtx(nSeg, grain, segSoftmaxArgs[T]{out: out, g: g, ga: ga, sidx: sidx}, opsFor[T]().segSoftmaxBackChunk)
}

func segSoftmaxBackChunk[T Float](a segSoftmaxArgs[T], lo, hi int) {
	for s := lo; s < hi; s++ {
		rows := a.sidx.rows[a.sidx.off[s]:a.sidx.off[s+1]]
		var dot T
		for _, i := range rows {
			dot += a.g[i] * a.out[i]
		}
		for _, i := range rows {
			a.ga[i] += a.out[i] * (a.g[i] - dot)
		}
	}
}
