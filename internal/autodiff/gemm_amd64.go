package autodiff

import "unsafe"

// The assembly half of gemmChunk's vector tile (gemm_amd64.s). Each covers,
// for four consecutive rows of a and out starting at the given elements,
// every full block of 8 float64 (16 float32) columns; k >= 1 and a full block
// are the caller's to guarantee.
//
//go:noescape
func gemmTileF64(a, b, out *float64, k, n int, accumulate bool)

//go:noescape
func gemmTileF32(a, b, out *float32, k, n int, accumulate bool)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xcr0() uint32

const (
	cpuidOSXSAVE = 1 << 27 // leaf 1 ECX: the OS enabled XSAVE, XGETBV is legal
	cpuidAVX     = 1 << 28 // leaf 1 ECX
	cpuidAVX2    = 1 << 5  // leaf 7 EBX
	xcr0YMM      = 0b110   // XCR0 bits 1-2: SSE and AVX state saved by the OS
)

// avx2Usable decides from CPUID leaf 1 ECX, leaf 7 EBX and XCR0 whether the
// vector tile may run: the CPU must decode AVX and AVX2, and the kernel must
// have enabled XSAVE with both the SSE and the YMM state components — a
// kernel that does not save the upper register halves across a context switch
// would corrupt the accumulators, so AVX2 without them gets the Go tile.
func avx2Usable(leaf1ECX, leaf7EBX, xcr0 uint32) bool {
	return leaf1ECX&cpuidOSXSAVE != 0 && leaf1ECX&cpuidAVX != 0 && leaf7EBX&cpuidAVX2 != 0 && xcr0&xcr0YMM == xcr0YMM
}

func gemmVectorSupported() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	_, b7, _, _ := cpuid(7, 0)
	var x uint32
	if c1&cpuidOSXSAVE != 0 {
		x = xcr0()
	}
	return avx2Usable(c1, b7, x)
}

// gemmVectorTile runs the vector tile over rows a[0:4k] and out[0:4n] and
// returns how many leading columns it covered (a multiple of the block
// width, 0 when the tile is off). Everything the assembly would read past is
// kept out by guard: no k == 0 (nothing to point at), no n below one block,
// and operands shorter than the tile go back to the Go tile, whose bounds
// checks report them. The dtype branch is on the element size — a constant
// per instantiation — because boxing a slice into any for a type switch
// allocates once per tile.
func gemmVectorTile[T Float](a, b, out []T, k, n int, accumulate bool) int {
	var z T
	block := int(64 / unsafe.Sizeof(z))
	if !gemmVector || k == 0 || n < block || len(a) < 4*k || len(b) < k*n || len(out) < 4*n {
		return 0
	}
	pa, pb, po := unsafe.Pointer(&a[0]), unsafe.Pointer(&b[0]), unsafe.Pointer(&out[0])
	if unsafe.Sizeof(z) == 4 {
		gemmTileF32((*float32)(pa), (*float32)(pb), (*float32)(po), k, n, accumulate)
	} else {
		gemmTileF64((*float64)(pa), (*float64)(pb), (*float64)(po), k, n, accumulate)
	}
	return n &^ (block - 1)
}
