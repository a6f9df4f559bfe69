package autodiff

import "testing"

// TestAVX2Usable feeds the detection function synthetic CPUID / XCR0 words:
// the vector tile needs the AVX and AVX2 decode bits, OSXSAVE, and a kernel
// that saves both the SSE and the YMM state.
func TestAVX2Usable(t *testing.T) {
	const osxsave, avx, avx2 = cpuidOSXSAVE, cpuidAVX, cpuidAVX2
	for _, c := range []struct {
		name             string
		ecx1, ebx7, xcr0 uint32
		want             bool
	}{
		{"everything", osxsave | avx, avx2, 0b111, true},
		{"other feature bits set too", ^uint32(0), ^uint32(0), ^uint32(0), true},
		{"AVX2 but the OS saves no YMM state", osxsave | avx, avx2, 0b011, false},
		{"YMM state without SSE state", osxsave | avx, avx2, 0b100, false},
		{"AVX2 but no OSXSAVE (XCR0 unread)", avx, avx2, 0, false},
		{"AVX without AVX2", osxsave | avx, 0, 0b111, false},
		{"AVX2 bit without AVX", osxsave, avx2, 0b111, false},
		{"nothing", 0, 0, 0, false},
	} {
		if got := avx2Usable(c.ecx1, c.ebx7, c.xcr0); got != c.want {
			t.Errorf("%s: avx2Usable(%#x, %#x, %#b) = %v, want %v", c.name, c.ecx1, c.ebx7, c.xcr0, got, c.want)
		}
	}
	want := "generic"
	if gemmVectorSupported() {
		want = "avx2"
	}
	if GemmKernel() != want {
		t.Errorf("GemmKernel() = %q on a machine where gemmVectorSupported() = %v", GemmKernel(), gemmVectorSupported())
	}
}
