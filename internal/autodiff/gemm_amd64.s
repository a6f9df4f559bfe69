#include "textflag.h"

// The vector register tile under gemmChunk (kernels.go): four output rows by
// one block of 32-byte-register pairs — 8 float64 or 16 float32 columns —
// held in Y0..Y7 across the whole p sweep. A lane is one output element; per
// p it takes one VMULP (round the product) and one VADDP (round the sum),
// never a fused multiply-add, so it performs the Go tile's operation sequence
// exactly (see the kernels.go header, "Vector tile").
//
// Register plan, both functions:
//   SI, R10, R11, R12  rows 0..3 of a          CX  k        AX  p
//   DX  b at this block's first column         BX  cursor (b rows, then out rows)
//   DI  out row 0 at this block's first column R8  row stride of b and out, bytes
//   R9  blocks left                            R13 accumulate
//   Y0..Y7  c[r][half] = Y(2r+half)   Y8, Y9  b[p][block]   Y10..Y13  a[r][p]
//   Y14, Y15  products

// MAC adds round(A * Y8) to C0 and round(A * Y9) to C1.
#define MAC64(A, C0, C1) \
	VMULPD Y8, A, Y14; \
	VADDPD Y14, C0, C0; \
	VMULPD Y9, A, Y15; \
	VADDPD Y15, C1, C1
#define MAC32(A, C0, C1) \
	VMULPS Y8, A, Y14; \
	VADDPS Y14, C0, C0; \
	VMULPS Y9, A, Y15; \
	VADDPS Y15, C1, C1

// PUT stores one out row (out = c); FOLD adds it in first (out = out + c).
// Both leave BX at the next row.
#define PUT(C0, C1) \
	VMOVUPD C0, (BX); \
	VMOVUPD C1, 32(BX); \
	ADDQ R8, BX
#define FOLD64(C0, C1) \
	VADDPD (BX), C0, C0; \
	VADDPD 32(BX), C1, C1; \
	PUT(C0, C1)
#define FOLD32(C0, C1) \
	VADDPS (BX), C0, C0; \
	VADDPS 32(BX), C1, C1; \
	PUT(C0, C1)

// func gemmTileF64(a, b, out *float64, k, n int, accumulate bool)
// Requires k >= 1 and n >= 8; covers columns [0, n&^7) of the four rows.
TEXT ·gemmTileF64(SB), NOSPLIT, $0-41
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DX
	MOVQ out+16(FP), DI
	MOVQ k+24(FP), CX
	MOVQ n+32(FP), R8
	MOVBQZX accumulate+40(FP), R13
	MOVQ R8, R9
	SHRQ $3, R9
	SHLQ $3, R8
	LEAQ (SI)(CX*8), R10
	LEAQ (R10)(CX*8), R11
	LEAQ (R11)(CX*8), R12

block64:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ DX, BX
	XORQ AX, AX

loop64:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	VBROADCASTSD (SI)(AX*8), Y10
	VBROADCASTSD (R10)(AX*8), Y11
	VBROADCASTSD (R11)(AX*8), Y12
	VBROADCASTSD (R12)(AX*8), Y13
	MAC64(Y10, Y0, Y1)
	MAC64(Y11, Y2, Y3)
	MAC64(Y12, Y4, Y5)
	MAC64(Y13, Y6, Y7)
	ADDQ R8, BX
	INCQ AX
	CMPQ AX, CX
	JLT loop64

	MOVQ DI, BX
	TESTQ R13, R13
	JNE fold64
	PUT(Y0, Y1)
	PUT(Y2, Y3)
	PUT(Y4, Y5)
	PUT(Y6, Y7)
	JMP next64

fold64:
	FOLD64(Y0, Y1)
	FOLD64(Y2, Y3)
	FOLD64(Y4, Y5)
	FOLD64(Y6, Y7)

next64:
	ADDQ $64, DX
	ADDQ $64, DI
	DECQ R9
	JNZ block64
	VZEROUPPER
	RET

// func gemmTileF32(a, b, out *float32, k, n int, accumulate bool)
// Requires k >= 1 and n >= 16; covers columns [0, n&^15) of the four rows.
TEXT ·gemmTileF32(SB), NOSPLIT, $0-41
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DX
	MOVQ out+16(FP), DI
	MOVQ k+24(FP), CX
	MOVQ n+32(FP), R8
	MOVBQZX accumulate+40(FP), R13
	MOVQ R8, R9
	SHRQ $4, R9
	SHLQ $2, R8
	LEAQ (SI)(CX*4), R10
	LEAQ (R10)(CX*4), R11
	LEAQ (R11)(CX*4), R12

block32:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ DX, BX
	XORQ AX, AX

loop32:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	VBROADCASTSS (SI)(AX*4), Y10
	VBROADCASTSS (R10)(AX*4), Y11
	VBROADCASTSS (R11)(AX*4), Y12
	VBROADCASTSS (R12)(AX*4), Y13
	MAC32(Y10, Y0, Y1)
	MAC32(Y11, Y2, Y3)
	MAC32(Y12, Y4, Y5)
	MAC32(Y13, Y6, Y7)
	ADDQ R8, BX
	INCQ AX
	CMPQ AX, CX
	JLT loop32

	MOVQ DI, BX
	TESTQ R13, R13
	JNE fold32
	PUT(Y0, Y1)
	PUT(Y2, Y3)
	PUT(Y4, Y5)
	PUT(Y6, Y7)
	JMP next32

fold32:
	FOLD32(Y0, Y1)
	FOLD32(Y2, Y3)
	FOLD32(Y4, Y5)
	FOLD32(Y6, Y7)

next32:
	ADDQ $64, DX
	ADDQ $64, DI
	DECQ R9
	JNZ block32
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xcr0() uint32
// The low word of XCR0; faults unless CPUID leaf 1 reports OSXSAVE.
TEXT ·xcr0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
