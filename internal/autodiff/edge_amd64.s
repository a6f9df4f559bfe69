#include "textflag.h"

// The vector lanes under edgeAttnChunk (edgeattn.go): the attention scores,
// exp(α − max) and the message fold of a block of destination segments for
// one head. Every lane performs one Go-spelled chain's operations in order,
// each rounded to the element type: a multiply-add is a VMULP then a VADDP,
// never fused (the exp's FMA variant copies math.Exp's own fused
// instructions), so the bits are those of the Go spelling (see the
// edgeattn.go header, "Edge lanes").

// ---- Scores -------------------------------------------------------------
//
// A lane is one edge. float64 runs two YMM chains of four edges (Y0, Y1), or
// only the first when the group has at most four; float32 runs one YMM chain
// of eight (Y0). A group past the segment's end repeats its last edge, which
// stores the same score again. Per part (source row, then edge row) the lanes'
// row offsets sit in R8..R15 and BX walks the rows' columns, DX the weights:
// a block of four p loads each lane's four columns, transposes them so a
// register holds one p for every lane, and takes the four terms in order.
//
// Each lane starts from its destination's prefix, prefix[dst[e]] — the
// list may run over several segments, and lanes fill across their ends.
// Frame: 0..56(SP) the group's eight edge ids, 64(SP) the part (0 source,
// 1 edge).

// LANEID stores edges[i + min(L, AX)] (SI = &edges[i], AX = lanes left − 1)
// at OFF(SP).
#define LANEID(L, OFF) \
	MOVQ $L, CX; \
	CMPQ CX, AX; \
	CMOVQGT AX, CX; \
	MOVQ (SI)(CX*8), CX; \
	MOVQ CX, OFF(SP)

#define LANEIDS \
	LANEID(0, 0); \
	LANEID(1, 8); \
	LANEID(2, 16); \
	LANEID(3, 24); \
	LANEID(4, 32); \
	LANEID(5, 40); \
	LANEID(6, 48); \
	LANEID(7, 56)

// ROWOFF sets R to IX[id at OFF(SP)] · DX (the row stride in bytes).
#define ROWOFF(IX, OFF, R) \
	MOVQ OFF(SP), CX; \
	MOVQ (IX)(CX*8), R; \
	IMULQ DX, R

#define ROWOFFS(IX) \
	ROWOFF(IX, 0, R8); \
	ROWOFF(IX, 8, R9); \
	ROWOFF(IX, 16, R10); \
	ROWOFF(IX, 24, R11); \
	ROWOFF(IX, 32, R12); \
	ROWOFF(IX, 40, R13); \
	ROWOFF(IX, 48, R14); \
	ROWOFF(IX, 56, R15)

// OWNOFFS sets each lane's offset to its own edge's row.
#define OWNOFF(OFF, R) \
	MOVQ OFF(SP), R; \
	IMULQ DX, R

#define OWNOFFS \
	OWNOFF(0, R8); \
	OWNOFF(8, R9); \
	OWNOFF(16, R10); \
	OWNOFF(24, R11); \
	OWNOFF(32, R12); \
	OWNOFF(40, R13); \
	OWNOFF(48, R14); \
	OWNOFF(56, R15)

// LANEDST sets CX to dst[id at OFF(SP)] (AX = dst).
#define LANEDST(OFF) \
	MOVQ OFF(SP), CX; \
	MOVQ (AX)(CX*8), CX

// PREFIX64 gathers the lanes' starting sums (BX = prefix) into Y0 (lanes
// 0..3) and Y1 (lanes 4..7).
#define PREFIX64 \
	LANEDST(0); VMOVSD (BX)(CX*8), X0; \
	LANEDST(8); VMOVHPD (BX)(CX*8), X0, X0; \
	LANEDST(16); VMOVSD (BX)(CX*8), X2; \
	LANEDST(24); VMOVHPD (BX)(CX*8), X2, X2; \
	VINSERTF128 $1, X2, Y0, Y0; \
	LANEDST(32); VMOVSD (BX)(CX*8), X1; \
	LANEDST(40); VMOVHPD (BX)(CX*8), X1, X1; \
	LANEDST(48); VMOVSD (BX)(CX*8), X3; \
	LANEDST(56); VMOVHPD (BX)(CX*8), X3, X3; \
	VINSERTF128 $1, X3, Y1, Y1

// PREFIX32 gathers the eight lanes' starting sums into Y0.
#define PREFIX32 \
	LANEDST(0); VMOVSS (BX)(CX*4), X0; \
	LANEDST(8); VINSERTPS $0x10, (BX)(CX*4), X0, X0; \
	LANEDST(16); VINSERTPS $0x20, (BX)(CX*4), X0, X0; \
	LANEDST(24); VINSERTPS $0x30, (BX)(CX*4), X0, X0; \
	LANEDST(32); VMOVSS (BX)(CX*4), X1; \
	LANEDST(40); VINSERTPS $0x10, (BX)(CX*4), X1, X1; \
	LANEDST(48); VINSERTPS $0x20, (BX)(CX*4), X1, X1; \
	LANEDST(56); VINSERTPS $0x30, (BX)(CX*4), X1, X1; \
	VINSERTF128 $1, X1, Y0, Y0

// BLOCK64 takes p .. p+3 for the four lanes at O0..O3 into chain C: XA/YA
// holds rows 0 and 2 at p, p+1, XB/YB rows 1 and 3, XC/YC and XD/YD the same
// at p+2, p+3; an unpack then gives one p across the four lanes.
#define BLOCK64(O0, O1, O2, O3, C, XA, YA, XB, YB, XC, YC, XD, YD, T) \
	VMOVUPD (BX)(O0*1), XA; \
	VMOVUPD (BX)(O1*1), XB; \
	VINSERTF128 $1, (BX)(O2*1), YA, YA; \
	VINSERTF128 $1, (BX)(O3*1), YB, YB; \
	VMOVUPD 16(BX)(O0*1), XC; \
	VMOVUPD 16(BX)(O1*1), XD; \
	VINSERTF128 $1, 16(BX)(O2*1), YC, YC; \
	VINSERTF128 $1, 16(BX)(O3*1), YD, YD; \
	VUNPCKLPD YB, YA, T; \
	VMULPD Y12, T, T; \
	VADDPD T, C, C; \
	VUNPCKHPD YB, YA, T; \
	VMULPD Y13, T, T; \
	VADDPD T, C, C; \
	VUNPCKLPD YD, YC, T; \
	VMULPD Y14, T, T; \
	VADDPD T, C, C; \
	VUNPCKHPD YD, YC, T; \
	VMULPD Y15, T, T; \
	VADDPD T, C, C

// TAIL64 takes the single p at BX (weight in Y12) for four lanes.
#define TAIL64(O0, O1, O2, O3, C, XA, YA, XB) \
	VMOVSD (BX)(O0*1), XA; \
	VMOVHPD (BX)(O1*1), XA, XA; \
	VMOVSD (BX)(O2*1), XB; \
	VMOVHPD (BX)(O3*1), XB, XB; \
	VINSERTF128 $1, XB, YA, YA; \
	VMULPD Y12, YA, YA; \
	VADDPD YA, C, C

// LEAKY64 rewrites chain C as LeakyReLU(C): the slope (Y12) times every lane
// that is not >= 0 (Y13 = 0), NaN included, as the Go branch does.
#define LEAKY64(C) \
	VMULPD Y12, C, Y4; \
	VCMPPD $0x1d, Y13, C, Y5; \
	VBLENDVPD Y5, C, Y4, C

// STORE64 scatters the four lanes of X/Y to P[id] for the ids at O0..O3(SP).
#define STORE64(P, X, Y, O0, O1, O2, O3) \
	MOVQ O0(SP), CX; \
	VMOVSD X, (P)(CX*8); \
	MOVQ O1(SP), CX; \
	VMOVHPD X, (P)(CX*8); \
	VEXTRACTF128 $1, Y, X6; \
	MOVQ O2(SP), CX; \
	VMOVSD X6, (P)(CX*8); \
	MOVQ O3(SP), CX; \
	VMOVHPD X6, (P)(CX*8)

// func edgeScoresF64(edges *int, n int, dst, src, eIdx *int, hs, he, aSrc, aEdge *float64, dh int, prefix *float64, slope float64, alpha, raw *float64)
TEXT ·edgeScoresF64(SB), NOSPLIT, $72-112
	MOVQ edges+0(FP), SI
	MOVQ n+8(FP), DI

group64:
	LEAQ -1(DI), AX
	LANEIDS
	MOVQ dst+16(FP), AX
	MOVQ prefix+80(FP), BX
	PREFIX64
	MOVQ dh+72(FP), DX
	SHLQ $3, DX
	MOVQ src+24(FP), AX
	ROWOFFS(AX)
	MOVQ hs+40(FP), BX
	MOVQ aSrc+56(FP), DX
	MOVQ $0, 64(SP)
	JMP part64

edgePart64:
	MOVQ dh+72(FP), DX
	SHLQ $3, DX
	MOVQ eIdx+32(FP), AX
	TESTQ AX, AX
	JZ ownRows64
	ROWOFFS(AX)
	JMP edgeRows64

ownRows64:
	OWNOFFS

edgeRows64:
	MOVQ he+48(FP), BX
	MOVQ aEdge+64(FP), DX
	MOVQ $1, 64(SP)

part64:
	MOVQ dh+72(FP), CX
	SHRQ $2, CX
	JZ tail64
	CMPQ DI, $4
	JLE narrow64

wide64:
	VBROADCASTSD (DX), Y12
	VBROADCASTSD 8(DX), Y13
	VBROADCASTSD 16(DX), Y14
	VBROADCASTSD 24(DX), Y15
	BLOCK64(R8, R9, R10, R11, Y0, X4, Y4, X5, Y5, X6, Y6, X7, Y7, Y8)
	BLOCK64(R12, R13, R14, R15, Y1, X2, Y2, X3, Y3, X9, Y9, X10, Y10, Y11)
	ADDQ $32, BX
	ADDQ $32, DX
	DECQ CX
	JNZ wide64
	JMP tail64

narrow64:
	VBROADCASTSD (DX), Y12
	VBROADCASTSD 8(DX), Y13
	VBROADCASTSD 16(DX), Y14
	VBROADCASTSD 24(DX), Y15
	BLOCK64(R8, R9, R10, R11, Y0, X4, Y4, X5, Y5, X6, Y6, X7, Y7, Y8)
	ADDQ $32, BX
	ADDQ $32, DX
	DECQ CX
	JNZ narrow64

tail64:
	MOVQ dh+72(FP), CX
	ANDQ $3, CX
	JZ partDone64

tailP64:
	VBROADCASTSD (DX), Y12
	TAIL64(R8, R9, R10, R11, Y0, X4, Y4, X5)
	CMPQ DI, $4
	JLE tailNext64
	TAIL64(R12, R13, R14, R15, Y1, X2, Y2, X3)

tailNext64:
	ADDQ $8, BX
	ADDQ $8, DX
	DECQ CX
	JNZ tailP64

partDone64:
	CMPQ 64(SP), $0
	JEQ edgePart64

	VBROADCASTSD slope+88(FP), Y12
	VXORPD Y13, Y13, Y13
	MOVQ raw+104(FP), AX
	TESTQ AX, AX
	JZ alpha64
	STORE64(AX, X0, Y0, 0, 8, 16, 24)
	CMPQ DI, $4
	JLE alpha64
	STORE64(AX, X1, Y1, 32, 40, 48, 56)

alpha64:
	LEAKY64(Y0)
	LEAKY64(Y1)
	MOVQ alpha+96(FP), AX
	STORE64(AX, X0, Y0, 0, 8, 16, 24)
	CMPQ DI, $4
	JLE next64
	STORE64(AX, X1, Y1, 32, 40, 48, 56)

next64:
	ADDQ $64, SI
	SUBQ $8, DI
	JGT group64
	VZEROUPPER
	RET

// BLOCK32 takes p .. p+3 for the eight lanes: Y4..Y7 hold rows 0..3 in their
// low halves and rows 4..7 in their high halves; two rounds of unpacks give
// one p across all eight.
#define BLOCK32 \
	VMOVUPS (BX)(R8*1), X4; \
	VMOVUPS (BX)(R9*1), X5; \
	VMOVUPS (BX)(R10*1), X6; \
	VMOVUPS (BX)(R11*1), X7; \
	VINSERTF128 $1, (BX)(R12*1), Y4, Y4; \
	VINSERTF128 $1, (BX)(R13*1), Y5, Y5; \
	VINSERTF128 $1, (BX)(R14*1), Y6, Y6; \
	VINSERTF128 $1, (BX)(R15*1), Y7, Y7; \
	VUNPCKLPS Y5, Y4, Y8; \
	VUNPCKHPS Y5, Y4, Y9; \
	VUNPCKLPS Y7, Y6, Y10; \
	VUNPCKHPS Y7, Y6, Y11; \
	VUNPCKLPD Y10, Y8, Y4; \
	VMULPS Y12, Y4, Y4; \
	VADDPS Y4, Y0, Y0; \
	VUNPCKHPD Y10, Y8, Y5; \
	VMULPS Y13, Y5, Y5; \
	VADDPS Y5, Y0, Y0; \
	VUNPCKLPD Y11, Y9, Y6; \
	VMULPS Y14, Y6, Y6; \
	VADDPS Y6, Y0, Y0; \
	VUNPCKHPD Y11, Y9, Y7; \
	VMULPS Y15, Y7, Y7; \
	VADDPS Y7, Y0, Y0

// TAIL32 takes the single p at BX (weight in Y12) for the eight lanes.
#define TAIL32 \
	VMOVSS (BX)(R8*1), X4; \
	VINSERTPS $0x10, (BX)(R9*1), X4, X4; \
	VINSERTPS $0x20, (BX)(R10*1), X4, X4; \
	VINSERTPS $0x30, (BX)(R11*1), X4, X4; \
	VMOVSS (BX)(R12*1), X5; \
	VINSERTPS $0x10, (BX)(R13*1), X5, X5; \
	VINSERTPS $0x20, (BX)(R14*1), X5, X5; \
	VINSERTPS $0x30, (BX)(R15*1), X5, X5; \
	VINSERTF128 $1, X5, Y4, Y4; \
	VMULPS Y12, Y4, Y4; \
	VADDPS Y4, Y0, Y0

// STORE32 scatters the eight lanes of Y0 (X6 scratch) to P[id].
#define STORE32(P) \
	MOVQ 0(SP), CX; \
	VMOVSS X0, (P)(CX*4); \
	MOVQ 8(SP), CX; \
	VEXTRACTPS $1, X0, (P)(CX*4); \
	MOVQ 16(SP), CX; \
	VEXTRACTPS $2, X0, (P)(CX*4); \
	MOVQ 24(SP), CX; \
	VEXTRACTPS $3, X0, (P)(CX*4); \
	VEXTRACTF128 $1, Y0, X6; \
	MOVQ 32(SP), CX; \
	VMOVSS X6, (P)(CX*4); \
	MOVQ 40(SP), CX; \
	VEXTRACTPS $1, X6, (P)(CX*4); \
	MOVQ 48(SP), CX; \
	VEXTRACTPS $2, X6, (P)(CX*4); \
	MOVQ 56(SP), CX; \
	VEXTRACTPS $3, X6, (P)(CX*4)

// func edgeScoresF32(edges *int, n int, dst, src, eIdx *int, hs, he, aSrc, aEdge *float32, dh int, prefix *float32, slope float64, alpha, raw *float32)
TEXT ·edgeScoresF32(SB), NOSPLIT, $72-112
	MOVQ edges+0(FP), SI
	MOVQ n+8(FP), DI

group32:
	LEAQ -1(DI), AX
	LANEIDS
	MOVQ dst+16(FP), AX
	MOVQ prefix+80(FP), BX
	PREFIX32
	MOVQ dh+72(FP), DX
	SHLQ $2, DX
	MOVQ src+24(FP), AX
	ROWOFFS(AX)
	MOVQ hs+40(FP), BX
	MOVQ aSrc+56(FP), DX
	MOVQ $0, 64(SP)
	JMP part32

edgePart32:
	MOVQ dh+72(FP), DX
	SHLQ $2, DX
	MOVQ eIdx+32(FP), AX
	TESTQ AX, AX
	JZ ownRows32
	ROWOFFS(AX)
	JMP edgeRows32

ownRows32:
	OWNOFFS

edgeRows32:
	MOVQ he+48(FP), BX
	MOVQ aEdge+64(FP), DX
	MOVQ $1, 64(SP)

part32:
	MOVQ dh+72(FP), CX
	SHRQ $2, CX
	JZ tail32

block32:
	VBROADCASTSS (DX), Y12
	VBROADCASTSS 4(DX), Y13
	VBROADCASTSS 8(DX), Y14
	VBROADCASTSS 12(DX), Y15
	BLOCK32
	ADDQ $16, BX
	ADDQ $16, DX
	DECQ CX
	JNZ block32

tail32:
	MOVQ dh+72(FP), CX
	ANDQ $3, CX
	JZ partDone32

tailP32:
	VBROADCASTSS (DX), Y12
	TAIL32
	ADDQ $4, BX
	ADDQ $4, DX
	DECQ CX
	JNZ tailP32

partDone32:
	CMPQ 64(SP), $0
	JEQ edgePart32

	VMOVSD slope+88(FP), X12
	VCVTSD2SS X12, X12, X12
	VBROADCASTSS X12, Y12
	VXORPS Y13, Y13, Y13
	MOVQ raw+104(FP), AX
	TESTQ AX, AX
	JZ alpha32
	STORE32(AX)

alpha32:
	VMULPS Y12, Y0, Y4
	VCMPPS $0x1d, Y13, Y0, Y5
	VBLENDVPS Y5, Y0, Y4, Y0
	MOVQ alpha+96(FP), AX
	STORE32(AX)
	ADDQ $64, SI
	SUBQ $8, DI
	JGT group32
	VZEROUPPER
	RET

// ---- exp(α − max) ---------------------------------------------------------
//
// A lane is one edge, four a group, always in float64 (math.Exp's width;
// float32 widens exactly and narrows once at the end, as expT does). The
// sequence is math/exp_amd64.s's main path, instruction for instruction, with
// its constants: reduce by n = round(x·log2 e) in two parts of ln 2, scale by
// 1/16, a Taylor polynomial, square back four times, and multiply by 2^n built
// in the exponent field. Each lane subtracts its own destination's max, so
// the list may run over several segments. Register plan: DX alpha, SI edges,
// DI n, AX edges done, R8 &edges[AX], R9 mx, R14 dst, R10..R13 the lanes'
// edge ids, Y15 their maxima, Y0 x, Y1 and Y3 scratch, X2 n.

#define EXPCONST(name, v) \
	DATA name<>+0(SB)/8, v; \
	DATA name<>+8(SB)/8, v; \
	DATA name<>+16(SB)/8, v; \
	DATA name<>+24(SB)/8, v; \
	GLOBL name<>(SB), RODATA, $32

EXPCONST(expLog2e, $1.4426950408889634073599246810018920)
EXPCONST(expLn2U, $0.69314718055966295651160180568695068359375)
EXPCONST(expLn2L, $0.28235290563031577122588448175013436025525412068e-12)
EXPCONST(expSixteenth, $0.0625)
EXPCONST(expHalf, $0.5)
EXPCONST(expOne, $1.0)
EXPCONST(expTwo, $2.0)
EXPCONST(expC24, $1.6666666666666666667e-1)
EXPCONST(expC32, $4.1666666666666666667e-2)
EXPCONST(expC40, $8.3333333333333333333e-3)
EXPCONST(expC48, $1.3888888888888888889e-3)
EXPCONST(expC56, $1.9841269841269841270e-4)
EXPCONST(expC64, $2.4801587301587301587e-5)
EXPCONST(expLo, $-708.0)
EXPCONST(expHi, $709.0)

DATA expBias<>+0(SB)/4, $1023
DATA expBias<>+4(SB)/4, $1023
DATA expBias<>+8(SB)/4, $1023
DATA expBias<>+12(SB)/4, $1023
GLOBL expBias<>(SB), RODATA, $16

// EXPIDS loads the group's four edge ids, clamped to the last edge.
#define EXPID(L, R) \
	MOVQ $L, CX; \
	CMPQ CX, BX; \
	CMOVQGT BX, CX; \
	MOVQ (R8)(CX*8), R

#define EXPIDS \
	MOVQ DI, BX; \
	SUBQ AX, BX; \
	DECQ BX; \
	LEAQ (SI)(AX*8), R8; \
	EXPID(0, R10); \
	EXPID(1, R11); \
	EXPID(2, R12); \
	EXPID(3, R13)

// EXPRANGE leaves the group (to STOP) unless every lane of Y0 is in
// [expLo, expHi] = [−708, 709], where math.Exp's n lies in [−1021, 1023] and
// it takes the main path; NaN is in no range.
#define EXPRANGE(STOP) \
	VCMPPD $0x1d, expLo<>(SB), Y0, Y3; \
	VCMPPD $0x12, expHi<>(SB), Y0, Y1; \
	VANDPD Y1, Y3, Y3; \
	VMOVMSKPD Y3, CX; \
	CMPQ CX, $15; \
	JNE STOP

// EXPREDUCE: Y1 = float64(n), X2 = n.
#define EXPREDUCE \
	VMULPD expLog2e<>(SB), Y0, Y1; \
	VCVTPD2DQY Y1, X2; \
	VCVTDQ2PD X2, Y1

// EXPPLAIN is the unfused main path from the reduction to the + 1.
#define EXPPLAIN \
	VMULPD expLn2U<>(SB), Y1, Y3; \
	VSUBPD Y3, Y0, Y0; \
	VMULPD expLn2L<>(SB), Y1, Y3; \
	VSUBPD Y3, Y0, Y0; \
	VMULPD expSixteenth<>(SB), Y0, Y0; \
	VMULPD expC64<>(SB), Y0, Y1; \
	VADDPD expC56<>(SB), Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD expC48<>(SB), Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD expC40<>(SB), Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD expC32<>(SB), Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD expC24<>(SB), Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD expHalf<>(SB), Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD expOne<>(SB), Y1, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD expTwo<>(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD expTwo<>(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD expTwo<>(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD expTwo<>(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD expOne<>(SB), Y0, Y0

// EXPFUSED is math/exp_amd64.s's avxfma branch, the same span.
#define EXPFUSED \
	VFNMADD231PD expLn2U<>(SB), Y1, Y0; \
	VFNMADD231PD expLn2L<>(SB), Y1, Y0; \
	VMULPD expSixteenth<>(SB), Y0, Y0; \
	VMOVUPD expC64<>(SB), Y1; \
	VFMADD213PD expC56<>(SB), Y0, Y1; \
	VFMADD213PD expC48<>(SB), Y0, Y1; \
	VFMADD213PD expC40<>(SB), Y0, Y1; \
	VFMADD213PD expC32<>(SB), Y0, Y1; \
	VFMADD213PD expC24<>(SB), Y0, Y1; \
	VFMADD213PD expHalf<>(SB), Y0, Y1; \
	VFMADD213PD expOne<>(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD expTwo<>(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD expTwo<>(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD expTwo<>(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD expTwo<>(SB), Y0, Y1; \
	VFMADD213PD expOne<>(SB), Y1, Y0

// EXPSCALE multiplies Y0 by 2^n (n + 1023 is in [2, 2046] here).
#define EXPSCALE \
	VPADDD expBias<>(SB), X2, X2; \
	VPMOVZXDQ X2, Y2; \
	VPSLLQ $52, Y2, Y2; \
	VMULPD Y2, Y0, Y0

// MXGATHER64 gathers the lanes' maxima, mx[dst[id]], into Y15 (R14 = dst,
// R9 = mx); MXGATHER32 into X15.
#define MXGATHER64 \
	MOVQ (R14)(R10*8), CX; \
	VMOVSD (R9)(CX*8), X15; \
	MOVQ (R14)(R11*8), CX; \
	VMOVHPD (R9)(CX*8), X15, X15; \
	MOVQ (R14)(R12*8), CX; \
	VMOVSD (R9)(CX*8), X14; \
	MOVQ (R14)(R13*8), CX; \
	VMOVHPD (R9)(CX*8), X14, X14; \
	VINSERTF128 $1, X14, Y15, Y15

#define MXGATHER32 \
	MOVQ (R14)(R10*8), CX; \
	VMOVSS (R9)(CX*4), X15; \
	MOVQ (R14)(R11*8), CX; \
	VINSERTPS $0x10, (R9)(CX*4), X15, X15; \
	MOVQ (R14)(R12*8), CX; \
	VINSERTPS $0x20, (R9)(CX*4), X15, X15; \
	MOVQ (R14)(R13*8), CX; \
	VINSERTPS $0x30, (R9)(CX*4), X15, X15

// func edgeExpF64(edges *int, n int, dst *int, alpha, mx *float64, fma bool) int
TEXT ·edgeExpF64(SB), NOSPLIT, $0-56
	MOVQ edges+0(FP), SI
	MOVQ n+8(FP), DI
	MOVQ dst+16(FP), R14
	MOVQ alpha+24(FP), DX
	MOVQ mx+32(FP), R9
	XORQ AX, AX

expGroup64:
	EXPIDS
	VMOVSD (DX)(R10*8), X0
	VMOVHPD (DX)(R11*8), X0, X0
	VMOVSD (DX)(R12*8), X1
	VMOVHPD (DX)(R13*8), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	MXGATHER64
	VSUBPD Y15, Y0, Y0
	EXPRANGE(expStop64)
	EXPREDUCE
	CMPB fma+40(FP), $0
	JNE expFused64
	EXPPLAIN
	JMP expScale64

expFused64:
	EXPFUSED

expScale64:
	EXPSCALE
	VMOVSD X0, (DX)(R10*8)
	VMOVHPD X0, (DX)(R11*8)
	VEXTRACTF128 $1, Y0, X1
	VMOVSD X1, (DX)(R12*8)
	VMOVHPD X1, (DX)(R13*8)
	ADDQ $4, AX
	CMPQ AX, DI
	JLT expGroup64
	MOVQ DI, AX

expStop64:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func edgeExpF32(edges *int, n int, dst *int, alpha, mx *float32, fma bool) int
TEXT ·edgeExpF32(SB), NOSPLIT, $0-56
	MOVQ edges+0(FP), SI
	MOVQ n+8(FP), DI
	MOVQ dst+16(FP), R14
	MOVQ alpha+24(FP), DX
	MOVQ mx+32(FP), R9
	XORQ AX, AX

expGroup32:
	EXPIDS
	VMOVSS (DX)(R10*4), X0
	VINSERTPS $0x10, (DX)(R11*4), X0, X0
	VINSERTPS $0x20, (DX)(R12*4), X0, X0
	VINSERTPS $0x30, (DX)(R13*4), X0, X0
	MXGATHER32
	VSUBPS X15, X0, X0
	VCVTPS2PD X0, Y0
	EXPRANGE(expStop32)
	EXPREDUCE
	CMPB fma+40(FP), $0
	JNE expFused32
	EXPPLAIN
	JMP expScale32

expFused32:
	EXPFUSED

expScale32:
	EXPSCALE
	VCVTPD2PSY Y0, X0
	VMOVSS X0, (DX)(R10*4)
	VEXTRACTPS $1, X0, (DX)(R11*4)
	VEXTRACTPS $2, X0, (DX)(R12*4)
	VEXTRACTPS $3, X0, (DX)(R13*4)
	ADDQ $4, AX
	CMPQ AX, DI
	JLT expGroup32
	MOVQ DI, AX

expStop32:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// ---- Message fold ---------------------------------------------------------
//
// A lane is one column of a destination's row ro: ro[j] += f·(sr[j] + er[j])
// for the segment's edges in order. Segment i's edges are
// edges[off[i]:off[i+1]] and its row starts stride elements after segment
// i−1's. Columns go in blocks of four registers, then one register, then one
// column at a time; each block holds its slice of ro in registers across all
// of the segment's edges. Register plan: R14 the segment's first edge, R15 its
// edge count, SI / BX the edge cursor and count, DX alpha, R12 src, R13 eIdx
// (0: the edge's own row), R8 the row stride in bytes, R9 the block's first
// column in bytes, R10 / R11 hs / he at that column, DI ro, AX / CX the edge's
// row offsets, Y4 its weight. Frame: 0(SP) the segment, 8(SP) its row.

// FOLDEDGE loads edge (SI)'s weight into Y4 (BCAST) and its row offsets into
// CX (source) and AX (edge feature).
#define FOLDEDGE(BCAST, SCALE) \
	MOVQ (SI), AX; \
	BCAST (DX)(AX*SCALE), Y4; \
	MOVQ (R12)(AX*8), CX; \
	IMULQ R8, CX; \
	TESTQ R13, R13; \
	JZ 2(PC); \
	MOVQ (R13)(AX*8), AX; \
	IMULQ R8, AX

// FOLDTERM adds W·(sr + er) at byte OFF of the block into accumulator C.
#define FOLDTERM(MOV, ADD, MUL, W, OFF, C, T) \
	MOV OFF(R10)(CX*1), T; \
	ADD OFF(R11)(AX*1), T, T; \
	MUL W, T, T; \
	ADD T, C, C

// FOLDSTART points SI and BX at the segment's edge list for the next block.
#define FOLDSTART \
	MOVQ R14, SI; \
	MOVQ R15, BX

// FOLDNEXT moves the block's column (R9) and hs / he (R10, R11) on by W bytes.
#define FOLDNEXT(W) \
	ADDQ W, R9; \
	ADDQ W, R10; \
	ADDQ W, R11

// func edgeFoldF64(edges, off *int, nSeg int, src, eIdx *int, hs, he, alpha, ro *float64, dh, stride int)
TEXT ·edgeFoldF64(SB), NOSPLIT, $16-88
	MOVQ $0, 0(SP)
	MOVQ ro+64(FP), AX
	MOVQ AX, 8(SP)

foldSeg64:
	MOVQ 0(SP), AX
	CMPQ AX, nSeg+16(FP)
	JGE foldDone64
	INCQ 0(SP)
	MOVQ 8(SP), DI
	MOVQ stride+80(FP), CX
	LEAQ (DI)(CX*8), CX
	MOVQ CX, 8(SP)
	MOVQ off+8(FP), CX
	MOVQ (CX)(AX*8), R14
	MOVQ 8(CX)(AX*8), R15
	SUBQ R14, R15
	JZ foldSeg64
	MOVQ edges+0(FP), CX
	LEAQ (CX)(R14*8), R14
	MOVQ src+24(FP), R12
	MOVQ eIdx+32(FP), R13
	MOVQ hs+40(FP), R10
	MOVQ he+48(FP), R11
	MOVQ alpha+56(FP), DX
	MOVQ dh+72(FP), R8
	SHLQ $3, R8
	XORQ R9, R9

fold4x64:
	MOVQ R8, CX
	SUBQ R9, CX
	CMPQ CX, $128
	JLT fold1x64
	FOLDSTART
	VMOVUPD (DI)(R9*1), Y0
	VMOVUPD 32(DI)(R9*1), Y1
	VMOVUPD 64(DI)(R9*1), Y2
	VMOVUPD 96(DI)(R9*1), Y3

fold4x64Edge:
	FOLDEDGE(VBROADCASTSD, 8)
	FOLDTERM(VMOVUPD, VADDPD, VMULPD, Y4, 0, Y0, Y5)
	FOLDTERM(VMOVUPD, VADDPD, VMULPD, Y4, 32, Y1, Y6)
	FOLDTERM(VMOVUPD, VADDPD, VMULPD, Y4, 64, Y2, Y7)
	FOLDTERM(VMOVUPD, VADDPD, VMULPD, Y4, 96, Y3, Y8)
	ADDQ $8, SI
	DECQ BX
	JNZ fold4x64Edge
	VMOVUPD Y0, (DI)(R9*1)
	VMOVUPD Y1, 32(DI)(R9*1)
	VMOVUPD Y2, 64(DI)(R9*1)
	VMOVUPD Y3, 96(DI)(R9*1)
	FOLDNEXT($128)
	JMP fold4x64

fold1x64:
	CMPQ CX, $32
	JLT fold0x64
	FOLDSTART
	VMOVUPD (DI)(R9*1), Y0

fold1x64Edge:
	FOLDEDGE(VBROADCASTSD, 8)
	FOLDTERM(VMOVUPD, VADDPD, VMULPD, Y4, 0, Y0, Y5)
	ADDQ $8, SI
	DECQ BX
	JNZ fold1x64Edge
	VMOVUPD Y0, (DI)(R9*1)
	FOLDNEXT($32)
	MOVQ R8, CX
	SUBQ R9, CX
	JMP fold1x64

fold0x64:
	TESTQ CX, CX
	JZ foldSeg64
	FOLDSTART
	VMOVSD (DI)(R9*1), X0

fold0x64Edge:
	FOLDEDGE(VBROADCASTSD, 8)
	FOLDTERM(VMOVSD, VADDSD, VMULSD, X4, 0, X0, X5)
	ADDQ $8, SI
	DECQ BX
	JNZ fold0x64Edge
	VMOVSD X0, (DI)(R9*1)
	FOLDNEXT($8)
	MOVQ R8, CX
	SUBQ R9, CX
	JMP fold0x64

foldDone64:
	VZEROUPPER
	RET

// func edgeFoldF32(edges, off *int, nSeg int, src, eIdx *int, hs, he, alpha, ro *float32, dh, stride int)
TEXT ·edgeFoldF32(SB), NOSPLIT, $16-88
	MOVQ $0, 0(SP)
	MOVQ ro+64(FP), AX
	MOVQ AX, 8(SP)

foldSeg32:
	MOVQ 0(SP), AX
	CMPQ AX, nSeg+16(FP)
	JGE foldDone32
	INCQ 0(SP)
	MOVQ 8(SP), DI
	MOVQ stride+80(FP), CX
	LEAQ (DI)(CX*4), CX
	MOVQ CX, 8(SP)
	MOVQ off+8(FP), CX
	MOVQ (CX)(AX*8), R14
	MOVQ 8(CX)(AX*8), R15
	SUBQ R14, R15
	JZ foldSeg32
	MOVQ edges+0(FP), CX
	LEAQ (CX)(R14*8), R14
	MOVQ src+24(FP), R12
	MOVQ eIdx+32(FP), R13
	MOVQ hs+40(FP), R10
	MOVQ he+48(FP), R11
	MOVQ alpha+56(FP), DX
	MOVQ dh+72(FP), R8
	SHLQ $2, R8
	XORQ R9, R9

fold4x32:
	MOVQ R8, CX
	SUBQ R9, CX
	CMPQ CX, $128
	JLT fold1x32
	FOLDSTART
	VMOVUPS (DI)(R9*1), Y0
	VMOVUPS 32(DI)(R9*1), Y1
	VMOVUPS 64(DI)(R9*1), Y2
	VMOVUPS 96(DI)(R9*1), Y3

fold4x32Edge:
	FOLDEDGE(VBROADCASTSS, 4)
	FOLDTERM(VMOVUPS, VADDPS, VMULPS, Y4, 0, Y0, Y5)
	FOLDTERM(VMOVUPS, VADDPS, VMULPS, Y4, 32, Y1, Y6)
	FOLDTERM(VMOVUPS, VADDPS, VMULPS, Y4, 64, Y2, Y7)
	FOLDTERM(VMOVUPS, VADDPS, VMULPS, Y4, 96, Y3, Y8)
	ADDQ $8, SI
	DECQ BX
	JNZ fold4x32Edge
	VMOVUPS Y0, (DI)(R9*1)
	VMOVUPS Y1, 32(DI)(R9*1)
	VMOVUPS Y2, 64(DI)(R9*1)
	VMOVUPS Y3, 96(DI)(R9*1)
	FOLDNEXT($128)
	JMP fold4x32

fold1x32:
	CMPQ CX, $32
	JLT fold0x32
	FOLDSTART
	VMOVUPS (DI)(R9*1), Y0

fold1x32Edge:
	FOLDEDGE(VBROADCASTSS, 4)
	FOLDTERM(VMOVUPS, VADDPS, VMULPS, Y4, 0, Y0, Y5)
	ADDQ $8, SI
	DECQ BX
	JNZ fold1x32Edge
	VMOVUPS Y0, (DI)(R9*1)
	FOLDNEXT($32)
	MOVQ R8, CX
	SUBQ R9, CX
	JMP fold1x32

fold0x32:
	TESTQ CX, CX
	JZ foldSeg32
	FOLDSTART
	VMOVSS (DI)(R9*1), X0

fold0x32Edge:
	FOLDEDGE(VBROADCASTSS, 4)
	FOLDTERM(VMOVSS, VADDSS, VMULSS, X4, 0, X0, X5)
	ADDQ $8, SI
	DECQ BX
	JNZ fold0x32Edge
	VMOVSS X0, (DI)(R9*1)
	FOLDNEXT($4)
	MOVQ R8, CX
	SUBQ R9, CX
	JMP fold0x32

foldDone32:
	VZEROUPPER
	RET
