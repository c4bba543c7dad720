#include "textflag.h"

// AVX2 leaves of the matmul kernels (kernels.go): no tiling here, only the
// two innermost loops. Every lane is a different output element and
// receives exactly the multiply-adds the generic Go loop gives it, in the
// same order, as a separate multiply and add — an FMA rounds once and would
// change every result. Tails shorter than a vector run the scalar forms of
// the same sequence. Each body is written once and instantiated for
// float64 and float32 by instruction name.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// ROW4STEP adds A·B[j] to the two c vectors in flight (Y4, Y5).
#define ROW4STEP(MUL, ADD, B, A) \
	MUL (B)(AX*1), A, Y6; \
	MUL 32(B)(AX*1), A, Y7; \
	ADD Y6, Y4, Y4; \
	ADD Y7, Y5, Y5

// ROW4 is c[j] += a0·b0[j]; += a1·b1[j]; += a2·b2[j]; += a3·b3[j] over BX
// bytes. In: DI=c SI=b0 R8=b1 R9=b2 R10=b3, Y0..Y3 = a0..a3 broadcast (so
// X0..X3 hold them as scalars). Two vectors per trip, then one, then
// elements of ESZ bytes.
#define ROW4(MOVU, MUL, ADD, MOVS, MULS, ADDS, ESZ) \
	XORQ AX, AX; \
	MOVQ BX, DX; \
	ANDQ $-64, DX; \
	JMP  pairtest; \
pair: \
	MOVU (DI)(AX*1), Y4; \
	MOVU 32(DI)(AX*1), Y5; \
	ROW4STEP(MUL, ADD, SI, Y0); \
	ROW4STEP(MUL, ADD, R8, Y1); \
	ROW4STEP(MUL, ADD, R9, Y2); \
	ROW4STEP(MUL, ADD, R10, Y3); \
	MOVU Y4, (DI)(AX*1); \
	MOVU Y5, 32(DI)(AX*1); \
	ADDQ $64, AX; \
pairtest: \
	CMPQ AX, DX; \
	JLT  pair; \
	LEAQ 32(AX), DX; \
	CMPQ DX, BX; \
	JGT  tailtest; \
	MOVU (DI)(AX*1), Y4; \
	MUL  (SI)(AX*1), Y0, Y6; \
	ADD  Y6, Y4, Y4; \
	MUL  (R8)(AX*1), Y1, Y6; \
	ADD  Y6, Y4, Y4; \
	MUL  (R9)(AX*1), Y2, Y6; \
	ADD  Y6, Y4, Y4; \
	MUL  (R10)(AX*1), Y3, Y6; \
	ADD  Y6, Y4, Y4; \
	MOVU Y4, (DI)(AX*1); \
	MOVQ DX, AX; \
	JMP  tailtest; \
tail: \
	MOVS (DI)(AX*1), X4; \
	MULS (SI)(AX*1), X0, X6; \
	ADDS X6, X4, X4; \
	MULS (R8)(AX*1), X1, X6; \
	ADDS X6, X4, X4; \
	MULS (R9)(AX*1), X2, X6; \
	ADDS X6, X4, X4; \
	MULS (R10)(AX*1), X3, X6; \
	ADDS X6, X4, X4; \
	MOVS X4, (DI)(AX*1); \
	ADDQ $ESZ, AX; \
tailtest: \
	CMPQ AX, BX; \
	JLT  tail; \
	VZEROUPPER; \
	RET

// func mulAddRow4F64(c, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64)
TEXT ·mulAddRow4F64(SB), NOSPLIT, $0-80
	MOVQ c+0(FP), DI
	MOVQ b0+8(FP), SI
	MOVQ b1+16(FP), R8
	MOVQ b2+24(FP), R9
	MOVQ b3+32(FP), R10
	MOVQ n+40(FP), BX
	SHLQ $3, BX
	VBROADCASTSD a0+48(FP), Y0
	VBROADCASTSD a1+56(FP), Y1
	VBROADCASTSD a2+64(FP), Y2
	VBROADCASTSD a3+72(FP), Y3
	ROW4(VMOVUPD, VMULPD, VADDPD, VMOVSD, VMULSD, VADDSD, 8)

// func mulAddRow4F32(c, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3 float32)
TEXT ·mulAddRow4F32(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ b0+8(FP), SI
	MOVQ b1+16(FP), R8
	MOVQ b2+24(FP), R9
	MOVQ b3+32(FP), R10
	MOVQ n+40(FP), BX
	SHLQ $2, BX
	VBROADCASTSS a0+48(FP), Y0
	VBROADCASTSS a1+52(FP), Y1
	VBROADCASTSS a2+56(FP), Y2
	VBROADCASTSS a3+60(FP), Y3
	ROW4(VMOVUPS, VMULPS, VADDPS, VMOVSS, VMULSS, VADDSS, 4)

// DOTSTEP feeds accumulator S the term a[k]·panel[4k..4k+3] of a-row A.
#define DOTSTEP(BCAST, MUL, ADD, ESZ, A, P, T, S) \
	BCAST (A)(AX*ESZ), T; \
	MUL   P, T, T; \
	ADD   T, S, S

// PANELDOT writes c[r][0..3] = Σ_k a[r][k]·panel[4k..4k+3] for R9 rows r of
// CX ≥ 1 elements each, ascending k, one accumulator lane per output. In:
// DI=c (R8 bytes per row) SI=a DX=panel. panel[4k..4k+3] is one vector P of
// VB bytes; a[r][k] is broadcast against it. Four a-rows at a time give
// four independent accumulators S0..S3, which hides the add latency; the
// last rows go one at a time.
#define PANELDOT(MOVU, BCAST, MUL, ADD, XOR, ESZ, VB, S0, S1, S2, S3, P, T0, T1, T2, T3) \
	LEAQ (CX*ESZ), R13; \
	JMP  quadtest; \
quad: \
	LEAQ (SI)(R13*1), R10; \
	LEAQ (R10)(R13*1), R11; \
	LEAQ (R11)(R13*1), R12; \
	XOR  S0, S0, S0; \
	XOR  S1, S1, S1; \
	XOR  S2, S2, S2; \
	XOR  S3, S3, S3; \
	XORQ AX, AX; \
	MOVQ DX, BX; \
quadk: \
	MOVU (BX), P; \
	DOTSTEP(BCAST, MUL, ADD, ESZ, SI, P, T0, S0); \
	DOTSTEP(BCAST, MUL, ADD, ESZ, R10, P, T1, S1); \
	DOTSTEP(BCAST, MUL, ADD, ESZ, R11, P, T2, S2); \
	DOTSTEP(BCAST, MUL, ADD, ESZ, R12, P, T3, S3); \
	ADDQ $VB, BX; \
	INCQ AX; \
	CMPQ AX, CX; \
	JLT  quadk; \
	MOVU S0, (DI); \
	ADDQ R8, DI; \
	MOVU S1, (DI); \
	ADDQ R8, DI; \
	MOVU S2, (DI); \
	ADDQ R8, DI; \
	MOVU S3, (DI); \
	ADDQ R8, DI; \
	LEAQ (R12)(R13*1), SI; \
	SUBQ $4, R9; \
quadtest: \
	CMPQ R9, $4; \
	JGE  quad; \
	JMP  onetest; \
one: \
	XOR  S0, S0, S0; \
	XORQ AX, AX; \
	MOVQ DX, BX; \
onek: \
	MOVU (BX), P; \
	DOTSTEP(BCAST, MUL, ADD, ESZ, SI, P, T0, S0); \
	ADDQ $VB, BX; \
	INCQ AX; \
	CMPQ AX, CX; \
	JLT  onek; \
	MOVU S0, (DI); \
	ADDQ R8, DI; \
	ADDQ R13, SI; \
	DECQ R9; \
onetest: \
	CMPQ R9, $0; \
	JGT  one; \
	VZEROUPPER; \
	RET

// func panelDotF64(c, a, panel *float64, aCols, cStride, rows int)
TEXT ·panelDotF64(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ panel+16(FP), DX
	MOVQ aCols+24(FP), CX
	MOVQ cStride+32(FP), R8
	SHLQ $3, R8
	MOVQ rows+40(FP), R9
	PANELDOT(VMOVUPD, VBROADCASTSD, VMULPD, VADDPD, VXORPD, 8, 32, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8)

// func panelDotF32(c, a, panel *float32, aCols, cStride, rows int)
// Four float32 lanes are one 128-bit vector, so this instance runs on X
// registers; the panel keeps its 4-row shape for both widths.
TEXT ·panelDotF32(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ panel+16(FP), DX
	MOVQ aCols+24(FP), CX
	MOVQ cStride+32(FP), R8
	SHLQ $2, R8
	MOVQ rows+40(FP), R9
	PANELDOT(VMOVUPS, VBROADCASTSS, VMULPS, VADDPS, VXORPS, 4, 16, X0, X1, X2, X3, X4, X5, X6, X7, X8)

// ADAM is AdamStep on the float64 element(s) at index AX in the Go loop's
// order — m = b1·m + nb1·g; v = b2·v + (nb2·g)·g; w -= (lr·(m/c1)) /
// (√(v/c2) + eps) — with DI=w SI=m R8=v R9=g, K0..K7 = b1 nb1 b2 nb2 c1 c2
// lr eps. Lanes are distinct parameters and each instruction rounds per
// lane, so it is the loop to the bit; the tail's √ runs packed on X regs.
#define ADAM(MOVU, MUL, ADD, SUB, DIV, K0, K1, K2, K3, K4, K5, K6, K7, G, M, V, T) \
	MOVU (R9)(AX*8), G; \
	MUL  (SI)(AX*8), K0, M; \
	MUL  G, K1, T; \
	ADD  T, M, M; \
	MOVU M, (SI)(AX*8); \
	MUL  G, K3, T; \
	MUL  G, T, T; \
	MUL  (R8)(AX*8), K2, V; \
	ADD  T, V, V; \
	MOVU V, (R8)(AX*8); \
	DIV  K4, M, M; \
	MUL  M, K6, M; \
	DIV  K5, V, V; \
	VSQRTPD V, V; \
	ADD  K7, V, V; \
	DIV  V, M, M; \
	MOVU (DI)(AX*8), T; \
	SUB  M, T, T; \
	MOVU T, (DI)(AX*8)

// func adamStepF64(w, m, v, grad *float64, n int, b1, nb1, b2, nb2, c1, c2, lr, eps float64)
TEXT ·adamStepF64(SB), NOSPLIT, $0-104
	MOVQ w+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ v+16(FP), R8
	MOVQ grad+24(FP), R9
	MOVQ n+32(FP), BX
	VBROADCASTSD b1+40(FP), Y0
	VBROADCASTSD nb1+48(FP), Y1
	VBROADCASTSD b2+56(FP), Y2
	VBROADCASTSD nb2+64(FP), Y3
	VBROADCASTSD c1+72(FP), Y4
	VBROADCASTSD c2+80(FP), Y5
	VBROADCASTSD lr+88(FP), Y6
	VBROADCASTSD eps+96(FP), Y7
	XORQ AX, AX
	MOVQ BX, DX
	ANDQ $-4, DX
vec:
	CMPQ AX, DX
	JGE  tail
	ADAM(VMOVUPD, VMULPD, VADDPD, VSUBPD, VDIVPD, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	ADDQ $4, AX
	JMP  vec
tail:
	CMPQ AX, BX
	JGE  done
	ADAM(VMOVSD, VMULSD, VADDSD, VSUBSD, VDIVSD, X0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X10, X11)
	INCQ AX
	JMP  tail
done:
	VZEROUPPER
	RET
