#include "textflag.h"

// AVX2 and AVX-512 leaves of the matmul kernels (kernels.go), and AVX2
// leaves of AdamStep and of TanhInto (tanh.go). Every lane is a different
// output element and receives exactly the operations the generic Go code
// gives it, in the same order: a separate multiply and add where the Go
// code has them — an FMA rounds once and would change every result — and
// an FMA only where the Go code calls math.FMA (the tanh leaf's Exp). The
// matmul body is written once and instantiated for float64 and float32 by
// instruction name, and for AVX2 and AVX-512 by vector width and register
// names. The matmul macros come first: vet reads a macro body as part of
// the TEXT above it, and BLOCK names blockF64's frame (kn, load).

// ROWSTEP adds A·b[k] to one row's two accumulators S0, S1, with the b
// vectors in B0, B1 and T, P as scratch.
#define ROWSTEP(BCAST, MUL, ADD, A, S0, S1, B0, B1, T, P) \
	BCAST A, T; \
	MUL   B0, T, P; \
	ADD   P, S0, S0; \
	MUL   B1, T, P; \
	ADD   P, S1, S1

// WIDESTEP adds the broadcast a element T times the b vector at OFF(R14)
// to accumulator S of a one-row pass, with P as scratch.
#define WIDESTEP(MUL, ADD, OFF, S, T, P) \
	MUL OFF(R14), T, P; \
	ADD P, S, S

// BLOCK is the matmul leaf: c[r][j] = c₀ + Σ_k a[r·ars + k·aks]·b[k·bs + j]
// for BX rows r and CX bytes of columns j (a multiple of 2·W), with c₀ the
// loaded element when load is set and +0 otherwise. In (strides in bytes):
// DI=c R8=cs SI=a R9=ars R11=aks DX=b R12=bs; kn ≥ 1 and load in the frame.
// It is written once over the vector width W in bytes and the twelve
// vector registers V0..V11, so the same text is the AVX2 leaf (W = 32,
// Y0..Y11) and the AVX-512 leaf (W = 64, Z0..Z11).
// A tile is four rows by 2·W bytes of columns — eight accumulators
// V0..V7, two vectors per row — held in registers across all kn terms:
// per k, the two b vectors (V8, V9) are loaded once, each row's a element
// is broadcast (V10) and multiplied into V11, then added, so every lane
// takes its own terms in ascending k. The tile sweeps the columns, then
// steps four rows down. The rows left over run one at a time, four tiles'
// width at once where the columns allow (V0..V7 again, b read straight
// into the multiply), so a lone row has as many add chains in flight as a
// full tile; the last narrower columns take V0, V1 alone. BLOCK takes all
// fourteen general registers, R14 and R15 included, which ABI0 code may
// clobber. VZEROUPPER clears the upper halves of Z0..Z15 as well as Y0..Y15.
// For each k the tile also prefetches the same row of b under the next
// tile, so the first row group's strided walk over a k-tile of cold b (a
// layer's weights, in the forward family) overlaps its misses with its
// arithmetic. A prefetch loads no register and never faults, so past the
// last tile it may name addresses beyond b.
#define BLOCK(MOVU, BCAST, MUL, ADD, XOR, W, V0, V1, V2, V3, V4, V5, V6, V7, V8, V9, V10, V11) \
	JMP  quadtest; \
quad: \
	XORQ AX, AX; \
quadcol: \
	LEAQ (DI)(AX*1), R15; \
	LEAQ (R15)(R8*2), R13; \
	CMPB load+80(FP), $0; \
	JEQ  quadzero; \
	MOVU (R15), V0; \
	MOVU W(R15), V1; \
	MOVU (R15)(R8*1), V2; \
	MOVU W(R15)(R8*1), V3; \
	MOVU (R13), V4; \
	MOVU W(R13), V5; \
	MOVU (R13)(R8*1), V6; \
	MOVU W(R13)(R8*1), V7; \
	JMP  quadk0; \
quadzero: \
	XOR  V0, V0, V0; \
	XOR  V1, V1, V1; \
	XOR  V2, V2, V2; \
	XOR  V3, V3, V3; \
	XOR  V4, V4, V4; \
	XOR  V5, V5, V5; \
	XOR  V6, V6, V6; \
	XOR  V7, V7, V7; \
quadk0: \
	MOVQ SI, R13; \
	LEAQ (SI)(R9*2), R10; \
	ADDQ R9, R10; \
	LEAQ (DX)(AX*1), R14; \
	MOVQ kn+72(FP), R15; \
quadk: \
	PREFETCHT0 (2*W)(R14); \
	PREFETCHT0 (3*W)(R14); \
	MOVU (R14), V8; \
	MOVU W(R14), V9; \
	ROWSTEP(BCAST, MUL, ADD, (R13), V0, V1, V8, V9, V10, V11); \
	ROWSTEP(BCAST, MUL, ADD, (R13)(R9*1), V2, V3, V8, V9, V10, V11); \
	ROWSTEP(BCAST, MUL, ADD, (R13)(R9*2), V4, V5, V8, V9, V10, V11); \
	ROWSTEP(BCAST, MUL, ADD, (R10), V6, V7, V8, V9, V10, V11); \
	ADDQ R11, R13; \
	ADDQ R11, R10; \
	ADDQ R12, R14; \
	DECQ R15; \
	JNZ  quadk; \
	LEAQ (DI)(AX*1), R15; \
	LEAQ (R15)(R8*2), R13; \
	MOVU V0, (R15); \
	MOVU V1, W(R15); \
	MOVU V2, (R15)(R8*1); \
	MOVU V3, W(R15)(R8*1); \
	MOVU V4, (R13); \
	MOVU V5, W(R13); \
	MOVU V6, (R13)(R8*1); \
	MOVU V7, W(R13)(R8*1); \
	ADDQ $(2*W), AX; \
	CMPQ AX, CX; \
	JLT  quadcol; \
	LEAQ (DI)(R8*4), DI; \
	LEAQ (SI)(R9*4), SI; \
	SUBQ $4, BX; \
quadtest: \
	CMPQ BX, $4; \
	JGE  quad; \
	JMP  onetest; \
one: \
	XORQ AX, AX; \
	JMP  widetest; \
wide: \
	CMPB load+80(FP), $0; \
	JEQ  widezero; \
	MOVU (DI)(AX*1), V0; \
	MOVU W(DI)(AX*1), V1; \
	MOVU (2*W)(DI)(AX*1), V2; \
	MOVU (3*W)(DI)(AX*1), V3; \
	MOVU (4*W)(DI)(AX*1), V4; \
	MOVU (5*W)(DI)(AX*1), V5; \
	MOVU (6*W)(DI)(AX*1), V6; \
	MOVU (7*W)(DI)(AX*1), V7; \
	JMP  widek0; \
widezero: \
	XOR  V0, V0, V0; \
	XOR  V1, V1, V1; \
	XOR  V2, V2, V2; \
	XOR  V3, V3, V3; \
	XOR  V4, V4, V4; \
	XOR  V5, V5, V5; \
	XOR  V6, V6, V6; \
	XOR  V7, V7, V7; \
widek0: \
	MOVQ SI, R13; \
	LEAQ (DX)(AX*1), R14; \
	MOVQ kn+72(FP), R15; \
widek: \
	BCAST (R13), V10; \
	WIDESTEP(MUL, ADD, 0, V0, V10, V11); \
	WIDESTEP(MUL, ADD, W, V1, V10, V11); \
	WIDESTEP(MUL, ADD, (2*W), V2, V10, V11); \
	WIDESTEP(MUL, ADD, (3*W), V3, V10, V11); \
	WIDESTEP(MUL, ADD, (4*W), V4, V10, V11); \
	WIDESTEP(MUL, ADD, (5*W), V5, V10, V11); \
	WIDESTEP(MUL, ADD, (6*W), V6, V10, V11); \
	WIDESTEP(MUL, ADD, (7*W), V7, V10, V11); \
	ADDQ R11, R13; \
	ADDQ R12, R14; \
	DECQ R15; \
	JNZ  widek; \
	MOVU V0, (DI)(AX*1); \
	MOVU V1, W(DI)(AX*1); \
	MOVU V2, (2*W)(DI)(AX*1); \
	MOVU V3, (3*W)(DI)(AX*1); \
	MOVU V4, (4*W)(DI)(AX*1); \
	MOVU V5, (5*W)(DI)(AX*1); \
	MOVU V6, (6*W)(DI)(AX*1); \
	MOVU V7, (7*W)(DI)(AX*1); \
	ADDQ $(8*W), AX; \
widetest: \
	LEAQ (8*W)(AX), R13; \
	CMPQ R13, CX; \
	JLE  wide; \
	JMP  onecoltest; \
onecol: \
	CMPB load+80(FP), $0; \
	JEQ  onezero; \
	MOVU (DI)(AX*1), V0; \
	MOVU W(DI)(AX*1), V1; \
	JMP  onek0; \
onezero: \
	XOR  V0, V0, V0; \
	XOR  V1, V1, V1; \
onek0: \
	MOVQ SI, R13; \
	LEAQ (DX)(AX*1), R14; \
	MOVQ kn+72(FP), R15; \
onek: \
	MOVU (R14), V8; \
	MOVU W(R14), V9; \
	ROWSTEP(BCAST, MUL, ADD, (R13), V0, V1, V8, V9, V10, V11); \
	ADDQ R11, R13; \
	ADDQ R12, R14; \
	DECQ R15; \
	JNZ  onek; \
	MOVU V0, (DI)(AX*1); \
	MOVU V1, W(DI)(AX*1); \
	ADDQ $(2*W), AX; \
onecoltest: \
	CMPQ AX, CX; \
	JLT  onecol; \
	ADDQ R8, DI; \
	ADDQ R9, SI; \
	DECQ BX; \
onetest: \
	CMPQ BX, $0; \
	JGT  one; \
	VZEROUPPER; \
	RET

// BLOCKARGS loads block's operands, converting the strides and the column
// count to bytes by the element shift SH.
#define BLOCKARGS(SH) \
	MOVQ c+0(FP), DI; \
	MOVQ cs+8(FP), R8; \
	MOVQ a+16(FP), SI; \
	MOVQ ars+24(FP), R9; \
	MOVQ aks+32(FP), R11; \
	MOVQ b+40(FP), DX; \
	MOVQ bs+48(FP), R12; \
	MOVQ rows+56(FP), BX; \
	MOVQ cols+64(FP), CX; \
	SHLQ $SH, R8; \
	SHLQ $SH, R9; \
	SHLQ $SH, R11; \
	SHLQ $SH, R12; \
	SHLQ $SH, CX

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

// func blockF64(c *float64, cs int, a *float64, ars, aks int, b *float64, bs, rows, cols, kn int, load bool)
TEXT ·blockF64(SB), NOSPLIT, $0-81
	BLOCKARGS(3)
	BLOCK(VMOVUPD, VBROADCASTSD, VMULPD, VADDPD, VXORPD, 32, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)

// func blockF32(c *float32, cs int, a *float32, ars, aks int, b *float32, bs, rows, cols, kn int, load bool)
TEXT ·blockF32(SB), NOSPLIT, $0-81
	BLOCKARGS(2)
	BLOCK(VMOVUPS, VBROADCASTSS, VMULPS, VADDPS, VXORPS, 32, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)

// The AVX-512 leaves are BLOCK at twice the width. VPXORQ zeroes in
// AVX512F; VXORPD on Z registers would need AVX512DQ.

// func blockZF64(c *float64, cs int, a *float64, ars, aks int, b *float64, bs, rows, cols, kn int, load bool)
TEXT ·blockZF64(SB), NOSPLIT, $0-81
	BLOCKARGS(3)
	BLOCK(VMOVUPD, VBROADCASTSD, VMULPD, VADDPD, VPXORQ, 64, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11)

// func blockZF32(c *float32, cs int, a *float32, ars, aks int, b *float32, bs, rows, cols, kn int, load bool)
TEXT ·blockZF32(SB), NOSPLIT, $0-81
	BLOCKARGS(2)
	BLOCK(VMOVUPS, VBROADCASTSS, VMULPS, VADDPS, VPXORQ, 64, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11)

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

// TANH is Tanh (tanh.go) on the four float64 lanes of Y0, into Y6, with
// Y15 = TSIGN. Each lane takes Tanh's operations in its order: Exp's
// fused multiply-adds as VFNMADD231PD/VFMADD213PD, its other steps as the
// same unfused multiplies and adds, k by VCVTPD2DQ (round half to even,
// as CVTSD2SL) and 2ᵏ built in the exponent field. All three branches
// are computed and blended on |x| ≥ 0.625, |x| > TMAXARG and x = 0. A
// lane that takes the Exp branch has 2|x| in [1.25, 88.03], where Exp
// reaches neither its overflow nor its denormal step, so no lane needs
// Exp's special cases; the other lanes' Exp is discarded.
#define TANH \
	VANDNPD      Y0, Y15, Y1; \
	VADDPD       Y1, Y1, Y2; \
	VMULPD       TLOG2E, Y2, Y3; \
	VCVTPD2DQY   Y3, X4; \
	VCVTDQ2PD    X4, Y3; \
	VFNMADD231PD TLN2U, Y3, Y2; \
	VFNMADD231PD TLN2L, Y3, Y2; \
	VMULPD       TSIXTEENTH, Y2, Y2; \
	VMOVUPD      TC8, Y3; \
	VFMADD213PD  TC7, Y2, Y3; \
	VFMADD213PD  TC6, Y2, Y3; \
	VFMADD213PD  TC5, Y2, Y3; \
	VFMADD213PD  TC4, Y2, Y3; \
	VFMADD213PD  TC3, Y2, Y3; \
	VFMADD213PD  THALF, Y2, Y3; \
	VFMADD213PD  TONE, Y2, Y3; \
	VMULPD       Y3, Y2, Y2; \
	VADDPD       TTWO, Y2, Y3; \
	VMULPD       Y3, Y2, Y2; \
	VADDPD       TTWO, Y2, Y3; \
	VMULPD       Y3, Y2, Y2; \
	VADDPD       TTWO, Y2, Y3; \
	VMULPD       Y3, Y2, Y2; \
	VADDPD       TTWO, Y2, Y3; \
	VFMADD213PD  TONE, Y3, Y2; \
	VPMOVSXDQ    X4, Y4; \
	VPADDQ       TBIAS, Y4, Y4; \
	VPSLLQ       $52, Y4, Y4; \
	VMULPD       Y4, Y2, Y2; \
	VADDPD       TONE, Y2, Y2; \
	VMOVUPD      TTWO, Y3; \
	VDIVPD       Y2, Y3, Y3; \
	VMOVUPD      TONE, Y2; \
	VSUBPD       Y3, Y2, Y2; \
	VANDPD       Y15, Y0, Y5; \
	VXORPD       Y5, Y2, Y2; \
	VMULPD       Y0, Y0, Y6; \
	VMULPD       TP0, Y6, Y7; \
	VADDPD       TP1, Y7, Y7; \
	VMULPD       Y6, Y7, Y7; \
	VADDPD       TP2, Y7, Y7; \
	VADDPD       TQ0, Y6, Y8; \
	VMULPD       Y6, Y8, Y8; \
	VADDPD       TQ1, Y8, Y8; \
	VMULPD       Y6, Y8, Y8; \
	VADDPD       TQ2, Y8, Y8; \
	VMULPD       Y6, Y0, Y6; \
	VMULPD       Y7, Y6, Y6; \
	VDIVPD       Y8, Y6, Y6; \
	VADDPD       Y0, Y6, Y6; \
	VCMPPD       $0x0D, TBREAK, Y1, Y9; \
	VBLENDVPD    Y9, Y2, Y6, Y6; \
	VCMPPD       $0x0E, TMAXARG, Y1, Y9; \
	VORPD        TONE, Y5, Y3; \
	VBLENDVPD    Y9, Y3, Y6, Y6; \
	VXORPD       Y9, Y9, Y9; \
	VCMPPD       $0x00, Y9, Y0, Y9; \
	VBLENDVPD    Y9, Y0, Y6, Y6

// tanhconst holds TANH's constants, each in all four lanes.
#define TQUAD(off, v) \
	DATA tanhconst<>+(off)(SB)/8, v; \
	DATA tanhconst<>+(off+8)(SB)/8, v; \
	DATA tanhconst<>+(off+16)(SB)/8, v; \
	DATA tanhconst<>+(off+24)(SB)/8, v

TQUAD(0, $0x8000000000000000)
TQUAD(32, $1.4426950408889634073599246810018920)
TQUAD(64, $0.69314718055966295651160180568695068359375)
TQUAD(96, $0.28235290563031577122588448175013436025525412068e-12)
TQUAD(128, $0.0625)
TQUAD(160, $2.4801587301587301587e-5)
TQUAD(192, $1.9841269841269841270e-4)
TQUAD(224, $1.3888888888888888889e-3)
TQUAD(256, $8.3333333333333333333e-3)
TQUAD(288, $4.1666666666666666667e-2)
TQUAD(320, $1.6666666666666666667e-1)
TQUAD(352, $0.5)
TQUAD(384, $1.0)
TQUAD(416, $2.0)
TQUAD(448, $-9.64399179425052238628e-1)
TQUAD(480, $-9.92877231001918586564e1)
TQUAD(512, $-1.61468768441708447952e3)
TQUAD(544, $1.12811678491632931402e2)
TQUAD(576, $2.23548839060100448583e3)
TQUAD(608, $4.84406305325125486048e3)
TQUAD(640, $0.625)
TQUAD(672, $44.014845965556527147994)
TQUAD(704, $1023)
GLOBL tanhconst<>(SB), RODATA, $736

#define TSIGN tanhconst<>+0(SB)
#define TLOG2E tanhconst<>+32(SB)
#define TLN2U tanhconst<>+64(SB)
#define TLN2L tanhconst<>+96(SB)
#define TSIXTEENTH tanhconst<>+128(SB)
#define TC8 tanhconst<>+160(SB)
#define TC7 tanhconst<>+192(SB)
#define TC6 tanhconst<>+224(SB)
#define TC5 tanhconst<>+256(SB)
#define TC4 tanhconst<>+288(SB)
#define TC3 tanhconst<>+320(SB)
#define THALF tanhconst<>+352(SB)
#define TONE tanhconst<>+384(SB)
#define TTWO tanhconst<>+416(SB)
#define TP0 tanhconst<>+448(SB)
#define TP1 tanhconst<>+480(SB)
#define TP2 tanhconst<>+512(SB)
#define TQ0 tanhconst<>+544(SB)
#define TQ1 tanhconst<>+576(SB)
#define TQ2 tanhconst<>+608(SB)
#define TBREAK tanhconst<>+640(SB)
#define TMAXARG tanhconst<>+672(SB)
#define TBIAS tanhconst<>+704(SB)

// func tanhF64(dst, src *float64, n int)
TEXT ·tanhF64(SB), NOSPLIT, $0-24
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    n+16(FP), CX
	VMOVUPD TSIGN, Y15
	XORQ    AX, AX
loop:
	VMOVUPD (SI)(AX*8), Y0
	TANH
	VMOVUPD Y6, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func tanhF32(dst, src *float32, n int)
TEXT ·tanhF32(SB), NOSPLIT, $0-24
	MOVQ       dst+0(FP), DI
	MOVQ       src+8(FP), SI
	MOVQ       n+16(FP), CX
	VMOVUPD    TSIGN, Y15
	XORQ       AX, AX
loop:
	VCVTPS2PD  (SI)(AX*4), Y0
	TANH
	VCVTPD2PSY Y6, X6
	VMOVUPS    X6, (DI)(AX*4)
	ADDQ       $4, AX
	CMPQ       AX, CX
	JLT        loop
	VZEROUPPER
	RET
