//go:build amd64 && !purego

#include "textflag.h"

// Offsets of the eight-lane constants in ·gateK (matmul32_amd64.go).
#define K_CLAMP 0
#define K_NCLAMP 32
#define K_TINY 64
#define K_ABS 96
#define K_A13 128
#define K_A11 160
#define K_A9 192
#define K_A7 224
#define K_A5 256
#define K_A3 288
#define K_A1 320
#define K_B6 352
#define K_B4 384
#define K_B2 416
#define K_B0 448
#define K_FIFTH 480
#define K_HALF 512
#define K_ONE 544

// func gruGate8F32(dst, z, a []float32)
//
// dst[j] = (1 − hardsig(z[j]))·tanh(a[j]) for j < len(dst), a positive
// multiple of 8: TanhF32 and hardSigmoid32 eight lanes at a time, each
// product and sum rounded as the scalar code rounds it. Every min/max
// takes its constant as the first source, so a NaN input comes out NaN.
TEXT ·gruGate8F32(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ z_base+24(FP), SI
	MOVQ a_base+48(FP), DX
	SHLQ $2, CX
	XORQ AX, AX

	VXORPS  Y15, Y15, Y15
	VMOVUPS ·gateK+K_ONE(SB), Y14
	VMOVUPS ·gateK+K_CLAMP(SB), Y13
	VMOVUPS ·gateK+K_NCLAMP(SB), Y12

loop:
	// x = max(−c, min(c, a)); x2 = x·x.
	VMOVUPS (DX)(AX*1), Y1
	VMINPS  Y1, Y13, Y2
	VMAXPS  Y2, Y12, Y2
	VMULPS  Y2, Y2, Y3

	// p = x·(((((a13·x2 + a11)·x2 + a9)·x2 + a7)·x2 + a5)·x2 + a3)·x2 + a1).
	VMULPS ·gateK+K_A13(SB), Y3, Y4
	VADDPS ·gateK+K_A11(SB), Y4, Y4
	VMULPS Y3, Y4, Y4
	VADDPS ·gateK+K_A9(SB), Y4, Y4
	VMULPS Y3, Y4, Y4
	VADDPS ·gateK+K_A7(SB), Y4, Y4
	VMULPS Y3, Y4, Y4
	VADDPS ·gateK+K_A5(SB), Y4, Y4
	VMULPS Y3, Y4, Y4
	VADDPS ·gateK+K_A3(SB), Y4, Y4
	VMULPS Y3, Y4, Y4
	VADDPS ·gateK+K_A1(SB), Y4, Y4
	VMULPS Y2, Y4, Y4

	// q = ((b6·x2 + b4)·x2 + b2)·x2 + b0; tanh = p/q, or a where |a| < tiny.
	VMULPS    ·gateK+K_B6(SB), Y3, Y5
	VADDPS    ·gateK+K_B4(SB), Y5, Y5
	VMULPS    Y3, Y5, Y5
	VADDPS    ·gateK+K_B2(SB), Y5, Y5
	VMULPS    Y3, Y5, Y5
	VADDPS    ·gateK+K_B0(SB), Y5, Y5
	VDIVPS    Y5, Y4, Y4
	VANDPS    ·gateK+K_ABS(SB), Y1, Y6
	VCMPPS    $1, ·gateK+K_TINY(SB), Y6, Y6
	VBLENDVPS Y6, Y1, Y4, Y4

	// (1 − min(1, max(0, 0.2·z + 0.5)))·tanh.
	VMOVUPS (SI)(AX*1), Y0
	VMULPS  ·gateK+K_FIFTH(SB), Y0, Y0
	VADDPS  ·gateK+K_HALF(SB), Y0, Y0
	VMAXPS  Y0, Y15, Y0
	VMINPS  Y0, Y14, Y0
	VSUBPS  Y0, Y14, Y0
	VMULPS  Y4, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)

	ADDQ $32, AX
	CMPQ AX, CX
	JLT  loop

	VZEROUPPER
	RET
