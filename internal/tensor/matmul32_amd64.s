//go:build amd64 && !purego

#include "textflag.h"

// func cpuHasAVX2FMA() bool
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	// Leaf 7 must exist.
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no

	// Leaf 1 ECX: FMA (bit 12), OSXSAVE (bit 27), AVX (bit 28).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18001000, CX
	CMPL CX, $0x18001000
	JNE  no

	// XCR0: the OS saves XMM (bit 1) and YMM (bit 2) state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no

	// Leaf 7 subleaf 0 EBX: AVX2 (bit 5).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no

	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func dotTile2x4F32(a, w *float32, k8, ld int, out *[8]float32)
//
// Y0..Y3 accumulate input row 0 against weight rows 0..3, Y4..Y7 input
// row 1; lane l of each sums the products at p ≡ l (mod 8).
TEXT ·dotTile2x4F32(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ w+8(FP), DI
	MOVQ k8+16(FP), CX
	MOVQ ld+24(FP), DX
	MOVQ out+32(FP), R8

	SHLQ $2, CX           // k8 in bytes
	SHLQ $2, DX           // row stride in bytes
	LEAQ (SI)(DX*1), R9   // input row 1
	LEAQ (DI)(DX*1), R10  // weight row 1
	LEAQ (R10)(DX*1), R11 // weight row 2
	LEAQ (R11)(DX*1), R12 // weight row 3

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ   AX, AX

loop2:
	VMOVUPS     (SI)(AX*1), Y8
	VMOVUPS     (R9)(AX*1), Y9
	VMOVUPS     (DI)(AX*1), Y10
	VFMADD231PS Y10, Y8, Y0
	VFMADD231PS Y10, Y9, Y4
	VMOVUPS     (R10)(AX*1), Y11
	VFMADD231PS Y11, Y8, Y1
	VFMADD231PS Y11, Y9, Y5
	VMOVUPS     (R11)(AX*1), Y12
	VFMADD231PS Y12, Y8, Y2
	VFMADD231PS Y12, Y9, Y6
	VMOVUPS     (R12)(AX*1), Y13
	VFMADD231PS Y13, Y8, Y3
	VFMADD231PS Y13, Y9, Y7
	ADDQ        $32, AX
	CMPQ        AX, CX
	JLT         loop2

	// Horizontal reduction: hadd(hadd(c0, c1), hadd(c2, c3)) leaves the
	// four half-sums of each 128-bit lane in order; adding the two lanes
	// gives the four dot products.
	VHADDPS      Y1, Y0, Y0
	VHADDPS      Y3, Y2, Y2
	VHADDPS      Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VMOVUPS      X0, (R8)

	VHADDPS      Y5, Y4, Y4
	VHADDPS      Y7, Y6, Y6
	VHADDPS      Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VADDPS       X5, X4, X4
	VMOVUPS      X4, 16(R8)

	VZEROUPPER
	RET

// func dotTile1x4F32(a, w *float32, k8, ld int, out *[4]float32)
TEXT ·dotTile1x4F32(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ w+8(FP), DI
	MOVQ k8+16(FP), CX
	MOVQ ld+24(FP), DX
	MOVQ out+32(FP), R8

	SHLQ $2, CX
	SHLQ $2, DX
	LEAQ (DI)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   AX, AX

loop1:
	VMOVUPS     (SI)(AX*1), Y8
	VFMADD231PS (DI)(AX*1), Y8, Y0
	VFMADD231PS (R10)(AX*1), Y8, Y1
	VFMADD231PS (R11)(AX*1), Y8, Y2
	VFMADD231PS (R12)(AX*1), Y8, Y3
	ADDQ        $32, AX
	CMPQ        AX, CX
	JLT         loop1

	VHADDPS      Y1, Y0, Y0
	VHADDPS      Y3, Y2, Y2
	VHADDPS      Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VMOVUPS      X0, (R8)

	VZEROUPPER
	RET
