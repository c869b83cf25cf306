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

// func gemmRows2F32(dst, a, w, bias []float32, k, n int, relu bool)
//
// Rows 0 and 1 of a (stride k) against every 4-column tile of w's first
// n &^ 3 rows (stride k), into rows 0 and 1 of dst (stride n). Per tile,
// Y0..Y3 accumulate input row 0 against weight rows 0..3 and Y4..Y7 input
// row 1; lane l of each sums the products at p ≡ l (mod 8) below k &^ 7.
// The horizontal reduction leaves the four sums of a row in one XMM
// register, which then takes the k tail in order (VMULPS + VADDPS, no
// FMA: the pure-Go tile's rounding), the bias (VADDPS) and the ReLU
// (VMAXPS with zero as the first source, so -0 and NaN pass through) and
// is stored once.
TEXT ·gemmRows2F32(SB), NOSPLIT, $0-113
	MOVQ dst_base+0(FP), R8
	MOVQ a_base+24(FP), SI
	MOVQ w_base+48(FP), DI
	MOVQ bias_base+72(FP), R13
	MOVQ k+96(FP), DX
	MOVQ n+104(FP), BX
	MOVBLZX relu+112(FP), R15

	LEAQ (R8)(BX*4), R14  // dst row 1
	SHRQ $2, BX           // 4-column tiles
	JZ   done2
	MOVQ DX, CX
	ANDQ $-8, CX
	SHLQ $2, CX           // k &^ 7 in bytes
	SHLQ $2, DX           // row stride in bytes
	LEAQ (SI)(DX*1), R9   // input row 1
	VXORPS X15, X15, X15

tile2:
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
	CMPQ   AX, CX
	JGE    reduce2

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

reduce2:
	// hadd(hadd(c0, c1), hadd(c2, c3)) leaves the four half-sums of each
	// 128-bit lane in order; adding the two lanes gives the four dot
	// products.
	VHADDPS      Y1, Y0, Y0
	VHADDPS      Y3, Y2, Y2
	VHADDPS      Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0

	VHADDPS      Y5, Y4, Y4
	VHADDPS      Y7, Y6, Y6
	VHADDPS      Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VADDPS       X5, X4, X4

	CMPQ AX, DX
	JGE  bias2

tail2:
	// One k step: the four weights at p gathered into X10, times the two
	// inputs at p broadcast.
	VMOVSS       (DI)(AX*1), X10
	VINSERTPS    $0x10, (R10)(AX*1), X10, X10
	VINSERTPS    $0x20, (R11)(AX*1), X10, X10
	VINSERTPS    $0x30, (R12)(AX*1), X10, X10
	VBROADCASTSS (SI)(AX*1), X8
	VBROADCASTSS (R9)(AX*1), X9
	VMULPS       X10, X8, X8
	VADDPS       X8, X0, X0
	VMULPS       X10, X9, X9
	VADDPS       X9, X4, X4
	ADDQ         $4, AX
	CMPQ         AX, DX
	JLT          tail2

bias2:
	TESTQ  R13, R13
	JZ     act2
	VMOVUPS (R13), X12
	VADDPS X12, X0, X0
	VADDPS X12, X4, X4
	ADDQ   $16, R13

act2:
	TESTQ  R15, R15
	JZ     store2
	VMAXPS X0, X15, X0
	VMAXPS X4, X15, X4

store2:
	VMOVUPS X0, (R8)
	VMOVUPS X4, (R14)
	ADDQ    $16, R8
	ADDQ    $16, R14
	LEAQ    (R12)(DX*1), DI // next tile's weight row 0
	DECQ    BX
	JNZ     tile2

done2:
	VZEROUPPER
	RET

// func gemmRow1F32(dst, a, w, bias []float32, k, n int, relu bool)
//
// gemmRows2F32 for one input row, with the same lane order, reduction and
// epilogue, so a row's outputs are bit-identical in either kernel.
TEXT ·gemmRow1F32(SB), NOSPLIT, $0-113
	MOVQ dst_base+0(FP), R8
	MOVQ a_base+24(FP), SI
	MOVQ w_base+48(FP), DI
	MOVQ bias_base+72(FP), R13
	MOVQ k+96(FP), DX
	MOVQ n+104(FP), BX
	MOVBLZX relu+112(FP), R15

	SHRQ $2, BX
	JZ   done1
	MOVQ DX, CX
	ANDQ $-8, CX
	SHLQ $2, CX
	SHLQ $2, DX
	VXORPS X15, X15, X15

tile1:
	LEAQ (DI)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   AX, AX
	CMPQ   AX, CX
	JGE    reduce1

loop1:
	VMOVUPS     (SI)(AX*1), Y8
	VFMADD231PS (DI)(AX*1), Y8, Y0
	VFMADD231PS (R10)(AX*1), Y8, Y1
	VFMADD231PS (R11)(AX*1), Y8, Y2
	VFMADD231PS (R12)(AX*1), Y8, Y3
	ADDQ        $32, AX
	CMPQ        AX, CX
	JLT         loop1

reduce1:
	VHADDPS      Y1, Y0, Y0
	VHADDPS      Y3, Y2, Y2
	VHADDPS      Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0

	CMPQ AX, DX
	JGE  bias1

tail1:
	VMOVSS       (DI)(AX*1), X10
	VINSERTPS    $0x10, (R10)(AX*1), X10, X10
	VINSERTPS    $0x20, (R11)(AX*1), X10, X10
	VINSERTPS    $0x30, (R12)(AX*1), X10, X10
	VBROADCASTSS (SI)(AX*1), X8
	VMULPS       X10, X8, X8
	VADDPS       X8, X0, X0
	ADDQ         $4, AX
	CMPQ         AX, DX
	JLT          tail1

bias1:
	TESTQ  R13, R13
	JZ     act1
	VMOVUPS (R13), X12
	VADDPS X12, X0, X0
	ADDQ   $16, R13

act1:
	TESTQ  R15, R15
	JZ     store1
	VMAXPS X0, X15, X0

store1:
	VMOVUPS X0, (R8)
	ADDQ    $16, R8
	LEAQ    (R12)(DX*1), DI
	DECQ    BX
	JNZ     tile1

done1:
	VZEROUPPER
	RET
