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

// func cpuHasAVX512F() bool
TEXT ·cpuHasAVX512F(SB), NOSPLIT, $0-1
	// Leaf 7 must exist.
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no

	// Leaf 1 ECX: OSXSAVE (bit 27).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL  $27, CX
	JCC  no

	// XCR0: the OS saves XMM (bit 1), YMM (bit 2), opmask (bit 5),
	// ZMM0–15 upper halves (bit 6) and ZMM16–31 (bit 7) state.
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  no

	// Leaf 7 subleaf 0 EBX: AVX512F (bit 16).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX
	JCC  no

	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// The GEMM kernels below share one frame,
//
//	func(dst, a, w, bias []float32, k, n int, relu bool)
//
// and one body per ISA, GEMM512 and GEMM256, instanced for a tile's rows.
// R rows of a (stride k) run against every panel of w (PackPanelsF32)
// into R rows of dst (stride n):
//
//	R14 a row 0        DX a stride (bytes)    R10 3·DX
//	SI, R9 a rows 0, 4 at step p              AX w panel row p
//	DI w panel         R8 dst panel, row 0    BX dst stride (bytes)
//	R12 columns left   R13 bias panel, or 0   R15 panel row stride (bytes)
//	R11 relu           CX k steps left, then the dst row being stored
//
// Per panel the accumulators start at zero, take one VFMADD231PS per k step
// in order (a[r][p] broadcast times the panel row), then the bias (VADDPS)
// and the ReLU (VMAXPS with zero as the first source, so −0 and NaN pass
// through as relu32 passes them). A panel narrower than 32 columns is read
// and written under masks, so no lane outside the matrix is touched.

// STRIDES turns the strides k (DX) and n (R12) into bytes.
#define STRIDES \
	MOVQ R12, BX; \
	SHLQ $2, BX; \
	SHLQ $2, DX; \
	LEAQ (DX)(DX*2), R10

// PANEL sets CX to the panel width min(R12, 32), R15 to its row stride in
// bytes and SI and R9 to a's rows 0 and 4 at p = 0.
#define PANEL \
	MOVQ    $32, CX; \
	CMPQ    R12, CX; \
	CMOVQLT R12, CX; \
	MOVQ    CX, R15; \
	SHLQ    $2, R15; \
	MOVQ    R14, SI; \
	LEAQ    (SI)(DX*4), R9

// KSTEPS starts the k loop at the panel's row 0, CX steps to go.
#define KSTEPS \
	MOVQ DI, AX; \
	MOVQ DX, CX; \
	SHRQ $2, CX

// STEP moves to k step p+1 and counts it off.
#define STEP \
	ADDQ $4, SI; \
	ADDQ $4, R9; \
	ADDQ R15, AX; \
	DECQ CX

// EACH1…EACH8 apply a row macro M(a, z0, z1) to a tile's rows: the row's
// input at step p and its two accumulators, columns 0–15 and 16–31.
#define EACH1(M) M((SI), Z0, Z1)
#define EACH2(M) EACH1(M); M((SI)(DX*1), Z2, Z3)
#define EACH4(M) EACH2(M); M((SI)(DX*2), Z4, Z5); M((SI)(R10*1), Z6, Z7)
#define EACH8(M) EACH4(M); M((R9), Z8, Z9); M((R9)(DX*1), Z10, Z11); M((R9)(DX*2), Z12, Z13); M((R9)(R10*1), Z14, Z15)

#define ZERO512(a, z0, z1) VPXORD z0, z0, z0; VPXORD z1, z1, z1

// FMA512 multiply-adds a[r][p], broadcast, times the panel row in Z16 and
// Z17; HFMA512 does the left half only, for a panel at most 16 columns
// wide, whose right half is all masked.
#define FMA512(a, z0, z1) VBROADCASTSS a, Z18; VFMADD231PS Z16, Z18, z0; VFMADD231PS Z17, Z18, z1
#define HFMA512(a, z0, z1) VBROADCASTSS a, Z18; VFMADD231PS Z16, Z18, z0

#define BIAS512(a, z0, z1) VADDPS Z16, z0, z0; VADDPS Z17, z1, z1
#define RELU512(a, z0, z1) VMAXPS z0, Z31, z0; VMAXPS z1, Z31, z1

// STORE512 stores a row at CX under the panel's masks and steps CX to the
// next row.
#define STORE512(a, z0, z1) VMOVUPS z0, K1, (CX); VMOVUPS z1, K2, 64(CX); ADDQ BX, CX

// GEMM512 is an AVX-512F kernel for the rows EACH names. K1 and K2 mask
// the panel's live columns 0–15 and 16–31, from its width in CX.
#define GEMM512(EACH) \
	STRIDES; \
	VPXORD Z31, Z31, Z31; \
	TESTQ  R12, R12; \
	JZ     done; \
panel: \
	PANEL; \
	MOVQ  $1, AX; \
	SHLQ  CX, AX; \
	DECQ  AX; \
	KMOVW AX, K1; \
	SHRQ  $16, AX; \
	KMOVW AX, K2; \
	EACH(ZERO512); \
	KSTEPS; \
	TESTQ CX, CX; \
	JZ    bias; \
	CMPQ  R15, $64; \
	JLE   half; \
loop: \
	VMOVUPS.Z (AX), K1, Z16; \
	VMOVUPS.Z 64(AX), K2, Z17; \
	EACH(FMA512); \
	STEP; \
	JNZ loop; \
	JMP bias; \
half: \
	VMOVUPS.Z (AX), K1, Z16; \
	EACH(HFMA512); \
	STEP; \
	JNZ half; \
bias: \
	TESTQ R13, R13; \
	JZ    act; \
	VMOVUPS.Z (R13), K1, Z16; \
	VMOVUPS.Z 64(R13), K2, Z17; \
	ADDQ  $128, R13; \
	EACH(BIAS512); \
act: \
	TESTQ R11, R11; \
	JZ    store; \
	EACH(RELU512); \
store: \
	MOVQ R8, CX; \
	EACH(STORE512); \
	MOVQ AX, DI; \
	ADDQ $128, R8; \
	SUBQ $32, R12; \
	JG   panel; \
done: \
	VZEROUPPER; \
	RET

// func gemm8AVX512(dst, a, w, bias []float32, k, n int, relu bool)
TEXT ·gemm8AVX512(SB), NOSPLIT, $0-113
	MOVQ    dst_base+0(FP), R8
	MOVQ    a_base+24(FP), R14
	MOVQ    w_base+48(FP), DI
	MOVQ    bias_base+72(FP), R13
	MOVQ    k+96(FP), DX
	MOVQ    n+104(FP), R12
	MOVBLZX relu+112(FP), R11
	GEMM512(EACH8)

// func gemm4AVX512(dst, a, w, bias []float32, k, n int, relu bool)
TEXT ·gemm4AVX512(SB), NOSPLIT, $0-113
	MOVQ    dst_base+0(FP), R8
	MOVQ    a_base+24(FP), R14
	MOVQ    w_base+48(FP), DI
	MOVQ    bias_base+72(FP), R13
	MOVQ    k+96(FP), DX
	MOVQ    n+104(FP), R12
	MOVBLZX relu+112(FP), R11
	GEMM512(EACH4)

// func gemm2AVX512(dst, a, w, bias []float32, k, n int, relu bool)
TEXT ·gemm2AVX512(SB), NOSPLIT, $0-113
	MOVQ    dst_base+0(FP), R8
	MOVQ    a_base+24(FP), R14
	MOVQ    w_base+48(FP), DI
	MOVQ    bias_base+72(FP), R13
	MOVQ    k+96(FP), DX
	MOVQ    n+104(FP), R12
	MOVBLZX relu+112(FP), R11
	GEMM512(EACH2)

// func gemm1AVX512(dst, a, w, bias []float32, k, n int, relu bool)
TEXT ·gemm1AVX512(SB), NOSPLIT, $0-113
	MOVQ    dst_base+0(FP), R8
	MOVQ    a_base+24(FP), R14
	MOVQ    w_base+48(FP), DI
	MOVQ    bias_base+72(FP), R13
	MOVQ    k+96(FP), DX
	MOVQ    n+104(FP), R12
	MOVBLZX relu+112(FP), R11
	GEMM512(EACH1)

// The AVX2 kernels hold a row's 32 accumulators in four YMM registers
// (Y0–Y3 row 0, Y4–Y7 row 1) and broadcast its input into its own
// register (Y13, Y14). Whole panels load their row into Y8–Y11. The last
// panel, when narrower, keeps its lane masks there instead, and loads and
// stores through VMASKMOVPS one 8-column group at a time, via Y12.

// laneIdx holds 0…31, compared against a panel's width for its masks.
DATA laneIdx<>+0(SB)/8, $0x0000000100000000
DATA laneIdx<>+8(SB)/8, $0x0000000300000002
DATA laneIdx<>+16(SB)/8, $0x0000000500000004
DATA laneIdx<>+24(SB)/8, $0x0000000700000006
DATA laneIdx<>+32(SB)/8, $0x0000000900000008
DATA laneIdx<>+40(SB)/8, $0x0000000b0000000a
DATA laneIdx<>+48(SB)/8, $0x0000000d0000000c
DATA laneIdx<>+56(SB)/8, $0x0000000f0000000e
DATA laneIdx<>+64(SB)/8, $0x0000001100000010
DATA laneIdx<>+72(SB)/8, $0x0000001300000012
DATA laneIdx<>+80(SB)/8, $0x0000001500000014
DATA laneIdx<>+88(SB)/8, $0x0000001700000016
DATA laneIdx<>+96(SB)/8, $0x0000001900000018
DATA laneIdx<>+104(SB)/8, $0x0000001b0000001a
DATA laneIdx<>+112(SB)/8, $0x0000001d0000001c
DATA laneIdx<>+120(SB)/8, $0x0000001f0000001e
GLOBL laneIdx<>(SB), RODATA|NOPTR, $128

// YEACH1 and YEACH2 apply a row macro M(a, b, y0, y1, y2, y3) to a tile's
// rows: the row's input at step p, its broadcast register and its four
// accumulators.
#define YEACH1(M) M((SI), Y13, Y0, Y1, Y2, Y3)
#define YEACH2(M) YEACH1(M); M((SI)(DX*1), Y14, Y4, Y5, Y6, Y7)

#define ZERO256(a, b, y0, y1, y2, y3) VXORPS y0, y0, y0; VXORPS y1, y1, y1; VXORPS y2, y2, y2; VXORPS y3, y3, y3
#define BCAST256(a, b, y0, y1, y2, y3) VBROADCASTSS a, b
#define FMA256(a, b, y0, y1, y2, y3) VFMADD231PS Y8, b, y0; VFMADD231PS Y9, b, y1; VFMADD231PS Y10, b, y2; VFMADD231PS Y11, b, y3
#define BIAS256(a, b, y0, y1, y2, y3) VADDPS (R13), y0, y0; VADDPS 32(R13), y1, y1; VADDPS 64(R13), y2, y2; VADDPS 96(R13), y3, y3
#define RELU256(a, b, y0, y1, y2, y3) VMAXPS y0, Y15, y0; VMAXPS y1, Y15, y1; VMAXPS y2, Y15, y2; VMAXPS y3, Y15, y3
#define STORE256(a, b, y0, y1, y2, y3) VMOVUPS y0, (CX); VMOVUPS y1, 32(CX); VMOVUPS y2, 64(CX); VMOVUPS y3, 96(CX); ADDQ BX, CX
#define MSTORE256(a, b, y0, y1, y2, y3) VMASKMOVPS y0, Y8, (CX); VMASKMOVPS y1, Y9, 32(CX); VMASKMOVPS y2, Y10, 64(CX); VMASKMOVPS y3, Y11, 96(CX); ADDQ BX, CX

// FMAG0…FMAG3 multiply-add the masked group in Y12 into group g of a row;
// ADDG0…ADDG3 add it.
#define FMAG0(a, b, y0, y1, y2, y3) VFMADD231PS Y12, b, y0
#define FMAG1(a, b, y0, y1, y2, y3) VFMADD231PS Y12, b, y1
#define FMAG2(a, b, y0, y1, y2, y3) VFMADD231PS Y12, b, y2
#define FMAG3(a, b, y0, y1, y2, y3) VFMADD231PS Y12, b, y3
#define ADDG0(a, b, y0, y1, y2, y3) VADDPS Y12, y0, y0
#define ADDG1(a, b, y0, y1, y2, y3) VADDPS Y12, y1, y1
#define ADDG2(a, b, y0, y1, y2, y3) VADDPS Y12, y2, y2
#define ADDG3(a, b, y0, y1, y2, y3) VADDPS Y12, y3, y3

// GEMM256 is an AVX2 kernel for the rows YEACH names.
#define GEMM256(YEACH) \
	STRIDES; \
	VXORPS Y15, Y15, Y15; \
	CMPQ   R12, $32; \
	JLT    last; \
panel: \
	PANEL; \
	YEACH(ZERO256); \
	KSTEPS; \
	TESTQ CX, CX; \
	JZ    bias; \
loop: \
	VMOVUPS (AX), Y8; \
	VMOVUPS 32(AX), Y9; \
	VMOVUPS 64(AX), Y10; \
	VMOVUPS 96(AX), Y11; \
	YEACH(BCAST256); \
	YEACH(FMA256); \
	STEP; \
	JNZ loop; \
bias: \
	TESTQ R13, R13; \
	JZ    act; \
	YEACH(BIAS256); \
	ADDQ  $128, R13; \
act: \
	TESTQ R11, R11; \
	JZ    store; \
	YEACH(RELU256); \
store: \
	MOVQ R8, CX; \
	YEACH(STORE256); \
	MOVQ AX, DI; \
	ADDQ $128, R8; \
	SUBQ $32, R12; \
	CMPQ R12, $32; \
	JGE  panel; \
last: \
	TESTQ R12, R12; \
	JZ    done; \
	PANEL; \
	MOVQ         CX, X12; \
	VPBROADCASTD X12, Y12; \
	VPCMPGTD     laneIdx<>+0(SB), Y12, Y8; \
	VPCMPGTD     laneIdx<>+32(SB), Y12, Y9; \
	VPCMPGTD     laneIdx<>+64(SB), Y12, Y10; \
	VPCMPGTD     laneIdx<>+96(SB), Y12, Y11; \
	YEACH(ZERO256); \
	KSTEPS; \
	TESTQ CX, CX; \
	JZ    mbias; \
mloop: \
	YEACH(BCAST256); \
	VMASKMOVPS (AX), Y8, Y12; \
	YEACH(FMAG0); \
	VMASKMOVPS 32(AX), Y9, Y12; \
	YEACH(FMAG1); \
	VMASKMOVPS 64(AX), Y10, Y12; \
	YEACH(FMAG2); \
	VMASKMOVPS 96(AX), Y11, Y12; \
	YEACH(FMAG3); \
	STEP; \
	JNZ mloop; \
mbias: \
	TESTQ R13, R13; \
	JZ    mact; \
	VMASKMOVPS (R13), Y8, Y12; \
	YEACH(ADDG0); \
	VMASKMOVPS 32(R13), Y9, Y12; \
	YEACH(ADDG1); \
	VMASKMOVPS 64(R13), Y10, Y12; \
	YEACH(ADDG2); \
	VMASKMOVPS 96(R13), Y11, Y12; \
	YEACH(ADDG3); \
mact: \
	TESTQ R11, R11; \
	JZ    mstore; \
	YEACH(RELU256); \
mstore: \
	MOVQ R8, CX; \
	YEACH(MSTORE256); \
done: \
	VZEROUPPER; \
	RET

// func gemm2AVX2(dst, a, w, bias []float32, k, n int, relu bool)
TEXT ·gemm2AVX2(SB), NOSPLIT, $0-113
	MOVQ    dst_base+0(FP), R8
	MOVQ    a_base+24(FP), R14
	MOVQ    w_base+48(FP), DI
	MOVQ    bias_base+72(FP), R13
	MOVQ    k+96(FP), DX
	MOVQ    n+104(FP), R12
	MOVBLZX relu+112(FP), R11
	GEMM256(YEACH2)

// func gemm1AVX2(dst, a, w, bias []float32, k, n int, relu bool)
TEXT ·gemm1AVX2(SB), NOSPLIT, $0-113
	MOVQ    dst_base+0(FP), R8
	MOVQ    a_base+24(FP), R14
	MOVQ    w_base+48(FP), DI
	MOVQ    bias_base+72(FP), R13
	MOVQ    k+96(FP), DX
	MOVQ    n+104(FP), R12
	MOVBLZX relu+112(FP), R11
	GEMM256(YEACH1)
