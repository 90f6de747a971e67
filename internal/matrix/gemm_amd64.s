//go:build amd64

#include "textflag.h"

// func cpuHasAVX() bool
//
// CPUID.1:ECX bit 27 (OSXSAVE) and bit 28 (AVX) must be set, then
// XGETBV(0) must report XCR0 bits 1 and 2 (XMM and YMM state enabled by
// the OS).
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVQ	$1, AX
	CPUID
	ANDL	$0x18000000, CX
	CMPL	CX, $0x18000000
	JNE	noavx
	XORL	CX, CX
	XGETBV
	ANDL	$6, AX
	CMPL	AX, $6
	JNE	noavx
	MOVB	$1, ret+0(FP)
	RET
noavx:
	MOVB	$0, ret+0(FP)
	RET

// func cpuHasAVX2FMA() bool
//
// The fused micro-kernel needs FMA (CPUID.1:ECX bit 12), AVX + OSXSAVE
// (bits 28/27), AVX2 (CPUID.(EAX=7,ECX=0):EBX bit 5), and the OS must
// enable XMM+YMM state in XCR0 (XGETBV bits 1 and 2).
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	MOVQ	$0, AX
	CPUID
	CMPL	AX, $7              // leaf 7 must exist
	JLT	nofma
	MOVQ	$1, AX
	CPUID
	ANDL	$0x18001000, CX     // FMA | OSXSAVE | AVX
	CMPL	CX, $0x18001000
	JNE	nofma
	MOVQ	$7, AX
	XORL	CX, CX
	CPUID
	ANDL	$0x20, BX           // AVX2
	JZ	nofma
	XORL	CX, CX
	XGETBV
	ANDL	$6, AX              // XMM and YMM state enabled
	CMPL	AX, $6
	JNE	nofma
	MOVB	$1, ret+0(FP)
	RET
nofma:
	MOVB	$0, ret+0(FP)
	RET

// func gemmMicroAVX4x8(c *float64, stride int, pa, pb *float64, kc int)
//
// Register tile: Y0..Y7 hold the 4×8 block of C (two YMM per row) across
// the whole k loop. Per k step: two 8-wide B loads, four A broadcasts, and
// eight VMULPD/VADDPD pairs. No FMA — the separate multiply and add
// roundings keep the kernel bit-identical to the scalar reference.
TEXT ·gemmMicroAVX4x8(SB), NOSPLIT, $0-40
	MOVQ	c+0(FP), DI
	MOVQ	stride+8(FP), SI
	MOVQ	pa+16(FP), R8
	MOVQ	pb+24(FP), R9
	MOVQ	kc+32(FP), CX
	SHLQ	$3, SI              // stride in bytes
	LEAQ	(DI)(SI*2), R10     // row 2

	VMOVUPD	(DI), Y0            // C row 0
	VMOVUPD	32(DI), Y1
	VMOVUPD	(DI)(SI*1), Y2      // C row 1
	VMOVUPD	32(DI)(SI*1), Y3
	VMOVUPD	(R10), Y4           // C row 2
	VMOVUPD	32(R10), Y5
	VMOVUPD	(R10)(SI*1), Y6     // C row 3
	VMOVUPD	32(R10)(SI*1), Y7

kloop:
	VMOVUPD	(R9), Y8            // B[k, 0:4]
	VMOVUPD	32(R9), Y9          // B[k, 4:8]
	VBROADCASTSD	(R8), Y10   // A[0, k]
	VBROADCASTSD	8(R8), Y11  // A[1, k]
	VMULPD	Y8, Y10, Y12
	VADDPD	Y12, Y0, Y0
	VMULPD	Y9, Y10, Y13
	VADDPD	Y13, Y1, Y1
	VMULPD	Y8, Y11, Y14
	VADDPD	Y14, Y2, Y2
	VMULPD	Y9, Y11, Y15
	VADDPD	Y15, Y3, Y3
	VBROADCASTSD	16(R8), Y10 // A[2, k]
	VBROADCASTSD	24(R8), Y11 // A[3, k]
	VMULPD	Y8, Y10, Y12
	VADDPD	Y12, Y4, Y4
	VMULPD	Y9, Y10, Y13
	VADDPD	Y13, Y5, Y5
	VMULPD	Y8, Y11, Y14
	VADDPD	Y14, Y6, Y6
	VMULPD	Y9, Y11, Y15
	VADDPD	Y15, Y7, Y7
	ADDQ	$32, R8
	ADDQ	$64, R9
	DECQ	CX
	JNE	kloop

	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, (DI)(SI*1)
	VMOVUPD	Y3, 32(DI)(SI*1)
	VMOVUPD	Y4, (R10)
	VMOVUPD	Y5, 32(R10)
	VMOVUPD	Y6, (R10)(SI*1)
	VMOVUPD	Y7, 32(R10)(SI*1)
	VZEROUPPER
	RET

// func gemmMicroFMA6x8(c *float64, stride int, pa, pb *float64, kc int)
//
// The Fast-mode register tile: Y0..Y11 hold the 6×8 block of C (two YMM
// per row) across the whole k loop. Per k step: two 8-wide B loads, six A
// broadcasts (alternating Y14/Y15 to break the dependency chain), and
// twelve VFMADD231PD — one rounding per multiply-add, which is the whole
// point of Fast mode. A 6×8 tile is the widest that fits the VEX register
// budget (12 accumulators + 2 B + 2 broadcast = 16 YMM); software
// prefetch walks the packed panels a few k steps ahead. Accumulation is
// still strictly increasing in k, so the result is bit-identical to the
// math.FMA scalar reference AddMulScalarFMA. pa advances 6 and pb 8
// elements per k step. kc must be ≥ 1.
TEXT ·gemmMicroFMA6x8(SB), NOSPLIT, $0-40
	MOVQ	c+0(FP), DI
	MOVQ	stride+8(FP), SI
	MOVQ	pa+16(FP), R8
	MOVQ	pb+24(FP), R9
	MOVQ	kc+32(FP), CX
	SHLQ	$3, SI              // stride in bytes
	LEAQ	(DI)(SI*2), R10     // row 2
	LEAQ	(DI)(SI*4), R11     // row 4

	VMOVUPD	(DI), Y0            // C row 0
	VMOVUPD	32(DI), Y1
	VMOVUPD	(DI)(SI*1), Y2      // C row 1
	VMOVUPD	32(DI)(SI*1), Y3
	VMOVUPD	(R10), Y4           // C row 2
	VMOVUPD	32(R10), Y5
	VMOVUPD	(R10)(SI*1), Y6     // C row 3
	VMOVUPD	32(R10)(SI*1), Y7
	VMOVUPD	(R11), Y8           // C row 4
	VMOVUPD	32(R11), Y9
	VMOVUPD	(R11)(SI*1), Y10    // C row 5
	VMOVUPD	32(R11)(SI*1), Y11

fmakloop:
	VMOVUPD	(R9), Y12           // B[k, 0:4]
	VMOVUPD	32(R9), Y13         // B[k, 4:8]
	PREFETCHT0	384(R8)         // packed A, 8 k steps ahead
	PREFETCHT0	512(R9)         // packed B, 8 k steps ahead
	VBROADCASTSD	(R8), Y14   // A[0, k]
	VBROADCASTSD	8(R8), Y15  // A[1, k]
	VFMADD231PD	Y12, Y14, Y0
	VFMADD231PD	Y13, Y14, Y1
	VFMADD231PD	Y12, Y15, Y2
	VFMADD231PD	Y13, Y15, Y3
	VBROADCASTSD	16(R8), Y14 // A[2, k]
	VBROADCASTSD	24(R8), Y15 // A[3, k]
	VFMADD231PD	Y12, Y14, Y4
	VFMADD231PD	Y13, Y14, Y5
	VFMADD231PD	Y12, Y15, Y6
	VFMADD231PD	Y13, Y15, Y7
	VBROADCASTSD	32(R8), Y14 // A[4, k]
	VBROADCASTSD	40(R8), Y15 // A[5, k]
	VFMADD231PD	Y12, Y14, Y8
	VFMADD231PD	Y13, Y14, Y9
	VFMADD231PD	Y12, Y15, Y10
	VFMADD231PD	Y13, Y15, Y11
	ADDQ	$48, R8
	ADDQ	$64, R9
	DECQ	CX
	JNE	fmakloop

	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, (DI)(SI*1)
	VMOVUPD	Y3, 32(DI)(SI*1)
	VMOVUPD	Y4, (R10)
	VMOVUPD	Y5, 32(R10)
	VMOVUPD	Y6, (R10)(SI*1)
	VMOVUPD	Y7, 32(R10)(SI*1)
	VMOVUPD	Y8, (R11)
	VMOVUPD	Y9, 32(R11)
	VMOVUPD	Y10, (R11)(SI*1)
	VMOVUPD	Y11, 32(R11)(SI*1)
	VZEROUPPER
	RET

// func cpuHasAVX512() bool
//
// The 8×16 ZMM tiles need AVX512F (CPUID.(EAX=7,ECX=0):EBX bit 16) and
// OSXSAVE (CPUID.1:ECX bit 27), and the OS must enable XMM, YMM, opmask
// and both halves of the ZMM state in XCR0 (bits 1, 2, 5, 6, 7: 0xE6).
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	MOVQ	$0, AX
	CPUID
	CMPL	AX, $7              // leaf 7 must exist
	JLT	noavx512
	MOVQ	$1, AX
	CPUID
	ANDL	$0x08000000, CX     // OSXSAVE
	JZ	noavx512
	MOVQ	$7, AX
	XORL	CX, CX
	CPUID
	ANDL	$0x10000, BX        // AVX512F
	JZ	noavx512
	XORL	CX, CX
	XGETBV
	ANDL	$0xE6, AX           // XMM, YMM, opmask, ZMM_Hi256, Hi16_ZMM
	CMPL	AX, $0xE6
	JNE	noavx512
	MOVB	$1, ret+0(FP)
	RET
noavx512:
	MOVB	$0, ret+0(FP)
	RET

// func gemmMicroZMM8x16(c *float64, stride int, pa, pb *float64, kc int)
//
// The Strict ZMM register tile: Z0..Z15 hold the 8×16 block of C (two ZMM
// per row) across the whole k loop. Per k step: two 16-wide B loads, eight
// A broadcasts and sixteen VMULPD/VADDPD pairs into eight product
// registers — unfused, so each lane performs the scalar reference's two
// IEEE roundings (multiply, then add) in increasing k. pa advances 8 and pb
// 16 elements per k step. kc must be ≥ 1.
TEXT ·gemmMicroZMM8x16(SB), NOSPLIT, $0-40
	MOVQ	c+0(FP), DI
	MOVQ	stride+8(FP), SI
	MOVQ	pa+16(FP), R8
	MOVQ	pb+24(FP), R9
	MOVQ	kc+32(FP), CX
	SHLQ	$3, SI              // stride in bytes
	LEAQ	(DI)(SI*2), R10     // row 2
	LEAQ	(DI)(SI*4), R11     // row 4
	LEAQ	(R11)(SI*2), R12    // row 6

	VMOVUPD	(DI), Z0            // C row 0
	VMOVUPD	64(DI), Z1
	VMOVUPD	(DI)(SI*1), Z2      // C row 1
	VMOVUPD	64(DI)(SI*1), Z3
	VMOVUPD	(R10), Z4           // C row 2
	VMOVUPD	64(R10), Z5
	VMOVUPD	(R10)(SI*1), Z6     // C row 3
	VMOVUPD	64(R10)(SI*1), Z7
	VMOVUPD	(R11), Z8           // C row 4
	VMOVUPD	64(R11), Z9
	VMOVUPD	(R11)(SI*1), Z10    // C row 5
	VMOVUPD	64(R11)(SI*1), Z11
	VMOVUPD	(R12), Z12          // C row 6
	VMOVUPD	64(R12), Z13
	VMOVUPD	(R12)(SI*1), Z14    // C row 7
	VMOVUPD	64(R12)(SI*1), Z15

zmmkloop:
	VMOVUPD	(R9), Z16           // B[k, 0:8]
	VMOVUPD	64(R9), Z17         // B[k, 8:16]
	VBROADCASTSD	(R8), Z18   // A[0, k]
	VBROADCASTSD	8(R8), Z19  // A[1, k]
	VBROADCASTSD	16(R8), Z20 // A[2, k]
	VBROADCASTSD	24(R8), Z21 // A[3, k]
	VMULPD	Z16, Z18, Z24
	VMULPD	Z17, Z18, Z25
	VMULPD	Z16, Z19, Z26
	VMULPD	Z17, Z19, Z27
	VMULPD	Z16, Z20, Z28
	VMULPD	Z17, Z20, Z29
	VMULPD	Z16, Z21, Z30
	VMULPD	Z17, Z21, Z31
	VADDPD	Z24, Z0, Z0
	VADDPD	Z25, Z1, Z1
	VADDPD	Z26, Z2, Z2
	VADDPD	Z27, Z3, Z3
	VADDPD	Z28, Z4, Z4
	VADDPD	Z29, Z5, Z5
	VADDPD	Z30, Z6, Z6
	VADDPD	Z31, Z7, Z7
	VBROADCASTSD	32(R8), Z18 // A[4, k]
	VBROADCASTSD	40(R8), Z19 // A[5, k]
	VBROADCASTSD	48(R8), Z20 // A[6, k]
	VBROADCASTSD	56(R8), Z21 // A[7, k]
	VMULPD	Z16, Z18, Z24
	VMULPD	Z17, Z18, Z25
	VMULPD	Z16, Z19, Z26
	VMULPD	Z17, Z19, Z27
	VMULPD	Z16, Z20, Z28
	VMULPD	Z17, Z20, Z29
	VMULPD	Z16, Z21, Z30
	VMULPD	Z17, Z21, Z31
	VADDPD	Z24, Z8, Z8
	VADDPD	Z25, Z9, Z9
	VADDPD	Z26, Z10, Z10
	VADDPD	Z27, Z11, Z11
	VADDPD	Z28, Z12, Z12
	VADDPD	Z29, Z13, Z13
	VADDPD	Z30, Z14, Z14
	VADDPD	Z31, Z15, Z15
	ADDQ	$64, R8
	ADDQ	$128, R9
	DECQ	CX
	JNE	zmmkloop

	VMOVUPD	Z0, (DI)
	VMOVUPD	Z1, 64(DI)
	VMOVUPD	Z2, (DI)(SI*1)
	VMOVUPD	Z3, 64(DI)(SI*1)
	VMOVUPD	Z4, (R10)
	VMOVUPD	Z5, 64(R10)
	VMOVUPD	Z6, (R10)(SI*1)
	VMOVUPD	Z7, 64(R10)(SI*1)
	VMOVUPD	Z8, (R11)
	VMOVUPD	Z9, 64(R11)
	VMOVUPD	Z10, (R11)(SI*1)
	VMOVUPD	Z11, 64(R11)(SI*1)
	VMOVUPD	Z12, (R12)
	VMOVUPD	Z13, 64(R12)
	VMOVUPD	Z14, (R12)(SI*1)
	VMOVUPD	Z15, 64(R12)(SI*1)
	VZEROUPPER
	RET

// func gemmMicroZMMFMA8x16(c *float64, stride int, pa, pb *float64, kc int)
//
// The Fast ZMM register tile: Z0..Z15 hold the 8×16 block of C across the
// whole k loop. Per k step: two 16-wide B loads, eight A broadcasts and
// sixteen VFMADD231PD — one rounding per multiply-add, in increasing k, so
// bit-identical to the math.FMA scalar reference AddMulScalarFMA. pa
// advances 8 and pb 16 elements per k step. kc must be ≥ 1.
TEXT ·gemmMicroZMMFMA8x16(SB), NOSPLIT, $0-40
	MOVQ	c+0(FP), DI
	MOVQ	stride+8(FP), SI
	MOVQ	pa+16(FP), R8
	MOVQ	pb+24(FP), R9
	MOVQ	kc+32(FP), CX
	SHLQ	$3, SI              // stride in bytes
	LEAQ	(DI)(SI*2), R10     // row 2
	LEAQ	(DI)(SI*4), R11     // row 4
	LEAQ	(R11)(SI*2), R12    // row 6

	VMOVUPD	(DI), Z0            // C row 0
	VMOVUPD	64(DI), Z1
	VMOVUPD	(DI)(SI*1), Z2      // C row 1
	VMOVUPD	64(DI)(SI*1), Z3
	VMOVUPD	(R10), Z4           // C row 2
	VMOVUPD	64(R10), Z5
	VMOVUPD	(R10)(SI*1), Z6     // C row 3
	VMOVUPD	64(R10)(SI*1), Z7
	VMOVUPD	(R11), Z8           // C row 4
	VMOVUPD	64(R11), Z9
	VMOVUPD	(R11)(SI*1), Z10    // C row 5
	VMOVUPD	64(R11)(SI*1), Z11
	VMOVUPD	(R12), Z12          // C row 6
	VMOVUPD	64(R12), Z13
	VMOVUPD	(R12)(SI*1), Z14    // C row 7
	VMOVUPD	64(R12)(SI*1), Z15

zmmfmakloop:
	VMOVUPD	(R9), Z16           // B[k, 0:8]
	VMOVUPD	64(R9), Z17         // B[k, 8:16]
	VBROADCASTSD	(R8), Z18   // A[0, k]
	VBROADCASTSD	8(R8), Z19  // A[1, k]
	VBROADCASTSD	16(R8), Z20 // A[2, k]
	VBROADCASTSD	24(R8), Z21 // A[3, k]
	VFMADD231PD	Z16, Z18, Z0
	VFMADD231PD	Z17, Z18, Z1
	VFMADD231PD	Z16, Z19, Z2
	VFMADD231PD	Z17, Z19, Z3
	VFMADD231PD	Z16, Z20, Z4
	VFMADD231PD	Z17, Z20, Z5
	VFMADD231PD	Z16, Z21, Z6
	VFMADD231PD	Z17, Z21, Z7
	VBROADCASTSD	32(R8), Z22 // A[4, k]
	VBROADCASTSD	40(R8), Z23 // A[5, k]
	VBROADCASTSD	48(R8), Z24 // A[6, k]
	VBROADCASTSD	56(R8), Z25 // A[7, k]
	VFMADD231PD	Z16, Z22, Z8
	VFMADD231PD	Z17, Z22, Z9
	VFMADD231PD	Z16, Z23, Z10
	VFMADD231PD	Z17, Z23, Z11
	VFMADD231PD	Z16, Z24, Z12
	VFMADD231PD	Z17, Z24, Z13
	VFMADD231PD	Z16, Z25, Z14
	VFMADD231PD	Z17, Z25, Z15
	ADDQ	$64, R8
	ADDQ	$128, R9
	DECQ	CX
	JNE	zmmfmakloop

	VMOVUPD	Z0, (DI)
	VMOVUPD	Z1, 64(DI)
	VMOVUPD	Z2, (DI)(SI*1)
	VMOVUPD	Z3, 64(DI)(SI*1)
	VMOVUPD	Z4, (R10)
	VMOVUPD	Z5, 64(R10)
	VMOVUPD	Z6, (R10)(SI*1)
	VMOVUPD	Z7, 64(R10)(SI*1)
	VMOVUPD	Z8, (R11)
	VMOVUPD	Z9, 64(R11)
	VMOVUPD	Z10, (R11)(SI*1)
	VMOVUPD	Z11, 64(R11)(SI*1)
	VMOVUPD	Z12, (R12)
	VMOVUPD	Z13, 64(R12)
	VMOVUPD	Z14, (R12)(SI*1)
	VMOVUPD	Z15, 64(R12)(SI*1)
	VZEROUPPER
	RET
