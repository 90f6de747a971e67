//go:build amd64

package matrix

// gemmHaveAVX reports whether the AVX micro-kernel is usable on this CPU
// (and enabled by the OS). It is a variable, not a constant, so tests can
// force the pure-Go tile and assert both paths are bit-identical.
var gemmHaveAVX = cpuHasAVX()

// gemmHaveFMA reports whether the fused Fast-mode micro-kernel is usable:
// AVX2+FMA present and YMM state OS-enabled. Also a variable so tests can
// force the fallback and assert Fast degrades to the Strict path.
var gemmHaveFMA = cpuHasAVX2FMA()

// gemmHaveAVX512 reports whether the 8×16 ZMM tiles are usable: AVX512F
// present and the full ZMM state OS-enabled. A variable so tests can force
// the YMM tiles on a CPU that has it.
var gemmHaveAVX512 = cpuHasAVX512()

// cpuHasAVX reports CPU and OS support for 256-bit AVX: CPUID.1:ECX must
// advertise AVX and OSXSAVE, and XCR0 must have the XMM and YMM state bits
// set (the OS saves the full registers across context switches).
func cpuHasAVX() bool

// gemmMicroAVX4x8 is the assembly micro-kernel: a 4×8 tile of C held in
// eight YMM accumulators across the whole k loop. Updates are unfused
// VMULPD/VADDPD pairs — each lane performs exactly the two IEEE roundings
// (multiply, then add) of the scalar reference, in the same increasing-k
// order, so the asm path stays bit-identical to AddMulScalar. stride is in
// elements; pa advances 4 and pb 8 elements per k step. kc must be ≥ 1.
//
//go:noescape
func gemmMicroAVX4x8(c *float64, stride int, pa, pb *float64, kc int)

// cpuHasAVX2FMA reports CPU and OS support for the fused kernel: CPUID.1:ECX
// must advertise FMA, AVX and OSXSAVE, CPUID.(7,0):EBX must advertise AVX2,
// and XCR0 must have the XMM and YMM state bits set.
func cpuHasAVX2FMA() bool

// gemmMicroFMA6x8 is the Fast-mode assembly micro-kernel: a 6×8 tile of C
// held in twelve YMM accumulators across the whole k loop, updated with
// VFMADD231PD (one rounding per multiply-add) and software prefetch over
// the packed panels. Bit-identical to the math.FMA scalar reference, NOT to
// the Strict kernels — see the Numerics contract. stride is in elements; pa
// advances 6 and pb 8 elements per k step. kc must be ≥ 1.
//
//go:noescape
func gemmMicroFMA6x8(c *float64, stride int, pa, pb *float64, kc int)

// cpuHasAVX512 reports CPU and OS support for the ZMM tiles: CPUID.(7,0):EBX
// must advertise AVX512F, CPUID.1:ECX OSXSAVE, and XCR0 must have the XMM,
// YMM, opmask and ZMM state bits set (XCR0 & 0xE6 = 0xE6).
func cpuHasAVX512() bool

// gemmMicroZMM8x16 is the Strict AVX-512 micro-kernel: an 8×16 tile of C
// held in sixteen ZMM accumulators across the whole k loop, updated with
// unfused VMULPD/VADDPD pairs, so bit-identical to AddMulScalar as the
// 4×8 kernel is. stride is in elements; pa advances 8 and pb 16 elements
// per k step. kc must be ≥ 1.
//
//go:noescape
func gemmMicroZMM8x16(c *float64, stride int, pa, pb *float64, kc int)

// gemmMicroZMMFMA8x16 is the Fast AVX-512 micro-kernel: the 8×16 tile
// updated with VFMADD231PD, bit-identical to AddMulScalarFMA as the 6×8
// kernel is. stride is in elements; pa advances 8 and pb 16 elements per k
// step. kc must be ≥ 1.
//
//go:noescape
func gemmMicroZMMFMA8x16(c *float64, stride int, pa, pb *float64, kc int)
