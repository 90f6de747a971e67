//go:build !amd64

package matrix

// gemmHaveAVX is constant false off amd64, letting the compiler drop the
// assembly dispatch arm entirely.
const gemmHaveAVX = false

// gemmHaveFMA is constant false off amd64: Fast mode runs the Strict
// packed path there (the error bound holds with equality).
const gemmHaveFMA = false

// gemmHaveAVX512 is constant false off amd64: the ZMM tiles never run.
const gemmHaveAVX512 = false

// gemmMicroAVX4x8 is never reachable when gemmHaveAVX is false.
func gemmMicroAVX4x8(c *float64, stride int, pa, pb *float64, kc int) {
	panic("matrix: AVX micro-kernel unavailable on this architecture")
}

// gemmMicroFMA6x8 is never reachable when gemmHaveFMA is false.
func gemmMicroFMA6x8(c *float64, stride int, pa, pb *float64, kc int) {
	panic("matrix: FMA micro-kernel unavailable on this architecture")
}

// gemmMicroZMM8x16 is never reachable when gemmHaveAVX512 is false.
func gemmMicroZMM8x16(c *float64, stride int, pa, pb *float64, kc int) {
	panic("matrix: AVX-512 micro-kernel unavailable on this architecture")
}

// gemmMicroZMMFMA8x16 is never reachable when gemmHaveAVX512 is false.
func gemmMicroZMMFMA8x16(c *float64, stride int, pa, pb *float64, kc int) {
	panic("matrix: AVX-512 FMA micro-kernel unavailable on this architecture")
}
