//go:build amd64

package matrix

import (
	"math/rand"
	"testing"
)

// TestGemmGoTileMatchesAVX runs the pure-Go register tile and every
// unfused assembly tile the CPU has (4×8 AVX, 8×16 ZMM) on the same
// products and asserts they agree bit for bit — the kernels' unfused
// VMULPD/VADDPD pairs perform the same two IEEE roundings per lane as the
// Go code.
func TestGemmGoTileMatchesAVX(t *testing.T) {
	if !cpuHasAVX() {
		t.Skip("no AVX on this CPU")
	}
	tiles := []gemmTile{tileAVX}
	if cpuHasAVX512() {
		tiles = append(tiles, tileZMM)
	}
	rng := rand.New(rand.NewSource(711))
	for it := 0; it < 40; it++ {
		m, k, n := pickDim(rng), pickDim(rng), pickDim(rng)
		if m*k*n > 1<<21 {
			m = 16
		}
		a := randomOperand(rng, m, k, false, it%6 == 0)
		b := randomOperand(rng, k, n, false, it%6 == 0)
		c0 := randomOperand(rng, m, n, false, false)

		plain := c0.Clone()
		plain.addMulPacked(1.25, a, b, tileGo)
		for _, tile := range tiles {
			asm := c0.Clone()
			asm.addMulPacked(1.25, a, b, tile)
			if !bitIdentical(asm, plain) {
				t.Fatalf("it=%d m=%d k=%d n=%d: %s tile differs from Go tile", it, m, k, n, tile.name)
			}
		}
	}
}

// The direct tests run each assembly micro-kernel on exact tiles
// (checkMicroDirect): the unfused ones against the two-rounding
// accumulation, the fused ones against math.FMA, which the compiler lowers
// to the same VFMADD instruction on this hardware.

func TestGemmMicroAVXDirect(t *testing.T) {
	if !cpuHasAVX() {
		t.Skip("no AVX on this CPU")
	}
	checkMicroDirect(t, tileAVX)
}

func TestGemmMicroFMADirect(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip("no AVX2+FMA on this CPU")
	}
	checkMicroDirect(t, tileFMA)
}

func TestGemmMicroZMMDirect(t *testing.T) {
	if !cpuHasAVX512() {
		t.Skip("no AVX-512F on this CPU: the 8×16 ZMM tiles are untested here")
	}
	checkMicroDirect(t, tileZMM)
}

func TestGemmMicroZMMFMADirect(t *testing.T) {
	if !cpuHasAVX512() {
		t.Skip("no AVX-512F on this CPU: the 8×16 ZMM tiles are untested here")
	}
	checkMicroDirect(t, tileZMMFMA)
}

// TestFastFallbackWithoutFMA forces gemmHaveFMA off and asserts Fast mode
// degrades to the Strict packed path bit for bit — the documented behavior
// on hardware without AVX2+FMA (the error bound then holds with equality).
func TestFastFallbackWithoutFMA(t *testing.T) {
	saved := gemmHaveFMA
	defer func() { gemmHaveFMA = saved }()
	gemmHaveFMA = false

	rng := rand.New(rand.NewSource(714))
	for it := 0; it < 10; it++ {
		m, k, n := pickDim(rng), pickDim(rng), pickDim(rng)
		a := randomOperand(rng, m, k, false, it%3 == 0)
		b := randomOperand(rng, k, n, false, false)
		c0 := randomOperand(rng, m, n, false, false)
		strict := c0.Clone()
		strict.AddMulNumerics(1, a, b, Strict)
		fast := c0.Clone()
		fast.AddMulNumerics(1, a, b, Fast)
		if !bitIdentical(fast, strict) {
			t.Fatalf("it=%d m=%d k=%d n=%d: Fast without FMA is not the Strict path", it, m, k, n)
		}
	}
	if FastAvailable() {
		t.Fatal("FastAvailable must report false while gemmHaveFMA is forced off")
	}
}

// forceGoTile routes the Strict packed GEMM through the pure-Go register
// tile until the test ends, so a test can cover the path CPUs without AVX
// take.
func forceGoTile(t *testing.T) {
	saved, saved512 := gemmHaveAVX, gemmHaveAVX512
	gemmHaveAVX, gemmHaveAVX512 = false, false
	t.Cleanup(func() { gemmHaveAVX, gemmHaveAVX512 = saved, saved512 })
}

// forceNoAVX512 routes the packed GEMM through the YMM tiles until the
// test ends, as on CPUs without AVX-512.
func forceNoAVX512(t *testing.T) {
	saved := gemmHaveAVX512
	gemmHaveAVX512 = false
	t.Cleanup(func() { gemmHaveAVX512 = saved })
}

// forceNoFMA runs Fast on the Strict path until the test ends, as CPUs
// without AVX2+FMA do.
func forceNoFMA(t *testing.T) {
	saved := gemmHaveFMA
	gemmHaveFMA = false
	t.Cleanup(func() { gemmHaveFMA = saved })
}
