//go:build amd64

package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// TestGemmGoTileMatchesAVX forces the pure-Go register tile (gemmHaveAVX is
// a variable precisely for this) and asserts the two micro-kernels agree bit
// for bit — the AVX kernel's unfused VMULPD/VADDPD pairs perform the same
// two IEEE roundings per lane as the Go code.
func TestGemmGoTileMatchesAVX(t *testing.T) {
	if !cpuHasAVX() {
		t.Skip("no AVX on this CPU")
	}
	saved := gemmHaveAVX
	defer func() { gemmHaveAVX = saved }()

	rng := rand.New(rand.NewSource(711))
	for it := 0; it < 40; it++ {
		m, k, n := pickDim(rng), pickDim(rng), pickDim(rng)
		if m*k*n > 1<<21 {
			m = 16
		}
		a := randomOperand(rng, m, k, false, it%6 == 0)
		b := randomOperand(rng, k, n, false, it%6 == 0)
		c0 := randomOperand(rng, m, n, false, false)

		gemmHaveAVX = true
		avx := c0.Clone()
		avx.addMulPacked(1.25, a, b, tileFor(false))

		gemmHaveAVX = false
		plain := c0.Clone()
		plain.addMulPacked(1.25, a, b, tileFor(false))
		gemmHaveAVX = saved

		if !bitIdentical(avx, plain) {
			t.Fatalf("it=%d m=%d k=%d n=%d: AVX tile differs from Go tile", it, m, k, n)
		}
	}
}

// TestGemmMicroAVXDirect exercises the assembly kernel on one exact tile,
// including NaN and signed-zero lanes.
func TestGemmMicroAVXDirect(t *testing.T) {
	if !cpuHasAVX() {
		t.Skip("no AVX on this CPU")
	}
	const kc = 5
	pa := make([]float64, 4*kc)
	pb := make([]float64, 8*kc)
	rng := rand.New(rand.NewSource(712))
	for i := range pa {
		pa[i] = rng.NormFloat64()
	}
	for i := range pb {
		pb[i] = rng.NormFloat64()
	}
	pa[2] = math.NaN()
	pb[3] = math.Copysign(0, -1)
	c := New(4, 8)
	for i := 0; i < 4; i++ {
		for j := 0; j < 8; j++ {
			c.Set(i, j, rng.NormFloat64())
		}
	}
	want := c.Clone()
	for i := 0; i < 4; i++ {
		for j := 0; j < 8; j++ {
			acc := want.At(i, j)
			for k := 0; k < kc; k++ {
				acc += pa[4*k+i] * pb[8*k+j]
			}
			want.Set(i, j, acc)
		}
	}
	gemmMicroAVX4x8(&c.data[0], c.stride, &pa[0], &pb[0], kc)
	if !bitIdentical(c, want) {
		t.Fatal("AVX micro-kernel differs from reference accumulation")
	}
}

// TestGemmMicroFMADirect exercises the fused assembly kernel on one exact
// 6×8 tile against a math.FMA accumulation (the compiler lowers math.FMA to
// the same VFMADD instruction on this hardware), including NaN and
// signed-zero lanes.
func TestGemmMicroFMADirect(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip("no AVX2+FMA on this CPU")
	}
	const kc = 7
	pa := make([]float64, 6*kc)
	pb := make([]float64, 8*kc)
	rng := rand.New(rand.NewSource(713))
	for i := range pa {
		pa[i] = rng.NormFloat64()
	}
	for i := range pb {
		pb[i] = rng.NormFloat64()
	}
	pa[4] = math.NaN()
	pb[5] = math.Copysign(0, -1)
	c := New(6, 8)
	for i := 0; i < 6; i++ {
		for j := 0; j < 8; j++ {
			c.Set(i, j, rng.NormFloat64())
		}
	}
	want := c.Clone()
	for i := 0; i < 6; i++ {
		for j := 0; j < 8; j++ {
			acc := want.At(i, j)
			for k := 0; k < kc; k++ {
				acc = math.FMA(pa[6*k+i], pb[8*k+j], acc)
			}
			want.Set(i, j, acc)
		}
	}
	gemmMicroFMA6x8(&c.data[0], c.stride, &pa[0], &pb[0], kc)
	if !bitIdentical(c, want) {
		t.Fatal("FMA micro-kernel differs from math.FMA reference accumulation")
	}
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

// forceGoTile routes the packed GEMM through the pure-Go register tile until
// the test ends, so a test can cover the path CPUs without AVX take.
func forceGoTile(t *testing.T) {
	saved := gemmHaveAVX
	gemmHaveAVX = false
	t.Cleanup(func() { gemmHaveAVX = saved })
}

// forceNoFMA runs Fast on the Strict path until the test ends, as CPUs
// without AVX2+FMA do.
func forceNoFMA(t *testing.T) {
	saved := gemmHaveFMA
	gemmHaveFMA = false
	t.Cleanup(func() { gemmHaveFMA = saved })
}
