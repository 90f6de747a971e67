package matrix

import (
	"math/rand"
	"testing"
)

func benchMatrices(n int) (*Dense, *Dense) {
	rng := rand.New(rand.NewSource(1))
	return Random(n, n, rng), Random(n, n, rng)
}

func BenchmarkMul(b *testing.B) {
	for _, n := range []int{16, 64, 128} {
		b.Run(sizeLabel(n), func(b *testing.B) {
			x, y := benchMatrices(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Mul(x, y)
			}
		})
	}
}

func BenchmarkAddMul(b *testing.B) {
	x, y := benchMatrices(64)
	c := New(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AddMul(1, x, y)
	}
}

// The three benchmarks below are the producer of per-block kernel rates (the
// sweep bench/ deliberately is not; its matrix.*_gflops are one block size
// per workload): execution path × numerics contract × the block sizes the
// distributed kernels run at, each row with its effective GF/s for the
// kernel's standard flop count. Scalar is the Strict reference and has no
// Fast variant. Whole factorizations are timed where they run, by
// internal/kernels' BenchmarkReplay*.
var (
	kernelSizes     = []int{32, 64, 256, 512}
	kernelContracts = []Numerics{Strict, Fast}
)

// benchKernel times op as the sub-benchmark mode/size.
func benchKernel(b *testing.B, mode string, n int, flops float64, op func() error) {
	b.Run(mode+"/"+sizeLabel(n), func(b *testing.B) { timeKernel(b, flops, op) })
}

// timeKernel runs op b.N times and adds the GF/s column: flops per
// operation over ns per operation.
func timeKernel(b *testing.B, flops float64, op func() error) {
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(flops*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GF/s")
}

func cube(n int) float64 { return float64(n) * float64(n) * float64(n) }

// gemmSizes adds to kernelSizes the rim sizes 20, 40 and 100, where no
// tile divides the block and the padded rims run.
var gemmSizes = []int{20, 32, 40, 64, 100, 256, 512}

func BenchmarkGEMMModes(b *testing.B) {
	for _, n := range gemmSizes {
		x, y := benchMatrices(n)
		c := New(n, n)
		flops := 2 * cube(n)
		benchKernel(b, "scalar", n, flops, func() error { c.AddMulScalar(1, x, y); return nil })
		for _, nm := range kernelContracts {
			benchKernel(b, "packed/"+nm.String(), n, flops, func() error { c.AddMulNumerics(1, x, y, nm); return nil })
		}
	}
}

func BenchmarkTRSMModes(b *testing.B) {
	for _, n := range kernelSizes {
		rng := rand.New(rand.NewSource(6))
		l := New(n, n)
		for i := 0; i < n; i++ {
			l.Set(i, i, 1)
			for j := 0; j < i; j++ {
				l.Set(i, j, 2*rng.Float64()-1)
			}
		}
		rhs := Random(n, n, rng)
		flops := cube(n)
		benchKernel(b, "scalar", n, flops, func() error { l.SolveLowerUnitScalar(rhs.Clone()); return nil })
		for _, nm := range kernelContracts {
			benchKernel(b, "packed/"+nm.String(), n, flops, func() error { l.SolveLowerUnitNumerics(rhs.Clone(), nm); return nil })
		}
		// The panel solve x·U = b, Strict only: the row-wise substitution it
		// replaced, and the blocked solve.
		u, x := RandomWellConditioned(n, rng), New(n, n)
		benchKernel(b, "upper-right/rows", n, flops, func() error { x.CopyFrom(rhs); solveUpperRightRows(x, u); return nil })
		benchKernel(b, "upper-right/blocked", n, flops, func() error { x.CopyFrom(rhs); return x.SolveUpperRight(u) })
	}
}

// BenchmarkDiagFactor times the two diagonal-block factors on the critical
// path of every LU and Cholesky step, at the block sizes the engine runs.
// FactorNoPivot works in place, so its rows include one r×r copy per
// operation (r² moves against ⅔·r³ flops).
func BenchmarkDiagFactor(b *testing.B) {
	for _, n := range []int{32, 64} {
		rng := rand.New(rand.NewSource(2))
		a, spd := RandomWellConditioned(n, rng), RandomSPD(n, rng)
		blk := New(n, n)
		benchKernel(b, "lu", n, 2.0/3*cube(n), func() error { blk.CopyFrom(a); return FactorNoPivot(blk) })
		benchKernel(b, "cholesky", n, 1.0/3*cube(n), func() error { _, err := FactorCholesky(spd); return err })
	}
}

func BenchmarkFrobeniusNorm(b *testing.B) {
	a, _ := benchMatrices(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.FrobeniusNorm()
	}
}

func sizeLabel(n int) string {
	switch {
	case n < 10:
		return "n00" + string(rune('0'+n))
	case n < 100:
		return "n0" + string(rune('0'+n/10)) + string(rune('0'+n%10))
	default:
		return "n" + string(rune('0'+n/100)) + string(rune('0'+(n/10)%10)) + string(rune('0'+n%10))
	}
}
