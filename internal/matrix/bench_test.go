package matrix

import (
	"math/rand"
	"runtime"
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

// The five benchmarks below are the producer of kernel rates (the sweep
// bench/ deliberately is not; its matrix.*_gflops are one block size per
// workload): execution path × numerics contract × the block sizes the
// distributed kernels run at, each row with its effective GF/s for the
// kernel's standard flop count. Scalar is the Strict reference and has no
// Fast variant; the factorizations have no parallel path at this layer
// (the engine partitions whole blocks above it).
var (
	kernelSizes     = []int{32, 64, 256, 512}
	kernelContracts = []Numerics{Strict, Fast}
)

// benchKernel times op as the sub-benchmark mode/size.
func benchKernel(b *testing.B, mode string, n int, flops float64, op func() error) {
	b.Run(mode+"/"+sizeLabel(n), func(b *testing.B) { timeKernel(b, flops, op) })
}

// benchParallelKernel is benchKernel for a path that takes a worker count:
// every CPU this run may use. On one CPU the row would time coordination
// overhead and read as a slowdown of the kernel, so it is skipped.
func benchParallelKernel(b *testing.B, mode string, n int, flops float64, op func(workers int)) {
	b.Run(mode+"/"+sizeLabel(n), func(b *testing.B) {
		w := runtime.GOMAXPROCS(0)
		if w == 1 {
			b.Skip("GOMAXPROCS=1: nothing to run in parallel")
		}
		timeKernel(b, flops, func() error { op(w); return nil })
	})
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

func BenchmarkGEMMModes(b *testing.B) {
	for _, n := range kernelSizes {
		x, y := benchMatrices(n)
		c := New(n, n)
		flops := 2 * cube(n)
		benchKernel(b, "scalar", n, flops, func() error { c.AddMulScalar(1, x, y); return nil })
		for _, nm := range kernelContracts {
			benchKernel(b, "packed/"+nm.String(), n, flops, func() error { c.AddMulNumerics(1, x, y, nm); return nil })
			benchParallelKernel(b, "parallel/"+nm.String(), n, flops, func(w int) { c.AddMulParallelNumerics(1, x, y, w, nm) })
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
			benchParallelKernel(b, "parallel/"+nm.String(), n, flops, func(w int) { l.SolveLowerUnitParallelNumerics(rhs.Clone(), w, nm) })
		}
	}
}

func BenchmarkLUFactor(b *testing.B) {
	for _, n := range kernelSizes {
		a := RandomWellConditioned(n, rand.New(rand.NewSource(2)))
		flops := 2.0 / 3 * cube(n)
		benchKernel(b, "scalar", n, flops, func() error { _, err := Factor(a); return err })
		for _, nm := range kernelContracts {
			benchKernel(b, "packed/"+nm.String(), n, flops, func() error { _, err := BlockedFactorNumerics(a, 0, nm); return err })
		}
	}
}

func BenchmarkLUSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := RandomWellConditioned(64, rng)
	rhs := Random(64, 1, rng)
	f, err := Factor(a)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Solve(rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQRFactor(b *testing.B) {
	for _, n := range kernelSizes {
		a := Random(n, n, rand.New(rand.NewSource(4)))
		flops := 4.0 / 3 * cube(n)
		benchKernel(b, "scalar", n, flops, func() error { FactorQR(a); return nil })
		for _, nm := range kernelContracts {
			benchKernel(b, "packed/"+nm.String(), n, flops, func() error { FactorQRBlockedNumerics(a, 0, nm); return nil })
		}
	}
}

func BenchmarkCholeskyFactor(b *testing.B) {
	for _, n := range kernelSizes {
		a := RandomSPD(n, rand.New(rand.NewSource(5)))
		flops := 1.0 / 3 * cube(n)
		benchKernel(b, "scalar", n, flops, func() error { _, err := FactorCholesky(a); return err })
		for _, nm := range kernelContracts {
			benchKernel(b, "packed/"+nm.String(), n, flops, func() error { _, err := BlockedFactorCholeskyNumerics(a, 0, nm); return err })
		}
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
