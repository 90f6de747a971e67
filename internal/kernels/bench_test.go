package kernels

import (
	"fmt"
	"math/rand"
	"testing"

	"hetgrid/internal/distribution"
	"hetgrid/internal/matrix"
	"hetgrid/internal/sim"
)

func benchOpts() Options {
	return Options{Net: sim.Config{Latency: 0.05, ByteTime: 1e-5}, BlockBytes: 8192}
}

func BenchmarkSimulateMM(b *testing.B) {
	arr := hetArr()
	d, err := distribution.UniformBlockCyclic(2, 2, 32, 32)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateMM(d, arr, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateLU(b *testing.B) {
	arr := hetArr()
	d, err := distribution.UniformBlockCyclic(2, 2, 32, 32)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateLU(d, arr, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateCholesky(b *testing.B) {
	arr := hetArr()
	d, err := distribution.UniformBlockCyclic(2, 2, 32, 32)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateCholesky(d, arr, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatePaperGrid times one simulation of the 3×3 case of the
// benchmark's sim-paper workload (nb = 48, ring broadcast) per kernel and
// distribution.
func BenchmarkSimulatePaperGrid(b *testing.B) {
	opts := benchOpts()
	opts.Broadcast = sim.RingBroadcast
	for _, k := range paperSimulators {
		arr, dists := paperGrid(b, k.region)
		for _, d := range dists {
			b.Run(k.name+"/"+d.Name(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := k.run(d, arr, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchReplay times one serial replay — the code bench/'s matrix.serial_s and
// matrix.gflops_effective time, and the oracle every engine run is held to —
// at N = 512 for the block sizes and numerics contracts the engine workloads
// run at, with the effective GF/s for the kernel's nominal flop count
// (perN3 · N³, bench/'s convention).
func benchReplay(b *testing.B, perN3 float64, replay func(d distribution.Distribution, mode matrix.Numerics) error) {
	const n = 512
	for _, r := range []int{32, 64} {
		d, err := distribution.UniformBlockCyclic(2, 2, n/r, n/r)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []matrix.Numerics{matrix.Strict, matrix.Fast} {
			b.Run(fmt.Sprintf("r%d/%s", r, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := replay(d, mode); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(perN3*n*n*n*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GF/s")
			})
		}
	}
}

func BenchmarkReplayMM(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a, c := matrix.Random(512, 512, rng), matrix.Random(512, 512, rng)
	benchReplay(b, 2, func(d distribution.Distribution, mode matrix.Numerics) error {
		_, err := ReplayMMNumerics(d, a, c, mode)
		return err
	})
}

func BenchmarkReplayLU(b *testing.B) {
	a := matrix.RandomWellConditioned(512, rand.New(rand.NewSource(2)))
	benchReplay(b, 2.0/3, func(d distribution.Distribution, mode matrix.Numerics) error {
		_, err := ReplayLUNumerics(d, a, mode)
		return err
	})
}

// QR is Strict under either mode (see ReplayQRNumerics): its fast rows
// measure the same code as its strict rows, which makes their difference
// the run's own noise floor.
func BenchmarkReplayQR(b *testing.B) {
	a := matrix.Random(512, 512, rand.New(rand.NewSource(3)))
	benchReplay(b, 4.0/3, func(d distribution.Distribution, mode matrix.Numerics) error {
		_, err := ReplayQRNumerics(d, a, mode)
		return err
	})
}

func BenchmarkReplayCholesky(b *testing.B) {
	a := matrix.RandomSPD(512, rand.New(rand.NewSource(4)))
	benchReplay(b, 1.0/3, func(d distribution.Distribution, mode matrix.Numerics) error {
		_, err := ReplayCholeskyNumerics(d, a, mode)
		return err
	})
}
