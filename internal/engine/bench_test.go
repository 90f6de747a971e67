package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"hetgrid/internal/distribution"
	"hetgrid/internal/matrix"
	"hetgrid/internal/obs"
	"hetgrid/internal/plan"
)

// The distributed kernels' developer sweep: each benchmark runs a uniform
// 2×2 toy and the shapes of bench/'s engine workloads on their layout —
// the plan for cycle-times {1,2,3,5} on a 2×2 grid, realized as the
// kernel's best het-panel of up to 8×8, as bench/engine.go builds it. One
// operation is the scatter and the kernel, with spans recorded, and every
// case reports where the ranks' step time went:
//
//	rank0_wait  rank 0's recv-wait seconds over its step seconds
//	rank0_busy  rank 0's compute seconds over its step seconds
//	peers_wait  ranks 1–3's recv-wait seconds over their step seconds
//
//	go test ./internal/engine -run '^$' -bench 'Distributed(MM|LU|Cholesky|QR)$' -count 5

// benchCase is one input of a kernel benchmark: the layout family and the
// matrix order n in blocks of r.
type benchCase struct {
	layout string // "uniform" or "het-panel"
	n, r   int
}

// benchLayout is the case's distribution for kernel k.
func benchLayout(b *testing.B, bc benchCase, k plan.Kernel) distribution.Distribution {
	b.Helper()
	nb := bc.n / bc.r
	var d distribution.Distribution
	var err error
	if bc.layout == "uniform" {
		d, err = distribution.UniformBlockCyclic(2, 2, nb, nb)
	} else {
		var res *plan.Result
		if res, err = plan.Solve(plan.Request{Times: []float64{1, 2, 3, 5}, P: 2, Q: 2}); err != nil {
			b.Fatal(err)
		}
		rowOrd, colOrd := k.Region().Orderings()
		var pan *distribution.Panel
		if pan, err = distribution.BestPanel(res.Solution, 8, 8, rowOrd, colOrd); err != nil {
			b.Fatal(err)
		}
		d, err = pan.Distribution(nb, nb)
	}
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// benchKernel runs kernel k on four ranks over each case. run receives the
// scattered inputs in order.
func benchKernel(b *testing.B, k plan.Kernel, cases []benchCase, inputs func(n int, rng *rand.Rand) []*matrix.Dense, run func(c *Comm, d distribution.Distribution, s []*BlockStore) error) {
	for _, bc := range cases {
		b.Run(fmt.Sprintf("%s/N=%d/r=%d", bc.layout, bc.n, bc.r), func(b *testing.B) {
			d := benchLayout(b, bc, k)
			in := inputs(bc.n, rand.New(rand.NewSource(1)))
			// Per rank: seconds inside steps, blocked in Recv inside them,
			// and computing.
			var step, wait, busy [4]float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := RunOpts(4, Options{Record: true}, func(c *Comm) error {
					stores := make([]*BlockStore, len(in))
					for j, m := range in {
						var err error
						if stores[j], err = Scatter(c, d, pick(c.Rank() == 0, m), bc.r); err != nil {
							return err
						}
					}
					return run(c, d, stores)
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, sp := range w.Spans() {
					switch {
					case sp.Kind == obs.SpanStep:
						step[sp.Rank] += sp.End - sp.Start
					case sp.Kind == obs.SpanRecvWait && sp.Parent != 0:
						wait[sp.Rank] += sp.End - sp.Start
					case sp.Kind == obs.SpanCompute:
						busy[sp.Rank] += sp.End - sp.Start
					}
				}
			}
			b.ReportMetric(wait[0]/step[0], "rank0_wait")
			b.ReportMetric(busy[0]/step[0], "rank0_busy")
			b.ReportMetric((wait[1]+wait[2]+wait[3])/(step[1]+step[2]+step[3]), "peers_wait")
		})
	}
}

func BenchmarkDistributedMM(b *testing.B) {
	benchKernel(b, plan.MatMul, []benchCase{{"uniform", 64, 8}, {"het-panel", 1024, 32}},
		func(n int, rng *rand.Rand) []*matrix.Dense {
			return []*matrix.Dense{matrix.Random(n, n, rng), matrix.Random(n, n, rng)}
		},
		func(c *Comm, d distribution.Distribution, s []*BlockStore) error {
			_, err := MM(c, d, s[0], s[1])
			return err
		})
}

func BenchmarkDistributedLU(b *testing.B) {
	benchKernel(b, plan.LU, []benchCase{{"uniform", 64, 8}, {"het-panel", 1536, 64}, {"het-panel", 1024, 32}},
		func(n int, rng *rand.Rand) []*matrix.Dense {
			return []*matrix.Dense{matrix.RandomWellConditioned(n, rng)}
		},
		func(c *Comm, d distribution.Distribution, s []*BlockStore) error { return LU(c, d, s[0]) })
}

func BenchmarkDistributedCholesky(b *testing.B) {
	benchKernel(b, plan.Cholesky, []benchCase{{"het-panel", 1024, 32}},
		func(n int, rng *rand.Rand) []*matrix.Dense {
			return []*matrix.Dense{matrix.RandomSPD(n, rng)}
		},
		func(c *Comm, d distribution.Distribution, s []*BlockStore) error { return Cholesky(c, d, s[0]) })
}

func BenchmarkDistributedQR(b *testing.B) {
	benchKernel(b, plan.QR, []benchCase{{"het-panel", 576, 32}},
		func(n int, rng *rand.Rand) []*matrix.Dense {
			return []*matrix.Dense{matrix.Random(n, n, rng)}
		},
		func(c *Comm, d distribution.Distribution, s []*BlockStore) error {
			_, err := QR(c, d, s[0])
			return err
		})
}

func BenchmarkMessagePingPong(b *testing.B) {
	// Raw mailbox round-trip latency.
	payload := matrix.New(8, 8)
	b.ResetTimer()
	_, err := RunOpts(2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < b.N; i++ {
				c.Send(1, "ping", payload)
				c.Recv(1, "pong")
			}
		} else {
			for i := 0; i < b.N; i++ {
				c.Recv(0, "ping")
				c.Send(0, "pong", payload)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
