package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"hetgrid/internal/distribution"
	"hetgrid/internal/kernels"
	"hetgrid/internal/matrix"
	"hetgrid/internal/sim"
)

// allBroadcastKinds enumerates every collective algorithm the engine
// supports — the same set the simulator models.
var allBroadcastKinds = []struct {
	name string
	kind sim.BroadcastKind
}{
	{"flat", sim.StarBroadcast},
	{"ring", sim.RingBroadcast},
	{"segring", sim.SegmentedRingBroadcast},
	{"tree", sim.TreeBroadcast},
}

// The golden tests pin the engine kernels to the serial replay bit for bit:
// the distributed execution reorders nothing, only relocates — the step
// loop's look-ahead moves when a block is updated, never what it sees — so
// every broadcast algorithm must reproduce the replay's floating-point
// results exactly (Equal, not EqualApprox).

// goldenBlockSizes puts MM, LU and Cholesky on the scalar block update (3)
// and the packed one (16).
var goldenBlockSizes = []int{3, 16}

func TestMMGoldenAllBroadcastKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	const nb = 6
	for _, r := range goldenBlockSizes {
		a := matrix.Random(nb*r, nb*r, rng)
		b := matrix.Random(nb*r, nb*r, rng)
		for _, d := range engineDistributions(t, nb) {
			rep, err := kernels.ReplayMMNumerics(d, a, b, matrix.Strict)
			if err != nil {
				t.Fatal(err)
			}
			for _, bk := range allBroadcastKinds {
				var got *matrix.Dense
				_, err := RunOpts(4, Options{Broadcast: bk.kind}, func(c *Comm) error {
					s1, err := Scatter(c, d, pick(c.Rank() == 0, a), r)
					if err != nil {
						return err
					}
					s2, err := Scatter(c, d, pick(c.Rank() == 0, b), r)
					if err != nil {
						return err
					}
					cs, err := MM(c, d, s1, s2)
					if err != nil {
						return err
					}
					full, err := Gather(c, d, cs)
					if c.Rank() == 0 {
						got = full
					}
					return err
				})
				if err != nil {
					t.Fatalf("%s/%s: %v", d.Name(), bk.name, err)
				}
				if !got.Equal(rep.C) {
					t.Fatalf("%s/%s/r=%d: distributed MM not bit-identical to replay", d.Name(), bk.name, r)
				}
			}
		}
	}
}

func TestLUGoldenAllBroadcastKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	const nb = 6
	for _, r := range goldenBlockSizes {
		a := matrix.RandomWellConditioned(nb*r, rng)
		for _, d := range engineDistributions(t, nb) {
			rep, err := kernels.ReplayLUNumerics(d, a, matrix.Strict)
			if err != nil {
				t.Fatal(err)
			}
			for _, bk := range allBroadcastKinds {
				var got *matrix.Dense
				_, err := RunOpts(4, Options{Broadcast: bk.kind}, func(c *Comm) error {
					store, err := Scatter(c, d, pick(c.Rank() == 0, a), r)
					if err != nil {
						return err
					}
					if err := LU(c, d, store); err != nil {
						return err
					}
					full, err := Gather(c, d, store)
					if c.Rank() == 0 {
						got = full
					}
					return err
				})
				if err != nil {
					t.Fatalf("%s/%s: %v", d.Name(), bk.name, err)
				}
				if !got.Equal(rep.C) {
					t.Fatalf("%s/%s/r=%d: distributed LU not bit-identical to replay", d.Name(), bk.name, r)
				}
			}
		}
	}
}

func TestCholeskyGoldenAllBroadcastKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	const nb = 6
	for _, r := range goldenBlockSizes {
		a := matrix.RandomSPD(nb*r, rng)
		for _, d := range engineDistributions(t, nb) {
			rep, err := kernels.ReplayCholeskyNumerics(d, a, matrix.Strict)
			if err != nil {
				t.Fatal(err)
			}
			for _, bk := range allBroadcastKinds {
				var got *matrix.Dense
				_, err := RunOpts(4, Options{Broadcast: bk.kind}, func(c *Comm) error {
					store, err := Scatter(c, d, pick(c.Rank() == 0, a), r)
					if err != nil {
						return err
					}
					if err := Cholesky(c, d, store); err != nil {
						return err
					}
					full, err := Gather(c, d, store)
					if c.Rank() == 0 {
						got = full
					}
					return err
				})
				if err != nil {
					t.Fatalf("%s/%s: %v", d.Name(), bk.name, err)
				}
				if !got.Equal(rep.C) {
					t.Fatalf("%s/%s/r=%d: distributed Cholesky not bit-identical to replay", d.Name(), bk.name, r)
				}
			}
		}
	}
}

// r = 3 keeps every product of the compact-WY apply under the packed GEMM's
// size cutoff, on the scalar reference; r = 16 reaches the packed kernel,
// where parity rests on the apply not depending on slab width or stride;
// r = 40 crosses qrChunk (32), so V and T are formed in two chunks.
func TestQRGoldenAllBroadcastKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	const nb = 5
	for _, r := range []int{3, 16, 40} {
		a := matrix.Random(nb*r, nb*r, rng)
		for _, d := range engineDistributions(t, nb) {
			rep, err := kernels.ReplayQRNumerics(d, a, matrix.Strict)
			if err != nil {
				t.Fatal(err)
			}
			for _, bk := range allBroadcastKinds {
				name := fmt.Sprintf("r=%d/%s/%s", r, d.Name(), bk.name)
				var got *matrix.Dense
				var taus [][]float64
				_, err := RunOpts(4, Options{Broadcast: bk.kind}, func(c *Comm) error {
					store, err := Scatter(c, d, pick(c.Rank() == 0, a), r)
					if err != nil {
						return err
					}
					ts, err := QR(c, d, store)
					if err != nil {
						return err
					}
					full, err := Gather(c, d, store)
					if c.Rank() == 0 {
						got = full
						taus = ts
					}
					return err
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !got.Equal(rep.C) {
					t.Fatalf("%s: distributed QR not bit-identical to replay", name)
				}
				if len(taus) != nb {
					t.Fatalf("%s: %d tau panels, want %d", name, len(taus), nb)
				}
				for k := range taus {
					for i, v := range taus[k] {
						if v != rep.Taus[k][i] {
							t.Fatalf("%s: tau[%d][%d] = %v, replay %v", name, k, i, v, rep.Taus[k][i])
						}
					}
				}
			}
		}
	}
}

func TestQRReconstructsInput(t *testing.T) {
	// End-to-end sanity independent of the replay: Q·R == A.
	rng := rand.New(rand.NewSource(305))
	const nb, r = 4, 3
	a := matrix.Random(nb*r, nb*r, rng)
	d := engineDistributions(t, nb)[1] // het-panel
	var got *matrix.Dense
	var taus [][]float64
	_, err := Run(4, func(c *Comm) error {
		store, err := Scatter(c, d, pick(c.Rank() == 0, a), r)
		if err != nil {
			return err
		}
		ts, err := QR(c, d, store)
		if err != nil {
			return err
		}
		full, err := Gather(c, d, store)
		if c.Rank() == 0 {
			got = full
			taus = ts
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := &kernels.QRReplay{Replay: kernels.Replay{C: got}, Taus: taus}
	qm := rep.Q(r)
	if !matrix.Mul(qm, rep.R()).EqualApprox(a, 1e-9) {
		t.Fatal("Q·R does not reconstruct the input")
	}
}

func TestQRValidation(t *testing.T) {
	rect, err := distribution.UniformBlockCyclic(2, 2, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := Run(4, func(c *Comm) error {
		_, err := QR(c, rect, newBlockStore(2))
		return err
	})
	if runErr == nil {
		t.Fatal("rectangular QR accepted")
	}
}
