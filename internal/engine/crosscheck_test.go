package engine

import (
	"math/rand"
	"testing"

	"hetgrid/internal/distribution"
	"hetgrid/internal/grid"
	"hetgrid/internal/matrix"
)

// crosscheckDistributions returns the uniform and the KL distribution on a
// 2×3 process grid: the analytic communication volumes must hold on
// non-square grids too. TestConformance checks them on the 2×2 grid.
func crosscheckDistributions(t *testing.T, nb int) []distribution.Distribution {
	t.Helper()
	uni, err := distribution.UniformBlockCyclic(2, 3, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	arr := grid.MustNew([][]float64{{1, 2, 3}, {4, 5, 6}})
	kl, err := distribution.NewKL(arr, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	return []distribution.Distribution{uni, kl}
}

// ranksOf returns the world size of a distribution's process grid.
func ranksOf(d distribution.Distribution) int {
	p, q := d.Dims()
	return p * q
}

// checkRankSums asserts the per-rank counters are internally consistent
// with the world totals: sent sums equal Messages()/Bytes() exactly, every
// sent message was received (the kernels strand nothing), and the pair
// matrix tells the same story.
func checkRankSums(t *testing.T, name string, w *World) {
	t.Helper()
	var msgsSent, msgsRecv, bytesSent, bytesRecv int
	for _, rs := range w.RankStats() {
		msgsSent += rs.MsgsSent
		msgsRecv += rs.MsgsRecv
		bytesSent += rs.BytesSent
		bytesRecv += rs.BytesRecv
	}
	if msgsSent != w.Messages() || bytesSent != w.Bytes() {
		t.Fatalf("%s: per-rank sums (%d msgs, %d bytes) != world totals (%d, %d)",
			name, msgsSent, bytesSent, w.Messages(), w.Bytes())
	}
	if msgsRecv != msgsSent || bytesRecv != bytesSent {
		t.Fatalf("%s: received (%d msgs, %d bytes) != sent (%d, %d): stranded messages",
			name, msgsRecv, bytesRecv, msgsSent, bytesSent)
	}
	var pairMsgs, pairBytes int
	for _, row := range w.PairStats() {
		for _, ps := range row {
			pairMsgs += ps.Messages
			pairBytes += ps.Bytes
		}
	}
	if pairMsgs != w.Messages() || pairBytes != w.Bytes() {
		t.Fatalf("%s: pair sums (%d msgs, %d bytes) != world totals (%d, %d)",
			name, pairMsgs, pairBytes, w.Messages(), w.Bytes())
	}
}

// kernelTraffic runs kern on the scattered inputs under the flat broadcast
// and returns its own message and byte counts: the run's totals minus a
// scatter-only baseline. The per-rank counters of both runs must sum
// exactly to the world totals.
func kernelTraffic(t *testing.T, name string, d distribution.Distribution, r int, inputs []*matrix.Dense,
	kern func(c *Comm, stores []*BlockStore) error) (msgs, bytes int) {
	t.Helper()
	run := func(kern func(c *Comm, stores []*BlockStore) error) *World {
		w, err := Run(ranksOf(d), func(c *Comm) error {
			stores := make([]*BlockStore, len(inputs))
			for i, in := range inputs {
				s, err := Scatter(c, d, pick(c.Rank() == 0, in), r)
				if err != nil {
					return err
				}
				stores[i] = s
			}
			return kern(c, stores)
		})
		if err != nil {
			t.Fatal(err)
		}
		checkRankSums(t, name, w)
		return w
	}
	base := run(func(*Comm, []*BlockStore) error { return nil })
	full := run(kern)
	return full.Messages() - base.Messages(), full.Bytes() - base.Bytes()
}

// testCountersMatchAnalytics is the three-layer parity under the flat
// broadcast: the real execution's kernel message and byte counts equal the
// closed-form communication volume — a fold over the same step schedule
// the engine delivers — for every kernel, on a rectangular process grid.
func testCountersMatchAnalytics(t *testing.T, seed int64, input func(n int, rng *rand.Rand) []*matrix.Dense,
	kern func(c *Comm, d distribution.Distribution, stores []*BlockStore) error,
	volume func(d distribution.Distribution, blockBytes float64) (*distribution.CommVolume, error)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const nb, r = 6, 2
	inputs := input(nb*r, rng)
	for _, d := range crosscheckDistributions(t, nb) {
		name := d.Name()
		msgs, bytes := kernelTraffic(t, name, d, r, inputs, func(c *Comm, stores []*BlockStore) error {
			return kern(c, d, stores)
		})
		vol, err := volume(d, 8*float64(r*r))
		if err != nil {
			t.Fatal(err)
		}
		if msgs != vol.Messages {
			t.Fatalf("%s: engine sent %d kernel messages, analytics says %d", name, msgs, vol.Messages)
		}
		if float64(bytes) != vol.Bytes {
			t.Fatalf("%s: engine moved %d kernel bytes, analytics says %v", name, bytes, vol.Bytes)
		}
	}
}

func TestMMCountersMatchAnalytics(t *testing.T) {
	testCountersMatchAnalytics(t, 311,
		func(n int, rng *rand.Rand) []*matrix.Dense {
			return []*matrix.Dense{matrix.Random(n, n, rng), matrix.Random(n, n, rng)}
		},
		func(c *Comm, d distribution.Distribution, s []*BlockStore) error {
			_, err := MM(c, d, s[0], s[1])
			return err
		},
		distribution.MMCommVolume)
}

func TestLUCountersMatchAnalytics(t *testing.T) {
	// Per step the diagonal travels once to the column owners and once to
	// the row's receiver set, plus the grouped L and U panels.
	testCountersMatchAnalytics(t, 312,
		func(n int, rng *rand.Rand) []*matrix.Dense {
			return []*matrix.Dense{matrix.RandomWellConditioned(n, rng)}
		},
		func(c *Comm, d distribution.Distribution, s []*BlockStore) error { return LU(c, d, s[0]) },
		distribution.LUCommVolume)
}

func TestCholeskyCountersMatchAnalytics(t *testing.T) {
	// Per step the diagonal travels once to the column owners, plus the
	// L panel grouped by symmetric needer set — not LU's volume, which the
	// facade used to report for Cholesky.
	testCountersMatchAnalytics(t, 314,
		func(n int, rng *rand.Rand) []*matrix.Dense {
			return []*matrix.Dense{matrix.RandomSPD(n, rng)}
		},
		func(c *Comm, d distribution.Distribution, s []*BlockStore) error { return Cholesky(c, d, s[0]) },
		distribution.CholeskyCommVolume)
}
