package hetgrid

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hetgrid/internal/adapt"
	"hetgrid/internal/distribution"
	"hetgrid/internal/matrix"
)

// driftSeeds is the property-test seed count (shrunk under -short).
func driftSeeds() int {
	if testing.Short() {
		return 25
	}
	return 200
}

// driftTrace is a recorded observation stream: per-window busy deltas for
// every rank, as the step hook would deliver them to rank 0.
type driftTrace struct {
	times   []float64   // planned baseline
	busy    [][]float64 // busy[w][r]: window w's busy delta of rank r
	windows []int       // step each window closed at
	dist    Distribution
	wl      distribution.Region
	pol     DriftPolicy
}

// decisions replays the trace through a fresh detector and records every
// drift decision exactly the way the execution's rank-0 hook does: the
// observation verdict, and on trigger the full migration-cost evaluation.
func (tr *driftTrace) decisions(t *testing.T) []string {
	t.Helper()
	det, err := adapt.NewDetector(tr.times, tr.pol.detectorPolicy())
	if err != nil {
		t.Fatal(err)
	}
	lay, err := distribution.NewLayout(tr.dist)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	last := 0
	for w, delta := range tr.busy {
		k := tr.windows[w]
		work := lay.Work(tr.wl, last, k)
		last = k
		o, err := det.Observe(delta, work)
		if err != nil {
			t.Fatal(err)
		}
		line := fmt.Sprintf("w%d dev=%.12g hot=%d trigger=%v", w, o.Deviation, o.Hot, o.Trigger)
		if o.Trigger {
			dec, err := adapt.EvaluateKernel(tr.dist, det.EstimatedTimes(), tr.wl, k, tr.pol.evalPolicy())
			if err != nil {
				t.Fatal(err)
			}
			line += fmt.Sprintf(" redistribute=%v moved=%d stay=%.12g move=%.12g",
				dec.Redistribute, dec.MovedBlocks, dec.StayCost, dec.MoveCost)
			if dec.Redistribute {
				line += " dist=" + fmt.Sprint(ownerMap(dec.NewDist))
				// The migrated attempt restarts the detector on the
				// estimates, as run.newWatch does on State.Times.
				if det, err = adapt.NewDetector(det.EstimatedTimes(), tr.pol.detectorPolicy()); err != nil {
					t.Fatal(err)
				}
			}
		}
		out = append(out, line)
	}
	return out
}

// ownerMap flattens a distribution to its block→rank assignment.
func ownerMap(d Distribution) []int {
	nbr, nbc := d.Blocks()
	_, q := d.Dims()
	out := make([]int, 0, nbr*nbc)
	for i := 0; i < nbr; i++ {
		for j := 0; j < nbc; j++ {
			pi, pj := d.Owner(i, j)
			out = append(out, pi*q+pj)
		}
	}
	return out
}

// TestDriftDecisionsDeterministicAcrossWorkers: for 200 seeded random
// observation traces, replaying the identical trace concurrently on 1, 2
// and 4 worker goroutines yields bit-identical drift decisions — detection,
// evaluation and the replanned block layout are pure functions of the
// trace. Run under -race this also proves the replay shares no hidden
// mutable state.
func TestDriftDecisionsDeterministicAcrossWorkers(t *testing.T) {
	kernels := []struct {
		k  Kernel
		wl distribution.Region
	}{{MatMul, distribution.All}, {LU, distribution.Trailing}, {Cholesky, distribution.TrailingLower}}
	for seed := 0; seed < driftSeeds(); seed++ {
		rng := rand.New(rand.NewSource(int64(9000 + seed)))
		kc := kernels[seed%len(kernels)]
		nb := 6 + rng.Intn(4)
		d, err := Uniform(2, 2, nb, nb)
		if err != nil {
			t.Fatal(err)
		}
		tr := &driftTrace{
			times: []float64{1, 1, 1, 1},
			dist:  d,
			wl:    kc.wl,
			pol:   driftTestPolicy(nil),
		}
		// Random walk of per-rank busy deltas, with one rank drifting.
		slow := rng.Intn(4)
		for w, k := 0, 2; k < nb; w, k = w+1, k+2 {
			delta := make([]float64, 4)
			for r := range delta {
				delta[r] = 1e-4 * (1 + 0.3*rng.Float64())
				if r == slow {
					delta[r] *= 1 + 10*rng.Float64()
				}
			}
			tr.windows = append(tr.windows, k)
			tr.busy = append(tr.busy, delta)
			_ = w
		}
		want := tr.decisions(t)
		for _, workers := range []int{1, 2, 4} {
			got := make([][]string, workers)
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i] = tr.decisions(t)
				}(i)
			}
			wg.Wait()
			for i := range got {
				if !reflect.DeepEqual(got[i], want) {
					t.Fatalf("seed %d: worker %d/%d diverged:\n got %v\nwant %v",
						seed, i, workers, got[i], want)
				}
			}
		}
	}
}

// TestDriftMigratedRunsBitIdentical: 200 seeded wrong-baseline runs across
// all four kernels. Every run must return results bit-identical to the
// fault-free serial replay — whether or not it migrated — and the strongly
// skewed baseline must make the vast majority migrate.
func TestDriftMigratedRunsBitIdentical(t *testing.T) {
	seeds := driftSeeds()
	migrated := 0
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(7000 + seed)))
		nb := 6 + rng.Intn(3)
		r := 2 + rng.Intn(2)
		kern := []Kernel{LU, MatMul, Cholesky, QR}[seed%4]
		d, times := skewDist(t, 2, 2, nb, kern, 8)
		pol := driftTestPolicy(times)
		n := nb * r

		var stats *ExecStats
		var err error
		var same bool
		switch kern {
		case LU:
			a := matrix.RandomWellConditioned(n, rng)
			var got *Factorization
			got, stats, err = DistributedFactor(LU, d, a, r, WithDriftRebalance(pol))
			same = err == nil && got.Packed().Equal(factorPacked(t, LU, d, a))
		case MatMul:
			a, b := matrix.Random(n, n, rng), matrix.Random(n, n, rng)
			var serial, got *Matrix
			serial, err = Multiply(d, a, b)
			if err == nil {
				got, stats, err = DistributedMultiply(d, a, b, r, WithDriftRebalance(pol))
				same = err == nil && got.Equal(serial)
			}
		case Cholesky:
			spd := matrix.RandomSPD(n, rng)
			var got *Factorization
			got, stats, err = DistributedFactor(Cholesky, d, spd, r, WithDriftRebalance(pol))
			same = err == nil && got.Packed().Equal(factorPacked(t, Cholesky, d, spd))
		case QR:
			a := matrix.Random(n, n, rng)
			var serial, got *Factorization
			serial, err = Factor(QR, d, a)
			if err == nil {
				got, stats, err = DistributedFactor(QR, d, a, r, WithDriftRebalance(pol))
				same = err == nil && got.R().Equal(serial.R()) && got.Q(r).Equal(serial.Q(r))
			}
		}
		if err != nil {
			t.Fatalf("seed %d (%v, nb=%d r=%d): %v", seed, kern, nb, r, err)
		}
		if !same {
			t.Fatalf("seed %d (%v, nb=%d r=%d): migrated run differs from the serial replay", seed, kern, nb, r)
		}
		if stats.Drift == nil {
			t.Fatalf("seed %d: missing drift stats", seed)
		}
		migrated += stats.Drift.Migrations
	}
	if migrated < seeds/2 {
		t.Fatalf("only %d/%d wrong-baseline runs migrated", migrated, seeds)
	}
}
