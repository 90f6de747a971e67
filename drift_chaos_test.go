package hetgrid

import (
	"math/rand"
	"testing"
	"time"

	"hetgrid/internal/matrix"
)

// TestDriftChaosComposition is the chaos acceptance check: one LU run
// composes everything the fault and drift layers can throw at it — a 32×
// slowdown on one rank (which must trigger a drift migration) and a
// scheduled fail-stop crash after the migration (which must trigger a
// checkpoint recovery). The run must finish cleanly
// and stay bit-identical to the serial factorization.
func TestDriftChaosComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	const nb, r = 10, 3
	d, err := Uniform(2, 2, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.RandomWellConditioned(nb*r, rng)
	serial := factorPacked(t, LU, d, a)
	for _, bk := range allBroadcastKinds {
		t.Run(bk.String(), func(t *testing.T) {
			f, stats, err := DistributedFactor(LU, d, a, r,
				WithBroadcast(bk),
				WithFaults(FaultOptions{
					RecvTimeout: 1950 * time.Millisecond,
					Slowdowns:   []SlowdownPoint{{Rank: 3, Step: 0, Factor: 32}},
					Crashes:     []CrashPoint{{Rank: 1, Step: 7}},
					Recover:     true,
				}),
				WithDriftRebalance(driftTestPolicy(nil)))
			if err != nil {
				t.Fatal(err)
			}
			if !f.Packed().Equal(serial) {
				t.Fatal("chaos LU differs from the serial factorization")
			}
			fs, ds := stats.Faults, stats.Drift
			if fs == nil || ds == nil {
				t.Fatalf("missing stats: faults=%+v drift=%+v", fs, ds)
			}
			if ds.Migrations != 1 {
				t.Fatalf("expected one drift migration: %+v", ds)
			}
			if fs.Crashes != 1 || fs.Recoveries != 1 {
				t.Fatalf("expected one crash and one recovery: %+v", fs)
			}
			if fs.Slowdowns == 0 {
				t.Fatalf("slowdown never activated: %+v", fs)
			}
			// Every attempt is accounted for: the initial run, the drift
			// restart and the crash recovery.
			if want := 1 + ds.Migrations + fs.Recoveries; fs.Attempts != want {
				t.Fatalf("expected %d attempts: %+v", want, fs)
			}
			if fs.Checkpoints == 0 || fs.ResumedSteps == 0 {
				t.Fatalf("recovery never resumed from a checkpoint: %+v", fs)
			}
		})
	}
}

// TestDriftChaosSilentCrash re-runs the composition with a silent crash, so
// the failure detector (not the fail-stop abort) has to notice the death
// while the drift and fault machinery are active.
func TestDriftChaosSilentCrash(t *testing.T) {
	rng := rand.New(rand.NewSource(702))
	const nb, r = 10, 3
	d, err := Uniform(2, 2, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.RandomWellConditioned(nb*r, rng)
	serial := factorPacked(t, LU, d, a)
	f, stats, err := DistributedFactor(LU, d, a, r,
		WithFaults(FaultOptions{
			Slowdowns:   []SlowdownPoint{{Rank: 3, Step: 0, Factor: 32}},
			Crashes:     []CrashPoint{{Rank: 2, Step: 7, Silent: true}},
			RecvTimeout: 300 * time.Millisecond,
			Recover:     true,
		}),
		WithDriftRebalance(driftTestPolicy(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if !f.Packed().Equal(serial) {
		t.Fatal("silent-crash chaos LU differs from the serial factorization")
	}
	if stats.Drift.Migrations != 1 || stats.Faults.Recoveries != 1 {
		t.Fatalf("expected one migration and one recovery: drift=%+v faults=%+v",
			stats.Drift, stats.Faults)
	}
}
