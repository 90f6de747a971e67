package engine

import (
	"math/rand"
	"testing"

	"hetgrid/internal/matrix"
)

func TestSlowFactorSchedule(t *testing.T) {
	ft := newFaultSchedule(FaultConfig{
		Slowdowns: []SlowdownPoint{
			{Rank: 1, Step: 2, Factor: 4},
			{Rank: 1, Step: 5, Factor: 1}, // scheduled recovery
			{Rank: 2, Step: 0, Factor: 2.5},
		},
	}, nil)
	if f := ft.slowFactor(1); f != 1 {
		t.Fatalf("factor before any step: %v", f)
	}
	ft.stepEntered(1, 0)
	if f := ft.slowFactor(1); f != 1 {
		t.Fatalf("factor before the scheduled step: %v", f)
	}
	ft.stepEntered(1, 2)
	if f := ft.slowFactor(1); f != 4 {
		t.Fatalf("factor at the scheduled step: %v", f)
	}
	ft.stepEntered(1, 3)
	if f := ft.slowFactor(1); f != 4 {
		t.Fatalf("factor must persist past its step: %v", f)
	}
	// The latest-scheduled point wins: the Factor-1 recovery takes over.
	ft.stepEntered(1, 6)
	if f := ft.slowFactor(1); f != 1 {
		t.Fatalf("scheduled recovery ignored: %v", f)
	}
	ft.stepEntered(2, 1)
	if f := ft.slowFactor(2); f != 2.5 {
		t.Fatalf("rank 2 factor: %v", f)
	}
	if f := ft.slowFactor(0); f != 1 {
		t.Fatalf("unscheduled rank slowed: %v", f)
	}
	// Each activation is recorded once.
	cnt := ft.counters()
	if len(cnt.Slowed) != 3 {
		t.Fatalf("slowed points: %+v", cnt.Slowed)
	}
}

func TestSlowdownStretchesBusyTimeNotResults(t *testing.T) {
	// A scheduled slowdown must (a) inflate the slowed rank's busy-time
	// gauge and (b) leave the numerical result bit-identical to the
	// undisturbed run — it models lost speed, not lost data.
	//
	// (a) compares wall-clock gauges across goroutines. Blocks are 24×24 so
	// every rank has well over 100 µs of real compute, and the reference is
	// the least-disturbed gauge of the equal-share peers, in either run:
	// preemption only ever adds to a gauge, so one descheduled peer must not
	// hide a 16× slowdown. Beside a CPU hog the old form (2×2 blocks,
	// busiest peer of the slowed run) failed 4 % of runs — 11 % at this
	// block size — and this one 0 of 3000.
	const nb, r = 6, 24
	d := faultTestDist(t, nb)
	a := matrix.RandomWellConditioned(nb*r, rand.New(rand.NewSource(11)))

	run := func(slow []SlowdownPoint) (*matrix.Dense, []float64) {
		out, w, err := runLU(t, d, a, r, Options{
			Record: true,
			Faults: &FaultConfig{Slowdowns: slow},
		})
		if err != nil {
			t.Fatal(err)
		}
		return out, w.BusyTimes()
	}

	plain, plainBusy := run(nil)
	slowed, busy := run([]SlowdownPoint{{Rank: 3, Step: 0, Factor: 16}})
	if !plain.Equal(slowed) {
		t.Fatal("slowdown changed the numerical result")
	}
	peer := plainBusy[3]
	for r := 0; r < 3; r++ {
		peer = min(peer, plainBusy[r], busy[r])
	}
	if busy[3] < 3*peer {
		t.Fatalf("16× slowdown barely visible: rank 3 busy %v vs undisturbed peer %v (slowed run %v, plain run %v)",
			busy[3], peer, busy, plainBusy)
	}
}

func TestComputeSlowdownWithoutSpans(t *testing.T) {
	// The spin applies even when span recording is off — wall-clock drift
	// exists whether or not anyone is measuring it — and results stay
	// correct.
	d := faultTestDist(t, 4)
	a := matrix.RandomWellConditioned(8, rand.New(rand.NewSource(12)))
	plain, _, err := runLU(t, d, a, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	slowed, w, err := runLU(t, d, a, 2, Options{
		Faults: &FaultConfig{Slowdowns: []SlowdownPoint{{Rank: 1, Step: 1, Factor: 3}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Equal(slowed) {
		t.Fatal("slowdown without spans changed the result")
	}
	if w.BusyTimes() != nil {
		t.Fatal("busy times recorded without Record")
	}
	if cnt := w.FaultCounters(); len(cnt.Slowed) != 1 {
		t.Fatalf("activation not recorded: %+v", cnt)
	}
}
