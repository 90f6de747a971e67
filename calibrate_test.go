package hetgrid

import (
	"testing"
	"time"
)

func TestCalibrateSmoke(t *testing.T) {
	cal, err := Calibrate(16, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if cal.SecondsPerUpdate <= 0 || cal.Updates <= 0 {
		t.Fatalf("calibration implausible: %+v", cal)
	}
	if cal.BlockSize != 16 {
		t.Fatalf("block size %d", cal.BlockSize)
	}
}

func TestCalibrateValidation(t *testing.T) {
	if _, err := Calibrate(0, time.Millisecond); err == nil {
		t.Fatal("zero block size accepted")
	}
}

func TestCalibrateFeedsBalance(t *testing.T) {
	// End-to-end: measured times → cycle-times (each over the fastest) →
	// plan.
	measured := []float64{1.1e-6, 2.3e-6, 3.4e-6, 5.2e-6}
	times := make([]float64, len(measured))
	for i, s := range measured {
		times[i] = s / measured[0]
	}
	plan, err := Balance(times, 2, 2, PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.sol.Feasible(0) {
		t.Fatal("plan violates its load-balance constraints")
	}
}
