package hetgrid

import (
	"fmt"
	"math/rand"
	"time"

	"hetgrid/internal/matrix"
)

// Calibration reports a host's measured block-update performance, the raw
// material for cycle-times: run it on every machine of an HNOW (or
// periodically on a multi-user machine) and feed the ratios to Balance.
type Calibration struct {
	// BlockSize is the r used for the measurement.
	BlockSize int
	// SecondsPerUpdate is the wall-clock seconds one r×r rank-r block
	// update (C += A·B) takes on this host.
	SecondsPerUpdate float64
	// Updates is how many updates were timed.
	Updates int
}

// Calibrate times r×r block updates on the calling machine. minDuration
// bounds the total measurement time (longer is steadier; 0 selects 50 ms).
// The result's SecondsPerUpdate values from different machines, divided by
// the smallest among them, are exactly the cycle-times the balancing
// strategies consume.
func Calibrate(blockSize int, minDuration time.Duration) (*Calibration, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("hetgrid: invalid block size %d", blockSize)
	}
	if minDuration <= 0 {
		minDuration = 50 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(1))
	a := matrix.Random(blockSize, blockSize, rng)
	b := matrix.Random(blockSize, blockSize, rng)
	c := matrix.New(blockSize, blockSize)
	// Warm up caches and let the runtime settle.
	c.AddMul(1, a, b)
	updates := 0
	start := time.Now()
	for time.Since(start) < minDuration {
		c.AddMul(1, a, b)
		updates++
	}
	elapsed := time.Since(start).Seconds()
	if updates == 0 {
		return nil, fmt.Errorf("hetgrid: calibration performed no updates")
	}
	return &Calibration{
		BlockSize:        blockSize,
		SecondsPerUpdate: elapsed / float64(updates),
		Updates:          updates,
	}, nil
}
