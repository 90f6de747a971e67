package run

import (
	"fmt"

	"hetgrid/internal/adapt"
	"hetgrid/internal/distribution"
	"hetgrid/internal/engine"
	"hetgrid/internal/matrix"
)

// Drift configures the drift-observation protocol of a run.
type Drift struct {
	// Detector tunes the EWMA drift detector (defaults applied).
	Detector adapt.DriftPolicy
	// Eval prices a migration against staying put.
	Eval adapt.Policy
}

// watch is the drift protocol of one attempt. Every rank holds it for the
// window length; the detector, the previous window's cumulative busy
// gauges and the step that window closed at are rank 0's alone.
type watch struct {
	window   int
	eval     adapt.Policy
	det      *adapt.Detector
	lay      *distribution.Layout
	lastBusy []float64
	lastK    int
}

// newWatch starts a detector on the state's planned cycle-times: it
// restarts per attempt, with the replanned world's times as baseline.
func newWatch(s State, d *Drift) (*watch, error) {
	det, err := adapt.NewDetector(s.Times, d.Detector)
	if err != nil {
		return nil, err
	}
	lay, err := distribution.NewLayout(s.Dist)
	if err != nil {
		return nil, err
	}
	return &watch{
		window:   d.Detector.Window,
		eval:     d.Eval,
		det:      det,
		lay:      lay,
		lastBusy: make([]float64, lay.Ranks),
		lastK:    s.StartK(),
	}, nil
}

// scalar wraps one float64 as a 1×1 message payload.
func scalar(v float64) *matrix.Dense { return matrix.NewFromSlice(1, 1, []float64{v}) }

// step runs one window boundary on rank c: ship the busy gauge to rank 0,
// take its verdict, and on migrate commit a checkpoint and end the attempt
// with ErrMigrate.
func (w *watch) step(c *engine.Comm, k int, s State, o *Outcome, commit func(tag string, k int) error) error {
	n := c.N()
	// 1. Every rank ships its cumulative busy gauge to rank 0.
	obsTag := fmt.Sprintf("drift/obs/%d", k)
	c.Send(0, obsTag, scalar(c.BusySeconds()))
	// 2. Rank 0 folds the window into the detector and, when sustained
	// drift arms it, prices a migration; the verdict is broadcast so every
	// rank takes the same branch.
	verdictTag := fmt.Sprintf("drift/verdict/%d", k)
	var decided *Migration
	var rank0Err error
	if c.Rank() == 0 {
		cur := make([]float64, n)
		for r := 0; r < n; r++ {
			cur[r] = c.Recv(r, obsTag).At(0, 0)
		}
		decided, rank0Err = w.close(cur, k, s, o)
		verdict := 0.0
		if decided != nil {
			verdict = 1
		}
		for r := 0; r < n; r++ {
			c.Send(r, verdictTag, scalar(verdict))
		}
	}
	v := c.Recv(0, verdictTag).At(0, 0)
	if rank0Err != nil {
		return rank0Err
	}
	if v < 1 {
		return nil
	}
	// 3. Migrate: checkpoint the working matrix at rank 0, then hold every
	// rank on a done-barrier so the gather completes before anyone tears
	// the world down. The decision counts only from here: a rank failure
	// before the commit voids it.
	if err := commit(fmt.Sprintf("driftckpt/%d", k), k); err != nil {
		return err
	}
	doneTag := fmt.Sprintf("drift/done/%d", k)
	if c.Rank() == 0 {
		o.Migrate = decided
		for r := 0; r < n; r++ {
			c.Send(r, doneTag, scalar(1))
		}
	}
	c.Recv(0, doneTag)
	return fmt.Errorf("%w at step %d", ErrMigrate, k)
}

// close folds the window ending at step k (cur are the ranks' cumulative
// busy gauges) into the detector and, when it triggers and budget remains,
// evaluates a migration. It returns the decision to migrate, nil to stay.
func (w *watch) close(cur []float64, k int, s State, o *Outcome) (*Migration, error) {
	delta := make([]float64, len(cur))
	for r := range cur {
		delta[r] = cur[r] - w.lastBusy[r]
	}
	reg := s.Kernel.Region()
	work := w.lay.Work(reg, w.lastK, k)
	copy(w.lastBusy, cur)
	w.lastK = k
	obs, err := w.det.Observe(delta, work)
	if err != nil {
		return nil, err
	}
	o.Windows++
	if !obs.Trigger || s.Migrations <= 0 {
		return nil, nil
	}
	o.Evaluations++
	est := w.det.EstimatedTimes()
	dec, err := adapt.EvaluateKernel(s.Dist, est, reg, k, w.eval)
	if err != nil || !dec.Redistribute {
		return nil, err
	}
	return &Migration{Dist: dec.NewDist, Times: est, Moved: dec.MovedBlocks, Saving: dec.StayCost - dec.MoveCost}, nil
}
