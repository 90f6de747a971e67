package adapt

import (
	"fmt"

	"hetgrid/internal/distribution"
	"hetgrid/internal/grid"
)

// spanCost projects the compute-bound time of steps [from, to) of a kernel
// working on region w under a layout with the given cycle-times: per step,
// the busiest processor's block count times its cycle-time.
func spanCost(l *distribution.Layout, arr *grid.Arrangement, w distribution.Region, from, to int) float64 {
	total := 0.0
	for k := from; k < to; k++ {
		bound := 0.0
		for n, blocks := range l.Work(w, k, k+1) {
			if v := float64(blocks) * arr.T[n/arr.Q][n%arr.Q]; v > bound {
				bound = v
			}
		}
		total += bound
	}
	return total
}

// DriftPolicy tunes the online drift detector. Zero values select the
// documented defaults.
type DriftPolicy struct {
	// Window is the number of kernel steps per observation window
	// (default 4).
	Window int
	// Alpha is the EWMA weight of the newest per-window cycle-time sample,
	// in (0,1] (default 0.5). 1 trusts only the latest window.
	Alpha float64
	// Threshold is the relative share deviation that arms the detector:
	// a window counts as "hot" when some rank's mean-normalized estimated
	// cycle-time differs from its planned share by more than this fraction
	// (default 0.25).
	Threshold float64
	// Patience is the number of consecutive hot windows required before
	// the detector recommends evaluating a migration (default 2) —
	// transient spikes reset the count.
	Patience int
	// Hysteresis is the minimum stay/move cost ratio required to migrate
	// (default 1.2, i.e. a 20% projected saving).
	Hysteresis float64
	// MaxMigrations bounds migrations per run (default 2).
	MaxMigrations int
}

// WithDefaults returns the policy with zero fields replaced by defaults.
func (p DriftPolicy) WithDefaults() DriftPolicy {
	if p.Window <= 0 {
		p.Window = 4
	}
	if p.Alpha <= 0 || p.Alpha > 1 {
		p.Alpha = 0.5
	}
	if p.Threshold <= 0 {
		p.Threshold = 0.25
	}
	if p.Patience <= 0 {
		p.Patience = 2
	}
	if p.Hysteresis < 1 {
		p.Hysteresis = 1.2
	}
	if p.MaxMigrations <= 0 {
		p.MaxMigrations = 2
	}
	return p
}

// Detector accumulates per-window busy-time observations into EWMA
// cycle-time estimates and flags sustained drift away from the planned
// shares. It is a pure state machine: identical observation sequences
// produce identical outputs, independent of wall-clock time or worker
// count.
type Detector struct {
	pol  DriftPolicy
	base []float64 // planned cycle-times (raw units; only ratios matter)
	est  []float64 // EWMA per-block cycle-time estimates
	seen []bool    // whether a rank has produced at least one sample
	hot  int       // consecutive windows at/over threshold
}

// NewDetector builds a detector for n ranks whose planned cycle-times are
// planned (row-major grid order).
func NewDetector(planned []float64, pol DriftPolicy) (*Detector, error) {
	if len(planned) == 0 {
		return nil, fmt.Errorf("adapt: no planned cycle-times")
	}
	for i, t := range planned {
		if t <= 0 {
			return nil, fmt.Errorf("adapt: planned cycle-time %d is %v, want > 0", i, t)
		}
	}
	return &Detector{
		pol:  pol.WithDefaults(),
		base: append([]float64(nil), planned...),
		est:  make([]float64, len(planned)),
		seen: make([]bool, len(planned)),
	}, nil
}

// Observation is the detector's verdict for one window.
type Observation struct {
	// Deviation is the window's worst mean-normalized share deviation
	// against the planned shares.
	Deviation float64
	// Hot counts consecutive windows at or over the threshold.
	Hot int
	// Trigger is true when patience is exhausted: the caller should
	// evaluate a migration.
	Trigger bool
}

// Observe folds one window's per-rank busy-time deltas (seconds) and
// block counts (Layout.Work over the window's steps) into the EWMA
// estimates and returns the verdict. Ranks with zero work this window keep
// their previous estimate.
func (d *Detector) Observe(busy []float64, work []int) (Observation, error) {
	n := len(d.base)
	if len(busy) != n || len(work) != n {
		return Observation{}, fmt.Errorf("adapt: observation size %d/%d for %d ranks", len(busy), len(work), n)
	}
	for i := 0; i < n; i++ {
		if work[i] <= 0 {
			continue
		}
		sample := busy[i] / float64(work[i])
		if sample <= 0 {
			continue
		}
		if !d.seen[i] {
			d.est[i] = sample
			d.seen[i] = true
		} else {
			d.est[i] = d.pol.Alpha*sample + (1-d.pol.Alpha)*d.est[i]
		}
	}
	obs := Observation{Deviation: d.deviation()}
	if obs.Deviation >= d.pol.Threshold {
		d.hot++
	} else {
		d.hot = 0
	}
	obs.Hot = d.hot
	obs.Trigger = d.hot >= d.pol.Patience
	return obs, nil
}

// deviation compares mean-normalized estimates against mean-normalized
// planned times and returns the worst relative gap. Ranks without samples
// are assumed on-plan.
func (d *Detector) deviation() float64 {
	var sumE, sumB float64
	cnt := 0
	for i := range d.base {
		if !d.seen[i] {
			continue
		}
		sumE += d.est[i]
		sumB += d.base[i]
		cnt++
	}
	if cnt == 0 || sumE <= 0 || sumB <= 0 {
		return 0
	}
	worst := 0.0
	for i := range d.base {
		if !d.seen[i] {
			continue
		}
		en := d.est[i] / (sumE / float64(cnt))
		bn := d.base[i] / (sumB / float64(cnt))
		if dev := abs(en-bn) / bn; dev > worst {
			worst = dev
		}
	}
	return worst
}

// EstimatedTimes returns the current per-rank cycle-time estimates. Ranks
// that have not produced a sample yet fall back to their planned time,
// rescaled into the estimates' units via the seen ranks (planned times are
// relative units, estimates are measured seconds per block — mixing them
// raw would corrupt the ratios).
func (d *Detector) EstimatedTimes() []float64 {
	var sumE, sumB float64
	for i := range d.base {
		if d.seen[i] {
			sumE += d.est[i]
			sumB += d.base[i]
		}
	}
	scale := 1.0
	if sumE > 0 && sumB > 0 {
		scale = sumE / sumB
	}
	out := make([]float64, len(d.base))
	for i := range d.base {
		if d.seen[i] {
			out[i] = d.est[i]
		} else {
			out[i] = d.base[i] * scale
		}
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
