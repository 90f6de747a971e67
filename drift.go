package hetgrid

import (
	"fmt"
	"strconv"
	"strings"

	"hetgrid/internal/adapt"
	"hetgrid/internal/run"
)

// DriftPolicy configures online rebalancing under load drift: during a
// distributed execution with WithDriftRebalance, every rank ships its
// busy-time gauge to rank 0 at window boundaries; rank 0 folds the deltas
// into EWMA cycle-time estimates, and when the observed shares drift
// sustainably away from the planned shares — and the projected saving beats
// the redistribution cost under the α–β network model — the run checkpoints,
// replans the same ranks for the estimated cycle-times, re-scatters and
// resumes. Each segment between migrations stays bit-identical to the
// fault-free serial replay, so a migrated run's result equals the
// undisturbed one.
//
// Zero fields select the documented defaults, so DriftPolicy{} is a usable
// conservative policy.
type DriftPolicy struct {
	// Window is the number of kernel steps between observations
	// (default 4).
	Window int
	// Alpha is the EWMA weight of the newest per-window cycle-time sample,
	// in (0,1] (default 0.5).
	Alpha float64
	// Threshold is the relative share deviation that arms the detector
	// (default 0.25): a window is "hot" when some rank's mean-normalized
	// estimated cycle-time differs from its planned share by more.
	Threshold float64
	// Patience is the number of consecutive hot windows required before a
	// migration is evaluated (default 2); transient spikes reset the count.
	Patience int
	// Hysteresis is the minimum stay/move cost ratio required to migrate
	// (default 1.2 — a 20% projected saving).
	Hysteresis float64
	// MaxMigrations bounds migrations per run (default 2).
	MaxMigrations int
	// Times are the planned per-rank cycle-times the detector compares
	// observed shares against, in flat rank order (any positive units —
	// only ratios matter); nil assumes equal speeds.
	Times []float64
	// Net parameterizes the migration-cost model: the redistribution's
	// block moves are scheduled on this simulated network (Latency,
	// ByteTime, SharedBus, FullDuplex, BlockBytes). Zero Latency and
	// ByteTime select loopback-calibrated defaults.
	Net SimOptions
}

// detectorPolicy maps the public policy onto the detector's tuning knobs,
// with defaults applied.
func (p DriftPolicy) detectorPolicy() adapt.DriftPolicy {
	return adapt.DriftPolicy{
		Window:        p.Window,
		Alpha:         p.Alpha,
		Threshold:     p.Threshold,
		Patience:      p.Patience,
		Hysteresis:    p.Hysteresis,
		MaxMigrations: p.MaxMigrations,
	}.WithDefaults()
}

// evalPolicy builds the migration-cost policy for adapt.EvaluateKernel.
func (p DriftPolicy) evalPolicy() adapt.Policy {
	net := p.Net
	if net.Latency == 0 && net.ByteTime == 0 {
		// Loopback-scale defaults: cheap enough that genuine drift pays
		// for a migration, expensive enough that marginal gains do not.
		net.Latency = 50e-6
		net.ByteTime = 1e-9
	}
	if net.BlockBytes <= 0 {
		net.BlockBytes = 8192
	}
	return adapt.Policy{
		Net:        net.net(),
		BlockBytes: net.BlockBytes,
		Hysteresis: p.detectorPolicy().Hysteresis,
	}
}

// apply maps the policy onto the supervisor's configuration (detector,
// migration-cost model) and initial state (migration budget, planned
// cycle-times when the policy names them).
func (p *DriftPolicy) apply(s *run.State, o *run.Options) error {
	if gp, gq := s.Dist.Dims(); p.Times != nil && len(p.Times) != gp*gq {
		return fmt.Errorf("hetgrid: %d drift cycle-times for a %d×%d grid", len(p.Times), gp, gq)
	}
	det := p.detectorPolicy()
	o.Drift = &run.Drift{Detector: det, Eval: p.evalPolicy()}
	s.Migrations = det.MaxMigrations
	if p.Times != nil {
		s.Times = p.Times
	}
	return nil
}

// String renders the policy's tuning knobs in the canonical
// key=value,... form ParseDriftPolicy accepts (Times and Net are
// programmatic and not part of the flag syntax).
func (p DriftPolicy) String() string {
	return fmt.Sprintf("window=%d,alpha=%g,threshold=%g,patience=%d,hysteresis=%g,max=%d",
		p.Window, p.Alpha, p.Threshold, p.Patience, p.Hysteresis, p.MaxMigrations)
}

// ParseDriftPolicy parses a drift policy from the comma-separated
// key=value form used by gridsim -driftpolicy: e.g.
// "window=4,alpha=0.5,threshold=0.25,patience=2,hysteresis=1.2,max=2".
// Keys may appear in any order and be omitted (omitted knobs keep their
// zero value, i.e. the documented default); the empty string is the
// all-defaults policy. For every valid policy p,
// ParseDriftPolicy(p.String()) round-trips.
func ParseDriftPolicy(s string) (DriftPolicy, error) {
	var p DriftPolicy
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	ints := map[string]*int{"window": &p.Window, "patience": &p.Patience, "max": &p.MaxMigrations}
	floats := map[string]*float64{"alpha": &p.Alpha, "threshold": &p.Threshold, "hysteresis": &p.Hysteresis}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return DriftPolicy{}, fmt.Errorf("hetgrid: drift policy term %q is not key=value", part)
		}
		key := strings.ToLower(strings.TrimSpace(kv[0]))
		val := strings.TrimSpace(kv[1])
		if dst, ok := ints[key]; ok {
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return DriftPolicy{}, fmt.Errorf("hetgrid: drift policy %s=%q: want a non-negative integer", key, val)
			}
			*dst = n
		} else if dst, ok := floats[key]; ok {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1e9 || f != f {
				return DriftPolicy{}, fmt.Errorf("hetgrid: drift policy %s=%q: want a finite non-negative number", key, val)
			}
			if key == "alpha" && f > 1 {
				return DriftPolicy{}, fmt.Errorf("hetgrid: drift policy alpha=%q: want a value in [0,1]", val)
			}
			*dst = f
		} else {
			return DriftPolicy{}, fmt.Errorf("hetgrid: unknown drift policy key %q (want window, alpha, threshold, patience, hysteresis or max)", key)
		}
	}
	return p, nil
}

// DriftStats reports what the drift-rebalancing loop did during a
// distributed execution, aggregated across all attempts.
type DriftStats = run.DriftStats

// publishDriftMetrics mirrors the final drift statistics into the metrics
// registry (no-op on nil).
func publishDriftMetrics(reg *Metrics, s *DriftStats) {
	if reg == nil {
		return
	}
	reg.Gauge("hetgrid_drift_windows", "", "observation windows the drift detector folded in during the last run").Set(float64(s.Windows))
	reg.Gauge("hetgrid_drift_evaluations", "", "migration-cost evaluations armed by sustained drift in the last run").Set(float64(s.Evaluations))
	reg.Gauge("hetgrid_drift_migrations", "", "mid-run redistributions executed in the last run").Set(float64(s.Migrations))
	reg.Gauge("hetgrid_drift_moved_blocks", "", "blocks whose owner changed across the last run's migrations").Set(float64(s.MovedBlocks))
	reg.Gauge("hetgrid_drift_predicted_saving", "", "projected stay-minus-move cost summed over the last run's accepted migrations (model time units)").Set(s.PredictedSaving)
}
