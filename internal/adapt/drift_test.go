package adapt

import (
	"math/rand"
	"reflect"
	"testing"

	"hetgrid/internal/distribution"
	"hetgrid/internal/grid"
	"hetgrid/internal/sim"
)

func uniform2x2(t *testing.T, nb int) distribution.Distribution {
	t.Helper()
	d, err := distribution.UniformBlockCyclic(2, 2, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func layoutOf(t *testing.T, d distribution.Distribution) *distribution.Layout {
	t.Helper()
	l, err := distribution.NewLayout(d)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestWorkloadActiveRegions(t *testing.T) {
	l := layoutOf(t, uniform2x2(t, 6))
	// Full sweep: all 36 blocks every step; trailing: (nb-k)² blocks at
	// step k; trailing lower: m(m+1)/2 blocks for m = nb-k.
	for _, tc := range []struct {
		name   string
		region distribution.Region
		want   func(m int) int
	}{
		{"every-step", distribution.All, func(int) int { return 36 }},
		{"trailing", distribution.Trailing, func(m int) int { return m * m }},
		{"trailing-lower", distribution.TrailingLower, func(m int) int { return m * (m + 1) / 2 }},
	} {
		for k := 0; k < 6; k++ {
			total := 0.0
			for _, w := range SegmentWork(l, tc.region, k, k+1) {
				total += w
			}
			if want := float64(tc.want(6 - k)); total != want {
				t.Fatalf("step %d: %s region has %v blocks, want %v", k, tc.name, total, want)
			}
		}
	}
}

func TestSegmentWorkMatchesSpanCost(t *testing.T) {
	d := layoutOf(t, uniform2x2(t, 8))
	arr := grid.MustNew([][]float64{{1, 1}, {1, 1}})
	// Per-rank segment work sums to the full trailing volume Σ (nb-k)².
	work := SegmentWork(d, distribution.Trailing, 0, 8)
	total, maxWork := 0.0, 0.0
	for _, w := range work {
		total += w
		if w > maxWork {
			maxWork = w
		}
	}
	wantTotal := 0.0
	for k := 0; k < 8; k++ {
		wantTotal += float64((8 - k) * (8 - k))
	}
	if total != wantTotal {
		t.Fatalf("trailing work sums to %v, want %v", total, wantTotal)
	}
	// With unit cycle-times the span cost is Σ_k max_n counts — at least
	// the busiest rank's total and at least the mean share.
	cost := spanCost(d, arr, distribution.Trailing, 0, 8)
	if cost < maxWork || cost < total/4 {
		t.Fatalf("span cost %v below busiest rank %v / mean %v", cost, maxWork, total/4)
	}
	// Empty segment is free.
	if cost := spanCost(d, arr, distribution.Trailing, 8, 8); cost != 0 {
		t.Fatalf("empty segment costs %v", cost)
	}
}

func TestEvaluateKernelMigratesUnderSkew(t *testing.T) {
	pol := Policy{
		Net:        sim.Config{Latency: 1e-6, ByteTime: 1e-9},
		BlockBytes: 8192,
		Hysteresis: 1,
	}
	d := uniform2x2(t, 16)
	skew := grid.MustNew([][]float64{{1, 1}, {1, 8}})
	for _, w := range []distribution.Region{distribution.All, distribution.Trailing, distribution.TrailingLower} {
		dec, err := EvaluateKernel(d, skew.Times(), w, 0, pol)
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Redistribute {
			t.Fatalf("workload %d: no migration under 8× skew: %+v", w, dec)
		}
		if dec.NewDist == nil || dec.MovedBlocks == 0 {
			t.Fatalf("workload %d: migration without a plan: %+v", w, dec)
		}
		if dec.MoveCost >= dec.StayCost {
			t.Fatalf("workload %d: move %v not below stay %v", w, dec.MoveCost, dec.StayCost)
		}
	}
	// Balanced times: nothing to gain.
	flat := grid.MustNew([][]float64{{1, 1}, {1, 1}})
	dec, err := EvaluateKernel(d, flat.Times(), distribution.Trailing, 0, pol)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Redistribute {
		t.Fatalf("migrated a balanced layout: %+v", dec)
	}
	// Near the end there is too little work left to pay for moving.
	late, err := EvaluateKernel(d, skew.Times(), distribution.Trailing, 15, pol)
	if err != nil {
		t.Fatal(err)
	}
	if late.Redistribute && late.MoveCost >= late.StayCost {
		t.Fatalf("late migration not profitable: %+v", late)
	}
	// Bad inputs.
	if _, err := EvaluateKernel(d, grid.MustNew([][]float64{{1, 1, 1}, {1, 1, 1}}).Times(), distribution.Trailing, 0, pol); err == nil {
		t.Fatal("grid shape mismatch accepted")
	}
	if _, err := EvaluateKernel(d, skew.Times(), distribution.Trailing, -1, pol); err == nil {
		t.Fatal("negative start step accepted")
	}
	if _, err := EvaluateKernel(d, skew.Times(), distribution.Trailing, 17, pol); err == nil {
		t.Fatal("start step past the end accepted")
	}
}

func TestDetectorHysteresis(t *testing.T) {
	pol := DriftPolicy{Window: 2, Alpha: 1, Threshold: 0.25, Patience: 2}
	planned := []float64{1, 1, 1, 1}
	det, err := NewDetector(planned, pol)
	if err != nil {
		t.Fatal(err)
	}
	work := []float64{10, 10, 10, 10}
	flat := []float64{10, 10, 10, 10}
	slow := []float64{10, 10, 10, 40} // rank 3 at 4× its planned share

	// Balanced windows never arm.
	for i := 0; i < 5; i++ {
		obs, err := det.Observe(flat, work)
		if err != nil {
			t.Fatal(err)
		}
		if obs.Hot != 0 || obs.Trigger {
			t.Fatalf("balanced window %d armed the detector: %+v", i, obs)
		}
	}
	// One hot window is not enough (patience 2)...
	obs, _ := det.Observe(slow, work)
	if !(obs.Hot == 1 && !obs.Trigger) {
		t.Fatalf("first hot window: %+v", obs)
	}
	// ...a transient resets the streak...
	if obs, _ = det.Observe(flat, work); obs.Hot != 0 {
		t.Fatalf("transient did not reset: %+v", obs)
	}
	// ...two consecutive hot windows trigger.
	det.Observe(slow, work)
	if obs, _ = det.Observe(slow, work); !obs.Trigger {
		t.Fatalf("sustained drift not flagged: %+v", obs)
	}

	// A detector restarted on the estimates, as a migrated attempt's is:
	// the new baseline matches the slow trace, so it stays quiet.
	if det, err = NewDetector(det.EstimatedTimes(), pol); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if obs, _ = det.Observe(slow, work); obs.Hot != 0 || obs.Trigger {
			t.Fatalf("on-plan window %d armed the restarted detector: %+v", i, obs)
		}
	}
}

func TestDetectorValidation(t *testing.T) {
	if _, err := NewDetector(nil, DriftPolicy{}); err == nil {
		t.Fatal("empty planned times accepted")
	}
	if _, err := NewDetector([]float64{1, 0}, DriftPolicy{}); err == nil {
		t.Fatal("zero planned time accepted")
	}
	det, err := NewDetector([]float64{1, 1}, DriftPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Observe([]float64{1}, []float64{1, 1}); err == nil {
		t.Fatal("short busy vector accepted")
	}
	// Zero-work windows keep previous estimates and never divide by zero.
	if _, err := det.Observe([]float64{5, 5}, []float64{0, 0}); err != nil {
		t.Fatal(err)
	}
	if got := det.EstimatedTimes(); !reflect.DeepEqual(got, []float64{1, 1}) {
		t.Fatalf("zero-work window changed estimates: %v", got)
	}
}

func TestDetectorDeterministicAcrossReplays(t *testing.T) {
	// Identical observation sequences must produce identical outputs —
	// the decision layer's determinism rests on this.
	pol := DriftPolicy{Window: 3, Alpha: 0.4, Threshold: 0.2, Patience: 3}
	planned := []float64{1, 2, 1, 3}
	rng := rand.New(rand.NewSource(7))
	type window struct{ busy, work []float64 }
	trace := make([]window, 40)
	for i := range trace {
		w := window{busy: make([]float64, 4), work: make([]float64, 4)}
		for n := 0; n < 4; n++ {
			w.work[n] = float64(1 + rng.Intn(20))
			w.busy[n] = w.work[n] * (0.5 + 3*rng.Float64())
		}
		trace[i] = w
	}
	run := func() []Observation {
		det, err := NewDetector(planned, pol)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Observation, 0, len(trace))
		for _, w := range trace {
			obs, err := det.Observe(w.busy, w.work)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, obs)
		}
		return out
	}
	first := run()
	for i := 0; i < 5; i++ {
		if again := run(); !reflect.DeepEqual(again, first) {
			t.Fatalf("replay %d diverged", i)
		}
	}
}

func TestDriftPolicyDefaults(t *testing.T) {
	p := DriftPolicy{}.WithDefaults()
	if p.Window <= 0 || p.Alpha <= 0 || p.Alpha > 1 || p.Threshold <= 0 ||
		p.Patience <= 0 || p.Hysteresis < 1 || p.MaxMigrations <= 0 {
		t.Fatalf("bad defaults: %+v", p)
	}
	// Explicit values survive.
	q := DriftPolicy{Window: 9, Alpha: 0.9, Threshold: 0.5, Patience: 5, Hysteresis: 2, MaxMigrations: 3}.WithDefaults()
	if q.Window != 9 || q.Alpha != 0.9 || q.Threshold != 0.5 || q.Patience != 5 ||
		q.Hysteresis != 2 || q.MaxMigrations != 3 {
		t.Fatalf("defaults clobbered explicit policy: %+v", q)
	}
}
