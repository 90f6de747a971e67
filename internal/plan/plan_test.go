package plan

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// solveCorpus produces a varied set of plans covering all three modes,
// panels and exact-solver provenance.
func solveCorpus(t *testing.T) []*Plan {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	times := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = 0.25 + 2*rng.Float64()
		}
		return out
	}
	reqs := []Request{
		{Times: times(6), P: 2, Q: 3},
		{Times: times(6), P: 2, Q: 3, Strategy: StrategyHeuristic},
		{Times: times(4), P: 2, Q: 2, Strategy: StrategyExact},
		{Times: times(6), P: 2, Q: 3, Fixed: true},
		{Times: times(4), P: 2, Q: 2, Fixed: true, Strategy: StrategyExact},
		{Times: times(7), AllowSubset: true},
		{Times: times(8), MinAspect: 0.4},
		{Times: times(6), P: 2, Q: 3, Kernel: LU, Panel: &PanelSpec{}},
		{Times: times(9), P: 3, Q: 3, Kernel: MatMul, Panel: &PanelSpec{MaxBp: 10, MaxBq: 10}},
		{Times: times(5), AllowSubset: true, Kernel: Cholesky, Panel: &PanelSpec{CapBp: 12, CapBq: 12}},
	}
	plans := make([]*Plan, 0, len(reqs))
	for i, req := range reqs {
		res, err := Solve(req)
		if err != nil {
			t.Fatalf("corpus request %d: %v", i, err)
		}
		plans = append(plans, res.Plan)
	}
	return plans
}

// TestPlanJSONRoundTrip pins the losslessness contract the cache and the
// hetgridd wire format rely on: marshal → unmarshal → marshal is
// byte-identical, and the decoded plan is semantically equal.
func TestPlanJSONRoundTrip(t *testing.T) {
	for i, p := range solveCorpus(t) {
		first, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("plan %d: marshal: %v", i, err)
		}
		var decoded Plan
		if err := json.Unmarshal(first, &decoded); err != nil {
			t.Fatalf("plan %d: unmarshal: %v", i, err)
		}
		second, err := json.Marshal(&decoded)
		if err != nil {
			t.Fatalf("plan %d: re-marshal: %v", i, err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("plan %d: JSON round-trip not lossless:\n first=%s\nsecond=%s", i, first, second)
		}
	}
}

// TestRequestJSONRoundTrip does the same for the request wire format, and
// checks Workers stays off the wire.
func TestRequestJSONRoundTrip(t *testing.T) {
	req := Request{
		Times:    []float64{1, 2, 3, 5},
		P:        2,
		Q:        2,
		Strategy: StrategyExact,
		Kernel:   LU,
		Panel:    &PanelSpec{MaxBp: 8, MaxBq: 8, RowOrdering: "interleaved"},
		Workers:  7,
	}
	first, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(first, []byte("Workers")) || bytes.Contains(first, []byte("workers")) {
		t.Fatalf("Workers leaked onto the wire: %s", first)
	}
	var decoded Request
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Workers != 0 {
		t.Fatalf("Workers decoded as %d, want 0", decoded.Workers)
	}
	second, err := json.Marshal(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("request round-trip not lossless:\n first=%s\nsecond=%s", first, second)
	}
}

func TestRequestValidate(t *testing.T) {
	bad := []Request{
		{},
		{Times: []float64{1, 0, 2}, P: 1, Q: 3},
		{Times: []float64{1, -1}, P: 1, Q: 2},
		{Times: []float64{1, 2}, P: 2},
		{Times: []float64{1, 2, 3}, P: 2, Q: 2},
		{Times: []float64{1, 2}, Fixed: true},
		{Times: []float64{1, 2}, MinAspect: 1.5},
		{Times: []float64{1, 2}, P: 1, Q: 2, AllowSubset: true},
		{Times: []float64{1, 2}, P: 1, Q: 2, MinAspect: 0.5},
		{Times: []float64{1, 2}, P: 1, Q: 2, Strategy: "magic"},
		{Times: []float64{1, 2}, P: 1, Q: 2, Kernel: "fft"},
	}
	for i, req := range bad {
		if err := req.Validate(); err == nil {
			t.Errorf("bad request %d validated: %+v", i, req)
		}
	}
	good := []Request{
		{Times: []float64{1, 2, 3, 5}, P: 2, Q: 2},
		{Times: []float64{1, 2, 3, 5}, P: 2, Q: 2, Fixed: true, Strategy: StrategyExact},
		{Times: []float64{1, 2, 3}, AllowSubset: true, MinAspect: 0.5},
	}
	for i, req := range good {
		if err := req.Validate(); err != nil {
			t.Errorf("good request %d rejected: %v", i, err)
		}
	}
}

// TestExactTooLargeGridErrors: K_{11,11}'s spanning-tree count overflows
// int, so an exact solve on an 11×11 grid, fixed or free, must return an
// error at once — before the heuristic seed or any arrangement runs —
// instead of panicking or searching.
func TestExactTooLargeGridErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	times := make([]float64, 121)
	for i := range times {
		times[i] = 0.25 + 2*rng.Float64()
	}
	for _, fixed := range []bool{true, false} {
		start := time.Now()
		res, err := Solve(Request{Times: times, P: 11, Q: 11, Fixed: fixed, Strategy: StrategyExact})
		if err == nil || !strings.Contains(err.Error(), "overflows int") {
			t.Fatalf("fixed=%v: result %v, error %v; want the tree-count overflow", fixed, res, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("fixed=%v: the error took %v", fixed, d)
		}
	}
}
