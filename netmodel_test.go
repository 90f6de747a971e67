package hetgrid

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestFitAlphaBetaRecoversExactLine: samples generated from a known α–β
// line come back exactly (up to float round-off), with r² = 1.
func TestFitAlphaBetaRecoversExactLine(t *testing.T) {
	const alpha, beta = 25e-6, 1.25e-9 // 25µs latency, 800 MB/s
	var samples []CommSample
	for b := 8; b <= 1<<18; b *= 4 {
		samples = append(samples, CommSample{Bytes: b, Seconds: alpha + beta*float64(b)})
	}
	a, bt, r2, err := FitAlphaBeta(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-alpha) > 1e-12 || math.Abs(bt-beta) > 1e-15 {
		t.Fatalf("fit (%g, %g), want (%g, %g)", a, bt, alpha, beta)
	}
	if r2 < 1-1e-9 {
		t.Fatalf("r² = %v for a perfect line", r2)
	}
}

// TestFitAlphaBetaClampsNegativeIntercept: noisy data can regress to a
// negative latency; the fit must clamp it to zero rather than hand the
// simulator an invalid config.
func TestFitAlphaBetaClampsNegativeIntercept(t *testing.T) {
	samples := []CommSample{
		{Bytes: 100, Seconds: 0.5e-6},
		{Bytes: 200, Seconds: 2e-6},
	}
	a, b, _, err := FitAlphaBeta(samples)
	if err != nil {
		t.Fatal(err)
	}
	if a != 0 {
		t.Fatalf("negative intercept not clamped: α = %v", a)
	}
	if b <= 0 {
		t.Fatalf("slope lost in the clamp: β = %v", b)
	}
}

// TestFitAlphaBetaRejectsDegenerateInput: fewer than two samples, or two
// samples at the same size, cannot pin down a line.
func TestFitAlphaBetaRejectsDegenerateInput(t *testing.T) {
	if _, _, _, err := FitAlphaBeta(nil); err == nil {
		t.Fatal("empty sample set accepted")
	}
	if _, _, _, err := FitAlphaBeta([]CommSample{{Bytes: 64, Seconds: 1e-6}}); err == nil {
		t.Fatal("single sample accepted")
	}
	same := []CommSample{{Bytes: 64, Seconds: 1e-6}, {Bytes: 64, Seconds: 2e-6}}
	if _, _, _, err := FitAlphaBeta(same); err == nil {
		t.Fatal("two samples at one size accepted")
	}
}

// TestPredictBroadcastMatchesHandSchedule: on a half-duplex switched
// fabric the flat (star) and plain ring broadcasts to p-1 receivers are
// both p-1 fully serialized hops — (p-1)·(α+βs) — while a binomial tree
// overlaps subtree forwarding and must finish strictly sooner for p = 4.
func TestPredictBroadcastMatchesHandSchedule(t *testing.T) {
	const alpha, beta = 1e-5, 1e-9
	const p, bytes = 4, 1 << 16
	hop := alpha + beta*float64(bytes)

	flat, err := PredictBroadcast(FlatBroadcast, p, bytes, alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := PredictBroadcast(RingBroadcast, p, bytes, alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(p-1) * hop
	if math.Abs(flat-want) > 1e-12 || math.Abs(ring-want) > 1e-12 {
		t.Fatalf("flat %v ring %v, want %v (= 3 serialized hops)", flat, ring, want)
	}

	tree, err := PredictBroadcast(TreeBroadcast, p, bytes, alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	if tree >= flat {
		t.Fatalf("tree %v not faster than flat %v at p=4", tree, flat)
	}

	pipe, err := PredictBroadcast(PipelinedRingBroadcast, p, bytes, alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	if pipe <= 0 || pipe >= want*2 {
		t.Fatalf("pipelined ring %v outside sane bounds (0, %v)", pipe, want*2)
	}
}

// TestPredictBroadcastReproducesBenchNet: the recorded calibration
// (BENCH_net.json, written by cmd/hetcalibrate -net) holds the model's
// prediction for each broadcast kind under the fitted α–β; re-predicting
// from the recorded α, β, world and payload gives the same float, bit for
// bit.
func TestPredictBroadcastReproducesBenchNet(t *testing.T) {
	blob, err := os.ReadFile("BENCH_net.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		World     int     `json:"world"`
		Alpha     float64 `json:"alpha_seconds"`
		Beta      float64 `json:"beta_seconds_per_byte"`
		Broadcast []struct {
			Kind      string  `json:"kind"`
			Bytes     int     `json:"bytes"`
			Predicted float64 `json:"predicted_seconds"`
		} `json:"broadcast"`
	}
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Broadcast) != 4 {
		t.Fatalf("BENCH_net.json has %d broadcast rows, want 4", len(rep.Broadcast))
	}
	for _, row := range rep.Broadcast {
		kind, err := ParseBroadcast(row.Kind)
		if err != nil {
			t.Fatal(err)
		}
		got, err := PredictBroadcast(kind, rep.World, row.Bytes, rep.Alpha, rep.Beta)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(row.Predicted) {
			t.Errorf("%s: predicted %v, BENCH_net.json records %v", row.Kind, got, row.Predicted)
		}
	}
}

// TestPredictBroadcastValidates: invalid shapes and parameters error
// instead of producing a silent nonsense schedule.
func TestPredictBroadcastValidates(t *testing.T) {
	if _, err := PredictBroadcast(FlatBroadcast, 0, 10, 1e-6, 1e-9); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := PredictBroadcast(FlatBroadcast, 4, -1, 1e-6, 1e-9); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := PredictBroadcast(FlatBroadcast, 4, 10, -1e-6, 1e-9); err == nil {
		t.Fatal("negative α accepted")
	}
	if one, err := PredictBroadcast(TreeBroadcast, 1, 10, 1e-6, 1e-9); err != nil || one != 0 {
		t.Fatalf("single-rank broadcast should cost nothing: %v, %v", one, err)
	}
}
