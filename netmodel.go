package hetgrid

import (
	"fmt"
	"slices"

	"hetgrid/internal/sim"
)

// CommSample is one point-to-point timing measurement: a message of Bytes
// payload bytes took Seconds to travel one way. cmd/hetcalibrate -net
// produces these from ping-pong rounds over the TCP fabric; synthetic
// samples work just as well for testing a fit.
type CommSample struct {
	Bytes   int     `json:"bytes"`
	Seconds float64 `json:"seconds"`
}

// FitAlphaBeta fits the paper's linear cost model t = α + β·s to the
// samples by ordinary least squares: α is the per-message latency in
// seconds, β the per-byte transfer time (inverse bandwidth). r2 is the
// coefficient of determination of the fit — values near 1 mean the fabric
// really is linear over the sampled size range.
//
// A physical fabric can produce a slightly negative intercept on noisy
// data; both parameters are clamped at zero so they remain valid
// sim.Config inputs.
func FitAlphaBeta(samples []CommSample) (alpha, beta, r2 float64, err error) {
	if len(samples) < 2 {
		return 0, 0, 0, fmt.Errorf("hetgrid: α–β fit needs at least 2 samples, got %d", len(samples))
	}
	var sx, sy float64
	for _, s := range samples {
		sx += float64(s.Bytes)
		sy += s.Seconds
	}
	n := float64(len(samples))
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for _, s := range samples {
		dx := float64(s.Bytes) - mx
		dy := s.Seconds - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0, fmt.Errorf("hetgrid: α–β fit needs at least two distinct message sizes")
	}
	beta = sxy / sxx
	alpha = my - beta*mx
	if alpha < 0 {
		alpha = 0
	}
	if beta < 0 {
		beta = 0
	}
	// r² against the clamped line, so the report reflects the model
	// actually used for prediction.
	var ssRes float64
	for _, s := range samples {
		e := s.Seconds - (alpha + beta*float64(s.Bytes))
		ssRes += e * e
	}
	if syy == 0 {
		r2 = 1
	} else {
		r2 = 1 - ssRes/syy
	}
	return alpha, beta, r2, nil
}

// PredictBroadcast returns the modelled completion time (seconds until the
// last receiver holds the payload) of broadcasting bytes from one root to
// the other p-1 ranks under kind, on a switched half-duplex fabric with
// per-message latency alpha and per-byte time beta — the same virtual
// cluster the simulator schedules kernels on, so a calibrated α–β makes
// simulator timings commensurable with wall-clock measurements.
func PredictBroadcast(kind BroadcastKind, p, bytes int, alpha, beta float64) (float64, error) {
	if p < 1 {
		return 0, fmt.Errorf("hetgrid: broadcast over %d ranks", p)
	}
	if bytes < 0 {
		return 0, fmt.Errorf("hetgrid: negative payload size %d", bytes)
	}
	if alpha < 0 || beta < 0 {
		return 0, fmt.Errorf("hetgrid: negative cost parameters α=%v β=%v", alpha, beta)
	}
	if err := kind.Validate(); err != nil {
		return 0, fmt.Errorf("hetgrid: %w", err)
	}
	cl, err := sim.NewCluster(p, sim.Config{Latency: alpha, ByteTime: beta})
	if err != nil {
		return 0, err
	}
	receivers := make([]int, p)
	for i := range receivers {
		receivers[i] = i
	}
	arrivals := make([]float64, p)
	cl.Broadcast(kind, 0, receivers, float64(bytes), 0, arrivals)
	return slices.Max(arrivals), nil
}
