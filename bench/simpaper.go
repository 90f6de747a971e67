package main

// sim-paper: the paper's own evaluation, on the simulator. Two grids × three
// kernels × three distributions × four broadcasts = 72 simulations make one
// operation; no real kernel or socket runs.

import (
	"time"

	"hetgrid"
)

const (
	simNB = 48
	simR  = 32 // 8192-byte blocks
)

var (
	simGrids = []struct {
		p, q  int
		times []float64
	}{
		{2, 2, []float64{1, 2, 3, 5}},
		{3, 3, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}},
	}
	simKernels    = []hetgrid.Kernel{hetgrid.MatMul, hetgrid.LU, hetgrid.Cholesky}
	simBroadcasts = []hetgrid.BroadcastKind{hetgrid.FlatBroadcast, hetgrid.RingBroadcast, hetgrid.PipelinedRingBroadcast, hetgrid.TreeBroadcast}
)

type simWL struct {
	t         tally
	scenarios []*modelScenario
	warmed    bool
	wallsMS   []float64
	sims      int // simulations per operation
	ratios    modelRatios
}

func (w *simWL) tally() *tally            { return &w.t }
func (w *simWL) close()                   {}
func (w *simWL) prepare(seed int64) error { return w.setup() } // the table has no random input

// setup builds the scenario table: a plan per grid, and per kernel its
// panel, uniform and Kalinov–Lastovetsky distributions.
func (w *simWL) setup() error {
	w.scenarios = w.scenarios[:0]
	for _, g := range simGrids {
		for _, k := range simKernels {
			s, err := buildScenario(modelCase{
				req:    hetgrid.PlanRequest{Times: g.times, P: g.p, Q: g.q},
				kernel: k, nb: simNB, r: simR, maxPanel: 4 * max(g.p, g.q),
				broadcasts: simBroadcasts,
			})
			if err != nil {
				return err
			}
			w.scenarios = append(w.scenarios, s)
		}
	}
	w.sims = len(w.scenarios) * 3 * len(simBroadcasts)
	return nil
}

// table simulates the whole table once. When tr is non-nil every
// simulation is recorded as a span under the table's.
func (w *simWL) table(tr *tracer) (float64, []float64) {
	var ratios modelRatios
	var each []float64
	op := 0
	if tr != nil {
		op = tr.newOp()
	}
	t0 := time.Now()
	last := t0
	var err error
	for _, s := range w.scenarios {
		var visit func(string, hetgrid.BroadcastKind, *hetgrid.SimResult)
		if tr != nil {
			visit = func(dist string, b hetgrid.BroadcastKind, _ *hetgrid.SimResult) {
				now := time.Now()
				tr.add(op, 0, "sim."+s.kernel.String()+"/"+dist+"/"+b.String(), last, now)
				each = append(each, now.Sub(last).Seconds()*1e3)
				last = now
			}
		}
		var rows []simRow
		if rows, err = s.simulate(visit); err != nil {
			break
		}
		ratios.add(rows)
	}
	end := time.Now()
	if err != nil {
		w.t.fail(w.sims, "sim-paper: %v", err)
	} else {
		w.t.ok(w.sims)
		w.ratios = ratios
	}
	if tr != nil {
		tr.add(op, 0, "sim.table", t0, end)
	}
	return end.Sub(t0).Seconds(), each
}

func (w *simWL) measure(d time.Duration, quick bool) {
	op := func() float64 { wall, _ := w.table(nil); return wall }
	if !w.warmed {
		for i := 0; i < warmupReps; i++ {
			op()
		}
		w.warmed = true
	}
	for _, s := range timeLoop(d, quick, op) {
		w.wallsMS = append(w.wallsMS, s*1e3)
	}
}

func (w *simWL) report() map[string]summary {
	out := map[string]summary{"op_p50_ms": summarize(w.wallsMS)}
	w.ratios.into(out)
	var quality []float64
	for i := 0; i < len(w.scenarios); i += len(simKernels) { // one plan per grid
		q, err := planQuality(w.scenarios[i])
		w.t.check(err)
		quality = append(quality, q)
	}
	out["plan_quality"] = summary{P50: mean(quality), N: len(quality)}
	return out
}

func (w *simWL) trace(d time.Duration, quick bool, tr *tracer) map[string]float64 {
	m := map[string]float64{}
	var tables, each []float64
	begin := time.Now()
	for {
		wall, e := w.table(tr)
		tables = append(tables, wall*1e3)
		each = append(each, e...)
		if quick || time.Since(begin) >= d*7/10 {
			break
		}
	}
	m["bench.traced_op_p50_ms"] = median(tables)
	m["sim.simulate_ms"] = median(each)
	micro := d / 25
	if quick {
		micro = 5 * time.Millisecond
	}
	s := w.scenarios[len(w.scenarios)-1] // the 3×3 grid
	tracePanel(m, micro, s.plan, s.maxPanel, s.kernel, s.nb, &w.t)
	return m
}

// tracePanel times the two internal/distribution steps of every setup —
// the best-panel search and tiling the block matrix with it.
func tracePanel(m map[string]float64, d time.Duration, plan *hetgrid.Plan, maxPanel int, k hetgrid.Kernel, nb int, t *tally) {
	layout, err := plan.BestPanel(maxPanel, maxPanel, k)
	if err != nil {
		t.check(err)
		return
	}
	m["distribution.panel_efficiency"] = layout.Efficiency()
	m["distribution.bestpanel_us"] = 1e6 * perCall(d, func() { plan.BestPanel(maxPanel, maxPanel, k) })
	m["distribution.distribute_us"] = 1e6 * perCall(d, func() { layout.Distribute(nb, nb) })
}
