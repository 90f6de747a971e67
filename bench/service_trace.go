package main

// The traced pass of the service workloads: a shorter closed loop with a
// span per POST and the cache's counters read around it, then the same
// requests put straight into the handler (no socket), into the decoder, and
// — on plan-cold, where they do the work — into the solvers.

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"hetgrid"
	"hetgrid/internal/core"
	"hetgrid/internal/plan"
	"hetgrid/internal/plancache"
	"hetgrid/internal/service"
)

func (w *serviceWL) trace(d time.Duration, quick bool, tr *tracer) map[string]float64 {
	m := map[string]float64{}
	loopFor, micro := d/2, d/40
	if quick {
		loopFor, micro = quickWindow, 5*time.Millisecond
	}

	before := w.srv.Cache().Stats()
	exs := w.loop(loopFor, tr)
	after := w.srv.Cache().Stats()
	w.settle(exs)
	var lat, at []float64
	var perOp []int
	var items, dedup float64
	for _, client := range exs {
		for _, ex := range client {
			lat = append(lat, ex.latency*1e3)
			at = append(at, ex.done)
			perOp = append(perOp, ex.items)
			items += float64(ex.items)
			dedup += float64(ex.dedup)
		}
	}
	m["service.items_per_s"] = median(windowRates(at, perOp, windowSeconds, loopFor.Seconds()))
	p50 := median(lat)
	m["bench.traced_op_p50_ms"] = p50
	m["service.p99_ms"] = percentile(lat, 0.99)
	if items > 0 {
		m["service.dedup_ratio"] = dedup / items
	}
	if gets := float64(after.Gets - before.Gets); gets > 0 {
		m["plancache.hit_ratio"] = float64(after.Hits-before.Hits) / gets
	}
	m["plancache.evictions"] = float64(after.Evictions - before.Evictions)
	m["plancache.shared"] = float64(after.Shared - before.Shared)

	// The handler without a socket, and its decoder alone, on a further
	// stream of the same distribution as the clients' (fresh bodies every
	// call, or plan-cold would start hitting the cache).
	path, perPost := "/v1/plan", 1.0
	next := func() []byte { b, _ := w.colds[serviceClients].next(); return b }
	if w.hot {
		path, perPost = "/v1/plans", hotBatch
		next = w.hotGens[serviceClients].next
	}
	h := w.srv.Handler()
	handler := perCall(micro*4, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(next())))
		if rec.Code != http.StatusOK {
			w.t.fail(1, "%s: handler answered %d", w.name, rec.Code)
		}
	})
	m["service.handler_us"] = 1e6 * handler / perPost
	postsPerOp := 1.0
	if !w.hot {
		postsPerOp = coldCycles * coldClasses
	}
	m["service.http_overhead_us"] = p50*1e3/postsPerOp - 1e6*handler
	body := bytes.Clone(next())
	m["service.decode_us"] = 1e6 / perPost * perCall(micro, func() {
		var err error
		if w.hot {
			_, err = service.DecodeBatch(bytes.NewReader(body), 256)
		} else {
			_, err = service.DecodeRequest(bytes.NewReader(body))
		}
		if err != nil {
			w.t.fail(1, "%s: decoding a generated body: %v", w.name, err)
		}
	})

	// One resident key of a default cache, fetched again and again.
	cache := plancache.New(plancache.Config{})
	resident := &plan.Plan{}
	load := func() (*plan.Plan, error) { return resident, nil }
	m["plancache.get_hit_ns"] = 1e9 * perCall(micro, func() { cache.GetOrCompute("k", load) })

	if !w.hot {
		traceSolvers(m, micro, &w.t)
	}
	return m
}

// traceSolvers times the solver layers under plan-cold's four request
// classes on fixed problems: internal/core directly, internal/plan around
// it, and the panel steps of internal/distribution.
func traceSolvers(m map[string]float64, d time.Duration, t *tally) {
	rng := rand.New(rand.NewSource(probeSeed))
	t9, t16 := cycleTimes(rng, 9), cycleTimes(rng, 16)

	_, stats, err := core.SolveGlobalExact(t9, 3, 3)
	if err != nil {
		t.check(err)
		return
	}
	m["core.trees_visited"] = float64(stats.TreesVisited)
	m["core.prune_ratio"] = stats.PruneRatio()
	m["core.exact_us"] = 1e6 * perCall(d, func() { core.SolveGlobalExact(t9, 3, 3) })
	heur, err := core.SolveHeuristic(t9, 3, 3, core.HeuristicOptions{})
	if err != nil {
		t.check(err)
		return
	}
	m["core.heuristic_iterations"] = float64(heur.Iterations)
	m["core.heuristic_us"] = 1e6 * perCall(d, func() { core.SolveHeuristic(t9, 3, 3, core.HeuristicOptions{}) })

	solve := func(req plan.Request) float64 {
		if _, err := plan.Solve(req); err != nil {
			t.check(err)
			return 0
		}
		return 1e6 * perCall(d, func() { plan.Solve(req) })
	}
	m["plan.solve_exact3x3_us"] = solve(plan.Request{Times: t9, P: 3, Q: 3, Strategy: plan.StrategyExact, Workers: 1})
	panelReq := plan.Request{Times: t16, P: 4, Q: 4, Strategy: plan.StrategyHeuristic, Kernel: plan.LU, Panel: &plan.PanelSpec{MaxBp: 16, MaxBq: 16}}
	m["plan.solve_heur4x4panel_us"] = solve(panelReq)
	m["plan.solve_shape16_us"] = solve(plan.Request{Times: t16, AllowSubset: true})
	m["plan.key_us"] = 1e6 * perCall(d, func() { panelReq.Key(plan.DefaultQuantDigits) })

	p, _, err := hetgrid.SolvePlan(hetgrid.PlanRequest{Times: t16, P: 4, Q: 4, Strategy: hetgrid.PlanHeuristic})
	if err != nil {
		t.check(err)
		return
	}
	tracePanel(m, d, p, 16, hetgrid.LU, probeNB, t)
}
