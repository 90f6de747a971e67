package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Everything the benchmark gates exactly must repeat exactly: the engine's
// message and byte counts, the fault layer's counters, and the model
// ratios, across two independently prepared copies of a workload.
func TestEngineCountsAndRatiosRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two distributed factorizations")
	}
	run := func() (msgs, bytes, checkpoints, resumed int, ratios map[string]summary) {
		w := newWorkload("lu-recover").(*engineWL)
		if err := w.prepare(defaultSeed); err != nil {
			t.Fatal(err)
		}
		res, err := w.operate(w.opOpts())
		if err == nil {
			err = w.verify(res, true)
		}
		if err != nil {
			t.Fatal(err)
		}
		st := res.stats[0]
		ratios = map[string]summary{}
		w.modelMetrics(ratios)
		if w.t.failed != 0 {
			t.Fatalf("model metrics failed: %v", w.t.failures)
		}
		return st.Messages, st.Bytes, st.Faults.Checkpoints, st.Faults.ResumedSteps, ratios
	}
	m1, b1, c1, r1, q1 := run()
	m2, b2, c2, r2, q2 := run()
	if m1 != m2 || b1 != b2 || c1 != c2 || r1 != r2 {
		t.Errorf("counts differ between two runs: msgs %d/%d bytes %d/%d checkpoints %d/%d resumed %d/%d", m1, m2, b1, b2, c1, c2, r1, r2)
	}
	if m1 == 0 || c1 == 0 || r1 == 0 {
		t.Errorf("a recovered run reports %d messages, %d checkpoints, %d resumed steps", m1, c1, r1)
	}
	for _, name := range []string{"plan_quality", "sim_speedup_vs_uniform", "sim_speedup_vs_kl", "sim_efficiency"} {
		if q1[name].P50 != q2[name].P50 || !(q1[name].P50 > 0) {
			t.Errorf("%s: %v then %v", name, q1[name].P50, q2[name].P50)
		}
	}
}

func TestServiceRatiosRepeatAcrossSeeds(t *testing.T) {
	run := func(seed int64) map[string]summary {
		w := newWorkload("plan-cold").(*serviceWL)
		if err := w.prepare(seed); err != nil {
			t.Fatal(err)
		}
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		defer w.close()
		out := map[string]summary{}
		if err := w.probe(out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(1), run(2)
	for name, s := range a {
		if s.P50 != b[name].P50 || !(s.P50 > 0) {
			t.Errorf("%s: %v with seed 1, %v with seed 2 — the quality probes must not depend on the seed", name, s.P50, b[name].P50)
		}
	}
	if q := a["plan_quality"].P50; !(q > 0.5 && q <= 1+1e-12) {
		t.Errorf("plan_quality %v: a heuristic plan cannot beat the exact optimum", q)
	}
}

// A quick end-to-end and traced pass of the cheapest workload produces
// every declared metric, nests its spans, and verifies every operation.
func TestQuickPassesOfSimPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the paper's table several times")
	}
	cfg := config{seed: defaultSeed, seconds: time.Second, quick: true, outdir: t.TempDir()}
	ps, err := prepareAll([]string{"sim-paper"}, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ps)
	e2e := endToEndPass(ps, cfg)["sim-paper"]
	for _, d := range endToEndDefs {
		if !(e2e.EndToEnd[d.Name].P50 > 0) {
			t.Errorf("end-to-end metric %s reads %v; it must never be 0", d.Name, e2e.EndToEnd[d.Name].P50)
		}
	}
	if e2e.Failed != 0 || e2e.Attempted == 0 {
		t.Errorf("%d failed of %d: %v", e2e.Failed, e2e.Attempted, e2e.Failures)
	}
	again := ps[0].w.report()
	for _, name := range []string{"plan_quality", "sim_speedup_vs_uniform", "sim_speedup_vs_kl", "sim_efficiency"} {
		if again[name].P50 != e2e.EndToEnd[name].P50 {
			t.Errorf("%s does not repeat: %v then %v", name, e2e.EndToEnd[name].P50, again[name].P50)
		}
	}

	traced, err := tracedPass(ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(traced["sim-paper"].PerLayer["sim.simulate_ms"] > 0) {
		t.Error("the traced pass did not time the simulations")
	}
	if _, err := os.Stat(filepath.Join(cfg.outdir, "trace-sim-paper.json")); err != nil {
		t.Errorf("no trace file: %v", err)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	op := tr.newOp()
	t0 := time.Now()
	root := tr.add(op, 0, "rep", t0, t0)
	child := tr.add(op, root, "phase", t0, t0.Add(time.Millisecond))
	tr.end(root, t0.Add(2*time.Millisecond))
	if root != 1 || child != 2 || tr.spans[1].Parent != root || tr.spans[1].Op != tr.spans[0].Op {
		t.Fatalf("spans do not nest: %+v", tr.spans)
	}
	if got := tr.spans[0].End - tr.spans[0].Start; got < 0.0019 || got > 0.0021 {
		t.Errorf("root span lasts %v s, want 2 ms", got)
	}
	if tr.newOp() == op {
		t.Error("operation ids must be fresh")
	}
}

func TestContractLine(t *testing.T) {
	line := contractLine(&passResult{EndToEnd: map[string]summary{"setup_s": {P50: 0.25}}, Attempted: 3})
	for _, want := range []string{`"correct":true`, `"attempted":3`, `"failed":0`, `"setup_s":{"value":0.25,"unit":"s"}`, `"op_p50_ms"`} {
		if !strings.Contains(line, want) {
			t.Errorf("contract line %s lacks %s", line, want)
		}
	}
	if line := contractLine(&passResult{PerLayer: map[string]float64{}, Attempted: 1, Failed: 1}); !strings.Contains(line, `"correct":false`) || !strings.Contains(line, `"engine.msgs":{"value":0,"unit":"count"}`) {
		t.Errorf("traced contract line %s", line)
	}
}
