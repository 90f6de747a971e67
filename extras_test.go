package hetgrid

import (
	"math/rand"
	"strings"
	"testing"

	"hetgrid/internal/matrix"
	"hetgrid/internal/obs"
)

// shapeRequest asks SolvePlan for the full §4.1 problem: the grid shape,
// which processors take part (subset lets the slowest sit out) and the
// shares; minAspect bounds min(p,q)/max(p,q).
func shapeRequest(times []float64, subset bool, minAspect float64) PlanRequest {
	return PlanRequest{Times: times, AllowSubset: subset, MinAspect: minAspect}
}

func TestChooseGrid(t *testing.T) {
	plan, choice, err := SolvePlan(shapeRequest([]float64{1, 2, 3, 5}, false, 0))
	if err != nil {
		t.Fatal(err)
	}
	if choice.P*choice.Q != 4 || len(choice.Selected) != 4 {
		t.Fatalf("choice %+v", choice)
	}
	if !plan.sol.Feasible(0) {
		t.Fatal("plan violates its load-balance constraints")
	}
	if choice.Candidates < 3 {
		t.Fatalf("only %d candidates", choice.Candidates)
	}
	// Prime count with aspect bound needs subsets.
	if _, _, err := SolvePlan(shapeRequest([]float64{1, 1, 1, 1, 1}, false, 0.5)); err == nil {
		t.Fatal("prime count under aspect bound should fail without subsets")
	}
	_, choice, err = SolvePlan(shapeRequest([]float64{1, 1, 1, 1, 1}, true, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(choice.Selected) >= 5 {
		t.Fatalf("subset not used: %+v", choice)
	}
}

func TestChooseGridEdgeCases(t *testing.T) {
	// Prime processor count: without an aspect bound the only full-set
	// shapes are 1×7 and 7×1, and both must be admissible.
	_, choice, err := SolvePlan(shapeRequest([]float64{1, 1, 2, 2, 3, 3, 5}, false, 0))
	if err != nil {
		t.Fatal(err)
	}
	if choice.P*choice.Q != 7 || (choice.P != 1 && choice.Q != 1) {
		t.Fatalf("prime count chose %d×%d", choice.P, choice.Q)
	}

	// Subset trimming drops the slowest machines: with 6 processors under
	// a square-ish bound, the two slowest must be the ones left out, and
	// Selected lists the survivors fastest first.
	times := []float64{5, 1, 9, 2, 9, 1}
	_, choice, err = SolvePlan(shapeRequest(times, true, 1))
	if err != nil {
		t.Fatal(err)
	}
	if choice.P != choice.Q {
		t.Fatalf("minAspect 1 allowed a %d×%d grid", choice.P, choice.Q)
	}
	for _, idx := range choice.Selected {
		if times[idx] == 9 {
			t.Fatalf("a slowest machine (index %d) was selected: %+v", idx, choice)
		}
	}
	for i := 1; i < len(choice.Selected); i++ {
		if times[choice.Selected[i-1]] > times[choice.Selected[i]] {
			t.Fatalf("Selected not fastest-first: %+v", choice.Selected)
		}
	}
	// minAspect exactly 1 forces a square grid when one exists.
	_, choice, err = SolvePlan(shapeRequest([]float64{1, 2, 3, 5}, false, 1))
	if err != nil {
		t.Fatal(err)
	}
	if choice.P != 2 || choice.Q != 2 {
		t.Fatalf("minAspect 1 with 4 processors chose %d×%d", choice.P, choice.Q)
	}

	// Requests no shape satisfies. min(p,q)/max(p,q) never exceeds 1, so a
	// bound above 1 admits no shape at all; a square bound on a prime count
	// fails when subsets are off.
	for name, req := range map[string]PlanRequest{
		"aspect above 1":       shapeRequest([]float64{1, 1, 1, 1}, true, 1.5),
		"negative aspect":      shapeRequest([]float64{1, 1, 1, 1}, true, -0.5),
		"square prime":         shapeRequest([]float64{1, 1, 1}, false, 1),
		"negative cycle-time":  shapeRequest([]float64{1, -1, 1, 1}, false, 0),
		"bad strategy":         {Times: []float64{1, 2, 3, 5}, Strategy: "simplex"},
		"no processors at all": shapeRequest(nil, true, 0),
	} {
		if _, _, err := SolvePlan(req); err == nil {
			t.Errorf("%s: shape request %+v accepted", name, req)
		}
	}
}

func TestSimulateCholeskyKernel(t *testing.T) {
	plan, err := Balance([]float64{1, 2, 3, 5}, 2, 2, StrategyExact)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := plan.BestPanel(12, 12, Cholesky)
	if err != nil {
		t.Fatal(err)
	}
	d, err := layout.Distribute(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	chol, err := Simulate(Cholesky, d, plan, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lu, err := Simulate(LU, d, plan, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if chol.Kernel != "cholesky" {
		t.Fatalf("kernel label %q", chol.Kernel)
	}
	if chol.Makespan >= lu.Makespan {
		t.Fatal("Cholesky (half the updates) not faster than LU")
	}
	if Cholesky.String() != "cholesky" {
		t.Fatal("Kernel string missing cholesky")
	}
}

func TestTraceSimulation(t *testing.T) {
	plan, err := Balance([]float64{1, 2, 3, 5}, 2, 2, StrategyExact)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := plan.BestPanel(12, 12, MatMul)
	if err != nil {
		t.Fatal(err)
	}
	d, err := layout.Distribute(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Kernel{MatMul, LU, QR, Cholesky} {
		res, gantt, err := TraceSimulation(k, d, plan, SimOptions{Latency: 0.01, BlockBytes: 1024}, 60)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if len(res.Spans) == 0 {
			t.Fatalf("%v: no spans recorded", k)
		}
		if !strings.Contains(gantt, "#") {
			t.Fatalf("%v: gantt shows no activity: %q", k, gantt)
		}
		if strings.Count(gantt, "\n") != 4 {
			t.Fatalf("%v: gantt should have 4 node rows", k)
		}
	}
	if _, _, err := TraceSimulation(Kernel(42), d, plan, SimOptions{}, 60); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

// TestTraceSimulationMatchesSimulate: tracing only records — with every
// SimOptions field set, the traced and untraced simulations of every
// kernel agree to the bit. (TraceSimulation used to build its own options
// and dropped Pivoting.)
func TestTraceSimulationMatchesSimulate(t *testing.T) {
	plan, err := Balance([]float64{1, 2, 3, 5}, 2, 2, StrategyExact)
	if err != nil {
		t.Fatal(err)
	}
	opts := SimOptions{
		Latency: 0.3, ByteTime: 1e-3, SharedBus: true, FullDuplex: true,
		BlockBytes: 512, SyncSteps: true, Pivoting: true, Broadcast: TreeBroadcast,
	}
	for _, k := range []Kernel{MatMul, LU, QR, Cholesky} {
		layout, err := plan.BestPanel(6, 6, k)
		if err != nil {
			t.Fatal(err)
		}
		d, err := layout.Distribute(12, 12)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Simulate(k, d, plan, opts)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		traced, _, err := TraceSimulation(k, d, plan, opts, 60)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if traced.Kernel != plain.Kernel || traced.Makespan != plain.Makespan || traced.CompBound != plain.CompBound ||
			traced.Stats.Messages != plain.Stats.Messages || traced.Stats.Bytes != plain.Stats.Bytes {
			t.Fatalf("%v: traced run (%s, makespan %v, %d msgs) differs from Simulate (%s, makespan %v, %d msgs)",
				k, traced.Kernel, traced.Makespan, traced.Stats.Messages, plain.Kernel, plain.Makespan, plain.Stats.Messages)
		}
	}
}

// TestSimulatedComputeSpansJoinMeasured: simulator and engine name a
// step's compute sections from one set of names (distribution.Section), so
// a predicted and a measured timeline join on (Rank, Name). For MatMul, LU
// and Cholesky on the 2×2 {1,2,3,5} het-panel at nb = 6, every simulated
// compute span joins the group of measured compute spans with its rank and
// name — one span, or two where the engine's look-ahead splits a step's
// update around the next panel — summed, and each rank meets the groups
// in the order the engine began them. (The engine opens a section on every
// rank, the simulator only where the rank owns blocks of it, so the
// measured side is the larger. QR is left out: its simulation runs LU's
// model.)
func TestSimulatedComputeSpansJoinMeasured(t *testing.T) {
	plan, err := Balance([]float64{1, 2, 3, 5}, 2, 2, StrategyExact)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(623))
	const nb, r = 6, 2
	for _, k := range []Kernel{MatMul, LU, Cholesky} {
		layout, err := plan.BestPanel(nb, nb, k)
		if err != nil {
			t.Fatal(err)
		}
		d, err := layout.Distribute(nb, nb)
		if err != nil {
			t.Fatal(err)
		}
		predicted, _, err := TraceSimulation(k, d, plan, SimOptions{Latency: 0.01, BlockBytes: 8 * r * r}, 0)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		var stats *ExecStats
		switch k {
		case MatMul:
			_, stats, err = DistributedMultiply(d, matrix.Random(nb*r, nb*r, rng), matrix.Random(nb*r, nb*r, rng), r, WithSpans())
		case LU:
			_, stats, err = DistributedFactor(k, d, matrix.RandomWellConditioned(nb*r, rng), r, WithSpans())
		case Cholesky:
			_, stats, err = DistributedFactor(k, d, matrix.RandomSPD(nb*r, rng), r, WithSpans())
		}
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		// A rank's compute spans complete in program order, so the store's
		// order is the order it ran them in; a group is ordered by its first.
		type key struct {
			rank int
			name string
		}
		type group struct {
			first, spans int
			seconds      float64
		}
		groups := map[key]*group{}
		ran := make([]int, 4)
		for _, sp := range stats.Spans {
			if sp.Kind != obs.SpanCompute {
				continue
			}
			g := groups[key{sp.Rank, sp.Name}]
			if g == nil {
				g = &group{first: ran[sp.Rank]}
				groups[key{sp.Rank, sp.Name}] = g
			}
			ran[sp.Rank]++
			g.spans++
			g.seconds += sp.End - sp.Start
		}
		joined := 0
		last := []int{-1, -1, -1, -1}
		joinedSeconds := make([]float64, 4)
		for _, sp := range predicted.Spans {
			if sp.Kind != obs.SpanCompute {
				continue
			}
			joined++
			g := groups[key{sp.Rank, sp.Name}]
			if g == nil {
				t.Fatalf("%v: simulated span %q on rank %d has no measured span", k, sp.Name, sp.Rank)
			}
			if g.spans > 2 {
				t.Fatalf("%v: simulated span %q on rank %d has %d measured spans, want 1 or 2", k, sp.Name, sp.Rank, g.spans)
			}
			if g.first <= last[sp.Rank] {
				t.Fatalf("%v: simulated span %q on rank %d is out of the engine's order", k, sp.Name, sp.Rank)
			}
			last[sp.Rank] = g.first
			joinedSeconds[sp.Rank] += g.seconds
		}
		// The join counts no measured span twice: what it sums stays within
		// the rank's busy time.
		for rank, s := range joinedSeconds {
			if busy := stats.BusyTime[rank]; s > busy*(1+1e-9) {
				t.Fatalf("%v: rank %d joined %g s of compute, busy only %g s", k, rank, s, busy)
			}
		}
		if joined < nb {
			t.Fatalf("%v: only %d simulated compute spans", k, joined)
		}
	}
}
