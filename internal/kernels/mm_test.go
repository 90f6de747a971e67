package kernels

import (
	"math"
	"testing"

	"hetgrid/internal/core"
	"hetgrid/internal/distribution"
	"hetgrid/internal/grid"
	"hetgrid/internal/sim"
)

// hetArr is the imperfect 2×2 grid used across kernel tests.
func hetArr() *grid.Arrangement {
	return grid.MustNew([][]float64{{1, 2}, {3, 5}})
}

// panelDist builds the paper's heterogeneous panel distribution for arr on
// an nb×nb block matrix.
func panelDist(t *testing.T, arr *grid.Arrangement, nb int) distribution.Distribution {
	t.Helper()
	sol, _, err := core.SolveArrangementExactOpt(arr, core.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pan, err := distribution.NewPanel(sol, 8, 6, distribution.Contiguous, distribution.Contiguous)
	if err != nil {
		t.Fatal(err)
	}
	d, err := pan.Distribution(nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSimulateMMZeroCommEqualsCompBound(t *testing.T) {
	arr := hetArr()
	for _, mk := range []func() distribution.Distribution{
		func() distribution.Distribution { d, _ := distribution.UniformBlockCyclic(2, 2, 24, 24); return d },
		func() distribution.Distribution { return panelDist(t, arr, 24) },
		func() distribution.Distribution { d, _ := distribution.NewKL(arr, 24, 24); return d },
	} {
		d := mk()
		res, err := SimulateMM(d, arr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Makespan-res.CompBound) > 1e-9 {
			t.Fatalf("%s: zero-comm makespan %v != comp bound %v", d.Name(), res.Makespan, res.CompBound)
		}
		if res.Efficiency() < 1-1e-9 {
			t.Fatalf("%s: zero-comm efficiency %v", d.Name(), res.Efficiency())
		}
	}
}

func TestSimulateMMPanelBeatsUniform(t *testing.T) {
	// The headline claim: the uniform block-cyclic distribution is limited
	// by the slowest processor; the heterogeneous panel is not.
	arr := hetArr()
	nb := 24
	uni, _ := distribution.UniformBlockCyclic(2, 2, nb, nb)
	opts := Options{Net: sim.Config{Latency: 1e-3, ByteTime: 1e-6}, BlockBytes: 8 * 32 * 32}
	uniRes, err := SimulateMM(uni, arr, opts)
	if err != nil {
		t.Fatal(err)
	}
	panRes, err := SimulateMM(panelDist(t, arr, nb), arr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if panRes.Makespan >= uniRes.Makespan {
		t.Fatalf("panel %v not faster than uniform %v", panRes.Makespan, uniRes.Makespan)
	}
	// Uniform's compute bound: each processor owns nb²/4 blocks, the
	// slowest has cycle-time 5 → bound = nb · nb²/4 /nb · 5... per full
	// run: (nb²/4)·nb·5 / nb = per-step nb²/4·... total = nb·(nb²/4 per
	// step? each step updates all owned blocks) = nb·(nb²/4)·5.
	wantUniBound := float64(nb) * float64(nb*nb) / 4 * 5
	if math.Abs(uniRes.CompBound-wantUniBound) > 1e-6 {
		t.Fatalf("uniform comp bound %v, want %v", uniRes.CompBound, wantUniBound)
	}
	// Speedup should approach t_slow/t_optimal-balance ≈ 5·(aggregate
	// speed)/4 within panel-rounding slack; at minimum 1.5×.
	if uniRes.Makespan/panRes.Makespan < 1.5 {
		t.Fatalf("speedup only %v", uniRes.Makespan/panRes.Makespan)
	}
}

func TestSimulateMMSyncStepsSlower(t *testing.T) {
	arr := hetArr()
	nb := 12
	d := panelDist(t, arr, nb)
	opts := Options{Net: sim.Config{Latency: 1e-3, ByteTime: 1e-6}, BlockBytes: 8192}
	pipe, err := SimulateMM(d, arr, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.SyncSteps = true
	syncd, err := SimulateMM(d, arr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if syncd.Makespan < pipe.Makespan-1e-12 {
		t.Fatalf("synchronous %v faster than pipelined %v", syncd.Makespan, pipe.Makespan)
	}
}

func TestSimulateMMKLPaysMoreMessages(t *testing.T) {
	// KL's broken grid pattern shows up as extra broadcast traffic
	// relative to the product-structured panel on the same grid.
	arr := hetArr()
	nb := 28
	opts := Options{Net: sim.Config{Latency: 1e-3}, BlockBytes: 8192}
	kl, err := distribution.NewKL(arr, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	klRes, err := SimulateMM(kl, arr, opts)
	if err != nil {
		t.Fatal(err)
	}
	panRes, err := SimulateMM(panelDist(t, arr, nb), arr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if klRes.Stats.Messages <= panRes.Stats.Messages {
		t.Fatalf("KL messages %d not more than panel %d", klRes.Stats.Messages, panRes.Stats.Messages)
	}
}

func TestSimulateMMBroadcastKindsZeroComm(t *testing.T) {
	arr := hetArr()
	d := panelDist(t, arr, 12)
	var base float64
	for i, kind := range []sim.BroadcastKind{sim.StarBroadcast, sim.RingBroadcast, sim.TreeBroadcast} {
		res, err := SimulateMM(d, arr, Options{Broadcast: kind})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = res.Makespan
		} else if math.Abs(res.Makespan-base) > 1e-9 {
			t.Fatalf("broadcast kind %d changed zero-comm makespan: %v vs %v", kind, res.Makespan, base)
		}
	}
}

func TestSimulateMMSharedBusSlower(t *testing.T) {
	arr := hetArr()
	d := panelDist(t, arr, 12)
	cfg := sim.Config{Latency: 5e-3, ByteTime: 1e-6}
	sw, err := SimulateMM(d, arr, Options{Net: cfg, BlockBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	cfg.SharedBus = true
	bus, err := SimulateMM(d, arr, Options{Net: cfg, BlockBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	if bus.Makespan < sw.Makespan-1e-12 {
		t.Fatalf("bus %v faster than switched %v", bus.Makespan, sw.Makespan)
	}
}

func TestSimulateMMValidation(t *testing.T) {
	arr := hetArr()
	d, _ := distribution.UniformBlockCyclic(2, 2, 4, 6)
	if _, err := SimulateMM(d, arr, Options{}); err == nil {
		t.Fatal("non-square block matrix accepted")
	}
	d2, _ := distribution.UniformBlockCyclic(2, 2, 4, 4)
	if _, err := SimulateMM(d2, grid.MustNew([][]float64{{1, 2, 3}}), Options{}); err == nil {
		t.Fatal("mismatched arrangement accepted")
	}
}

func TestSimulateMMHomogeneousBalanced(t *testing.T) {
	// On a homogeneous grid the uniform distribution is optimal: zero-comm
	// makespan equals total work / processor count.
	arr := grid.MustNew([][]float64{{1, 1}, {1, 1}})
	nb := 8
	d, _ := distribution.UniformBlockCyclic(2, 2, nb, nb)
	res, err := SimulateMM(d, arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(nb) * float64(nb*nb) / 4
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Fatalf("homogeneous makespan %v, want %v", res.Makespan, want)
	}
}
