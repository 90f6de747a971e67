package main

// The benchmark's vocabulary: workload names and why each exists, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics of the traced pass. BENCHMARK.json at the repository root states
// the same lists; a unit test keeps the two in step.

type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"lu-large", "LU N=1536 r=64 on the in-process fabric, Strict: compute-bound (packed GEMM + TRSM), so a kernel gain shows here and a transport change should not"},
	{"mm-fast", "MatMul N=1024 r=32 with Fast numerics: the small block size the engine really runs at, where Fast loses to Strict today"},
	{"qr-mid", "QR N=576 r=32, Strict: nearly all CPU is the Householder apply (QTMul), not GEMM, so a GEMM retune that costs QTMul shows"},
	{"chol-tcp", "Cholesky N=1024 r=32 over two loopback-TCP fabrics, fresh cluster per run: fabric-bound, frame/codec/writer-queue work shows here only"},
	{"lu-recover", "LU N=1024 r=32 with a fail-stop crash of rank 3 at step 16 and checkpoint recovery: exercises checkpoint gathers, survivor replan and resume"},
	{"plan-hot", "2 closed-loop clients POST 32-item batches, keys Zipf(1.1) over 16x the plan cache: decode, key, cache and memoised encode are the work"},
	{"plan-cold", "2 closed-loop clients POST single fresh requests (exact 3x3, heuristic 3x3, 4x4+panel, shape search): every request misses, solvers do the work"},
	{"sim-paper", "the paper's evaluation: 72 simulations over 2 grids x 3 kernels x 3 distributions x 4 broadcasts; guards plan quality and times the simulator"},
}

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// boundTiming is the bound of the two timing metrics. On the shared
// 2-core machine this benchmark was sized on, the median of a 10-s run
// spreads 3–17 % between identical runs (see README.md), so a tighter bound
// would reject unchanged code.
const boundTiming = 0.25

// boundExact is the bound of the deterministic ratios: they repeat bit for
// bit, so any change beyond float noise is a real change of plan quality.
const boundExact = 1e-9

var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", boundTiming},
	{"op_p50_ms", "ms", "lower", boundTiming},
	{"plan_quality", "ratio", "higher", boundExact},
	{"sim_speedup_vs_uniform", "ratio", "higher", boundExact},
	{"sim_speedup_vs_kl", "ratio", "higher", boundExact},
	{"sim_efficiency", "ratio", "higher", boundExact},
}

// Per-layer metrics are non-gating. A layer a workload does not exercise
// reports 0 for its metrics on that workload.
var perLayerDefs = []metricDef{
	// internal/matrix: r×r block operations at the workload's r and numerics.
	{"matrix.gemm_block_gflops", "GF/s", "higher", 0},
	{"matrix.trsm_block_gflops", "GF/s", "higher", 0},
	{"matrix.panel_factor_us", "us", "lower", 0},
	{"matrix.qtmul_block_gflops", "GF/s", "higher", 0},
	{"matrix.serial_s", "s", "lower", 0},
	{"matrix.flops", "count", "lower", 0},
	{"matrix.gflops_effective", "GF/s", "higher", 0},
	{"matrix.parallel_eff", "ratio", "higher", 0},
	{"matrix.fast_dispatches", "count", "higher", 0},
	{"matrix.fast_available", "count", "higher", 0},
	// internal/engine: the harness's own SPMD body, timers at rank 0.
	{"engine.scatter_s", "s", "lower", 0},
	{"engine.kernel_s", "s", "lower", 0},
	{"engine.gather_s", "s", "lower", 0},
	{"engine.msgs", "count", "lower", 0},
	{"engine.bytes", "count", "lower", 0},
	{"engine.msgs_per_step", "count", "lower", 0},
	{"engine.busy_s", "s", "lower", 0},
	{"engine.wait_s", "s", "lower", 0},
	{"engine.imbalance", "ratio", "lower", 0},
	{"engine.pingpong_us", "us", "lower", 0},
	{"engine.bcast_us", "us", "lower", 0},
	// internal/engine/net: the TCP fabric.
	{"engine-net.establish_s", "s", "lower", 0},
	{"engine-net.wire_bytes", "count", "lower", 0},
	{"engine-net.frames", "count", "lower", 0},
	{"engine-net.wire_overhead", "ratio", "lower", 0},
	{"engine-net.pingpong_us", "us", "lower", 0},
	{"engine-net.mb_per_s", "MB/s", "higher", 0},
	{"engine-net.tcp_over_mem", "ratio", "lower", 0},
	// the facade (package hetgrid) and internal/adapt.
	{"hetgrid.overhead_s", "s", "lower", 0},
	{"hetgrid.checkpoint_s", "s", "lower", 0},
	{"hetgrid.recover_s", "s", "lower", 0},
	{"hetgrid.checkpoints", "count", "lower", 0},
	{"hetgrid.resumed_steps", "count", "higher", 0},
	{"hetgrid.attempts", "count", "lower", 0},
	{"hetgrid.allocs_per_run", "count", "lower", 0},
	{"hetgrid.alloc_mb_per_run", "MB", "lower", 0},
	{"adapt.replan_us", "us", "lower", 0},
	// internal/sim and internal/kernels.Simulate*.
	{"sim.pred_wall_s", "s", "lower", 0},
	{"sim.pred_over_measured", "ratio", "lower", 0},
	{"sim.msgs_match", "count", "higher", 0},
	{"sim.simulate_ms", "ms", "lower", 0},
	// internal/core, internal/plan, internal/distribution.
	{"core.exact_us", "us", "lower", 0},
	{"core.trees_visited", "count", "lower", 0},
	{"core.prune_ratio", "ratio", "higher", 0},
	{"core.heuristic_us", "us", "lower", 0},
	{"core.heuristic_iterations", "count", "lower", 0},
	{"plan.solve_exact3x3_us", "us", "lower", 0},
	{"plan.solve_heur4x4panel_us", "us", "lower", 0},
	{"plan.solve_shape16_us", "us", "lower", 0},
	{"plan.key_us", "us", "lower", 0},
	{"distribution.bestpanel_us", "us", "lower", 0},
	{"distribution.distribute_us", "us", "lower", 0},
	{"distribution.panel_efficiency", "ratio", "higher", 0},
	// internal/service and internal/plancache.
	{"service.handler_us", "us", "lower", 0},
	{"service.decode_us", "us", "lower", 0},
	{"service.http_overhead_us", "us", "lower", 0},
	{"service.p99_ms", "ms", "lower", 0},
	{"service.items_per_s", "1/s", "higher", 0},
	{"service.dedup_ratio", "ratio", "higher", 0},
	{"plancache.hit_ratio", "ratio", "higher", 0},
	{"plancache.get_hit_ns", "ns", "lower", 0},
	{"plancache.evictions", "count", "lower", 0},
	{"plancache.shared", "count", "higher", 0},
	// internal/obs, and the harness's own tracing.
	{"obs.trace_overhead", "ratio", "lower", 0},
	{"obs.spans_per_run", "count", "lower", 0},
	{"bench.traced_op_p50_ms", "ms", "lower", 0},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
