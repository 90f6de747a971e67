package hetgrid

import (
	"fmt"
	"io"

	"hetgrid/internal/engine"
	"hetgrid/internal/matrix"
	"hetgrid/internal/obs"
	"hetgrid/internal/run"
	"hetgrid/internal/sim"
)

// BroadcastKind selects the collective algorithm used for the row/column
// panel broadcasts — by the real distributed engine and by the simulator
// alike, so a simulated schedule and a real execution can be compared on
// the identical communication pattern. It is the simulator's own enum; the
// zero value is FlatBroadcast in every context, and String renders the
// names ParseBroadcast accepts.
type BroadcastKind = sim.BroadcastKind

const (
	// FlatBroadcast sends from the source to each receiver directly (star).
	// Its message count equals the closed-form communication volumes of
	// internal/distribution.
	FlatBroadcast = sim.FlatBroadcast
	// RingBroadcast forwards along a chain of receivers.
	RingBroadcast = sim.RingBroadcast
	// PipelinedRingBroadcast splits the payload into segments pipelined
	// along the ring, overlapping the hops.
	PipelinedRingBroadcast = sim.PipelinedRingBroadcast
	// TreeBroadcast uses a binomial tree: everyone who has the data
	// forwards it each round.
	TreeBroadcast = sim.TreeBroadcast
)

// execOptions configures a real distributed execution.
//
// The Distributed* entry points take functional options (WithBroadcast,
// WithSpans, WithParallelism, WithFaults, …), each of which sets one field
// of this struct.
type execOptions struct {
	// Broadcast selects the collective algorithm; the zero value is the
	// flat broadcast, whose message counts match the analytic volumes.
	Broadcast BroadcastKind
	// Parallelism is the number of goroutines each rank may use for its own
	// block computations (intra-rank parallelism on multicore nodes). Work is
	// partitioned by disjoint outputs — whole blocks in the engine kernels,
	// output-row bands inside large GEMMs — so results are bit-identical to a
	// serial run for any value. 0 or 1 means serial.
	Parallelism int
	// Numerics selects the floating-point contract of the ranks' block
	// computations: Strict (the zero value) keeps results bit-identical
	// across code paths, Fast unlocks the FMA-fused micro-kernel under the
	// relaxed componentwise error bound documented on Numerics. Pivot and
	// reflector decisions stay Strict in both modes.
	Numerics Numerics
	// Faults enables deterministic fault injection and (optionally)
	// checkpoint-based recovery; see FaultOptions.
	Faults *FaultOptions
	// Drift enables online rebalancing under load drift; see DriftPolicy
	// and WithDriftRebalance. Implies span recording (the detector feeds
	// on busy-time gauges).
	Drift *DriftPolicy
	// Spans records the hierarchical span timeline (rank → kernel step →
	// compute/phase/recv-wait spans, plus per-message send spans);
	// ExecStats.Spans, BusyTime and Imbalance are derived from it.
	Spans bool
	// Metrics mirrors engine counters (transport traffic, timeouts, kernel
	// steps, fault activity) and the run's load-imbalance gauge into the
	// registry as Prometheus series, live while the run executes. Implies
	// span recording (the imbalance gauge needs busy times). nil disables
	// all registry mirroring.
	Metrics *Metrics
	// Transport is the caller's fabric (WithTransport). It serves exactly
	// one attempt, whole or partial (exposing LocalRanks() []int, it hosts
	// only those ranks here); nil gives every attempt fresh in-process
	// mailboxes.
	Transport Transport
}

// Metrics is a Prometheus-text-format metrics registry (see internal/obs):
// counters, gauges and histograms with atomic hot paths, rendered by
// WriteTo/Handler/ServeMux and served by gridsim -metrics-addr.
type Metrics = obs.Registry

// NewMetrics returns an empty metrics registry to pass via WithMetrics.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// Span is one timed, rank-attributed interval of an execution — the one
// record simulated (SimResult.Spans, virtual time units) and real
// (ExecStats.Spans, seconds) runs share; see WriteChromeTrace and Gantt.
type Span = obs.Span

// WriteChromeTrace writes spans as a Chrome tracing JSON array (load it in
// chrome://tracing or https://ui.perfetto.dev): one slice per span of
// every kind, one thread per rank.
func WriteChromeTrace(w io.Writer, spans []Span) error { return obs.WriteChromeTrace(w, spans) }

// RankStats is one rank's message/byte traffic (engine counters).
type RankStats = engine.RankStats

// PairStats is the traffic of one ordered (src,dst) rank pair.
type PairStats = engine.PairStats

// ExecStats reports the real traffic of a distributed execution (kernel
// plus scatter/gather): world totals, per-rank and per-pair breakdowns,
// and optionally the span timeline. The per-rank sent counters sum
// exactly to Messages and Bytes. When the execution recovered from rank
// failures, the traffic counters describe the final (successful) attempt
// only; Faults aggregates the fault activity across all attempts.
type ExecStats struct {
	Messages, Bytes int
	// Ranks holds per-rank counters, indexed by flat rank pi·q+pj.
	Ranks []RankStats
	// Pairs[src][dst] counts the messages and bytes src sent to dst.
	Pairs [][]PairStats
	// Spans is the hierarchical span timeline (nil unless spans, metrics
	// or drift rebalancing were requested): per-rank kernel-step spans with
	// their compute, phase and recv-wait children, plus per-message send
	// spans. Write it with WriteChromeTrace for chrome://tracing.
	Spans []Span
	// BusyTime is each rank's accumulated compute seconds, summed from its
	// compute spans (nil without span recording).
	BusyTime []float64
	// Imbalance is max/mean of BusyTime — the measured form of the paper's
	// Obj1 load balance (1 = perfect; 0 without span recording).
	Imbalance float64
	// Faults reports fault injection and recovery activity (nil when no
	// faults were configured).
	Faults *FaultStats
	// Drift reports the drift-rebalancing loop's activity (nil unless
	// WithDriftRebalance was set), aggregated across attempts.
	Drift *DriftStats
}

// runDistributed is the shared execution path of every Distributed* entry
// point: map the options onto the run supervisor's state and configuration,
// let it execute (internal/run: attempt, and on a rank failure or a drift
// verdict replan and resume) and map the statistics back. Inputs are read
// where rank 0 is hosted; the engine rejects a matrix that does not tile
// into the distribution's block grid there and aborts the world.
func runDistributed(d Distribution, kern Kernel, blockSize int, inputs []*Matrix,
	opts execOptions) (*Matrix, [][]float64, *ExecStats, error) {

	if err := opts.Broadcast.Validate(); err != nil {
		return nil, nil, nil, fmt.Errorf("hetgrid: %w", err)
	}
	p, q := d.Dims()
	s := run.State{Kernel: kern, Dist: d}
	ropts := run.Options{Engine: engine.Options{
		Broadcast:   opts.Broadcast,
		Record:      opts.Spans || opts.Metrics != nil || opts.Drift != nil,
		Parallelism: opts.Parallelism,
		Numerics:    opts.Numerics,
		Metrics:     opts.Metrics,
	}}
	if fo := opts.Faults; fo != nil {
		if err := fo.apply(&s, &ropts); err != nil {
			return nil, nil, nil, err
		}
	}
	if dp := opts.Drift; dp != nil {
		if err := dp.apply(&s, &ropts); err != nil {
			return nil, nil, nil, err
		}
	}
	if s.Times == nil {
		s.Times = make([]float64, p*q)
		for i := range s.Times {
			s.Times[i] = 1
		}
	}

	res, err := run.Run(s, run.Job{BlockSize: blockSize, Inputs: inputs}, opts.Transport, ropts)
	if err != nil {
		return nil, nil, nil, err
	}
	stats := execStats(res.World, opts)
	if opts.Faults != nil {
		stats.Faults = &res.Faults
	}
	if opts.Drift != nil {
		stats.Drift = &res.Drift
		publishDriftMetrics(opts.Metrics, stats.Drift)
	}
	return res.Out, res.Taus, stats, nil
}

// execStats snapshots a finished world's counters and derives the
// span-based load-balance measurements: per-rank busy time and the
// max/mean imbalance — the paper's Obj1 as achieved, not predicted. With a
// metrics registry attached, the imbalance and per-rank busy gauges are
// published for scraping.
func execStats(w *engine.World, opts execOptions) *ExecStats {
	stats := &ExecStats{
		Messages: w.Messages(),
		Bytes:    w.Bytes(),
		Ranks:    w.RankStats(),
		Pairs:    w.PairStats(),
		Spans:    w.Spans(),
	}
	if reg := opts.Metrics; reg != nil {
		reg.Gauge("hetgrid_numerics_mode", "", "numerics contract of the last run (0 = strict, 1 = fast)").Set(float64(opts.Numerics))
		// Fan-out series are callback-backed: they read the block
		// fan-out's process-wide counters at every scrape instead of a
		// snapshot from run end.
		reg.FuncGauge("hetgrid_pool_workers", "", "goroutines the block fan-out has spawned whose chunk is still running", func() float64 {
			n, _, _, _ := matrix.PoolStats()
			return float64(n)
		})
		reg.FuncGauge("hetgrid_pool_tasks_submitted", "", "block fan-out chunks run on spawned goroutines since process start", func() float64 {
			_, sub, _, _ := matrix.PoolStats()
			return float64(sub)
		})
		reg.FuncGauge("hetgrid_pool_tasks_inline", "", "block fan-out chunks run on the calling goroutine by parallel calls since process start", func() float64 {
			_, _, inl, _ := matrix.PoolStats()
			return float64(inl)
		})
		reg.FuncGauge("hetgrid_numerics_fast_dispatch", "", "GEMM calls dispatched to the FMA-fused fast path since process start", func() float64 {
			_, _, _, fast := matrix.PoolStats()
			return float64(fast)
		})
	}
	if busy := w.BusyTimes(); busy != nil {
		stats.BusyTime = busy
		stats.Imbalance = obs.Imbalance(busy)
		if reg := opts.Metrics; reg != nil {
			reg.Gauge("hetgrid_load_imbalance_ratio", "", "measured max/mean per-rank busy time of the last run (paper Obj1; 1 = perfect balance)").Set(stats.Imbalance)
			for i, b := range busy {
				reg.Gauge("hetgrid_rank_busy_seconds", obs.Labels("rank", fmt.Sprint(i)), "accumulated compute seconds per rank in the last run").Set(b)
			}
		}
	}
	return stats
}

// DistributedMultiply executes C = A·B on the distribution for real: one
// goroutine per grid processor, each holding only its own blocks, all data
// moving through messages. blockSize r must tile the matrices into the
// distribution's block grid. The caller sees a serial API; the concurrency
// is internal. Behavior is configured with functional options
// (WithBroadcast, WithSpans, WithParallelism, WithFaults).
func DistributedMultiply(d Distribution, a, b *Matrix, blockSize int, opts ...Option) (*Matrix, *ExecStats, error) {
	out, _, stats, err := runDistributed(d, MatMul, blockSize, []*Matrix{a, b}, applyOptions(opts).exec)
	return out, stats, err
}
