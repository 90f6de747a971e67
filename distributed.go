package hetgrid

import (
	"errors"
	"fmt"

	"hetgrid/internal/adapt"
	"hetgrid/internal/distribution"
	"hetgrid/internal/engine"
	"hetgrid/internal/matrix"
	"hetgrid/internal/obs"
	"hetgrid/internal/sim"
)

// BroadcastKind selects the collective algorithm used for the row/column
// panel broadcasts — by the real distributed engine and by the simulator
// alike, so a simulated schedule and a real execution can be compared on
// the identical communication pattern.
type BroadcastKind int

const (
	// BroadcastAuto picks the context's default: the ring broadcast the
	// simulator has always used for simulations, the flat broadcast for
	// real executions.
	BroadcastAuto BroadcastKind = iota
	// FlatBroadcast sends from the source to each receiver directly (star).
	// Its message count equals the analytic communication volumes
	// (CommVolumeOf).
	FlatBroadcast
	// RingBroadcast forwards along a chain of receivers.
	RingBroadcast
	// PipelinedRingBroadcast splits the payload into segments pipelined
	// along the ring, overlapping the hops.
	PipelinedRingBroadcast
	// TreeBroadcast uses a binomial tree: everyone who has the data
	// forwards it each round.
	TreeBroadcast
)

func (b BroadcastKind) String() string {
	switch b {
	case BroadcastAuto:
		return "auto"
	case FlatBroadcast:
		return "flat"
	case RingBroadcast:
		return "ring"
	case PipelinedRingBroadcast:
		return "pipeline"
	case TreeBroadcast:
		return "tree"
	default:
		return fmt.Sprintf("broadcast(%d)", int(b))
	}
}

// kind maps to the simulator's enum, with def filling BroadcastAuto.
func (b BroadcastKind) kind(def sim.BroadcastKind) (sim.BroadcastKind, error) {
	switch b {
	case BroadcastAuto:
		return def, nil
	case FlatBroadcast:
		return sim.StarBroadcast, nil
	case RingBroadcast:
		return sim.RingBroadcast, nil
	case PipelinedRingBroadcast:
		return sim.SegmentedRingBroadcast, nil
	case TreeBroadcast:
		return sim.TreeBroadcast, nil
	default:
		return 0, fmt.Errorf("hetgrid: unknown broadcast kind %d", int(b))
	}
}

// ExecOptions configures a real distributed execution.
//
// The Distributed* entry points take functional options (WithBroadcast,
// WithTrace, WithParallelism, WithFaults, …), each of which sets one field
// of this struct.
type ExecOptions struct {
	// Broadcast selects the collective algorithm; BroadcastAuto is the flat
	// broadcast, whose message counts match the analytic volumes.
	Broadcast BroadcastKind
	// Trace records timestamped per-message and per-compute events;
	// ExecStats.Trace then carries them in the simulator's trace format
	// (Gantt, chrome://tracing).
	Trace bool
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
	// on busy-time gauges). Requires the in-process fabric.
	Drift *DriftPolicy
	// Spans records the hierarchical span timeline (rank → kernel step →
	// compute/phase spans, plus per-message send spans); ExecStats.Spans,
	// BusyTime and Imbalance are derived from it. WithTrace implies the
	// same recording — Trace is the flat chrome-trace view of the spans.
	Spans bool
	// Metrics mirrors engine counters (transport traffic, timeouts,
	// retries, kernel steps, fault activity) and the run's load-imbalance
	// gauge into the registry as Prometheus series, live while the run
	// executes. Implies span recording (the imbalance gauge needs busy
	// times). nil disables all registry mirroring.
	Metrics *Metrics
	// Transport injects a custom message fabric spanning the grid's p·q
	// ranks; nil uses the in-process mailbox fabric. A fabric exposing
	// LocalRanks() []int (a multi-process fabric hosting a rank subset)
	// restricts which ranks this process spawns. Incompatible with fault
	// recovery — a replanned world needs a fresh fabric; see
	// TransportFactory.
	Transport Transport
	// TransportFactory builds the fabric per execution attempt for the
	// attempt's rank count — the recovery-compatible form of Transport.
	// When both are set the factory wins.
	TransportFactory func(ranks int) (Transport, error)
}

// Metrics is a Prometheus-text-format metrics registry (see internal/obs):
// counters, gauges and histograms with atomic hot paths, rendered by
// WriteTo/Handler/ServeMux and served by gridsim -metrics-addr.
type Metrics = obs.Registry

// NewMetrics returns an empty metrics registry to pass via WithMetrics.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// Span is one timed, rank-attributed interval of a distributed execution;
// see ExecStats.Spans.
type Span = obs.Span

// RankStats is one rank's message/byte traffic (engine counters).
type RankStats = engine.RankStats

// PairStats is the traffic of one ordered (src,dst) rank pair.
type PairStats = engine.PairStats

// Trace is a timestamped event log shared between simulated and real
// executions; see WriteChromeTrace and Gantt.
type Trace = sim.Trace

// ExecStats reports the real traffic of a distributed execution (kernel
// plus scatter/gather): world totals, per-rank and per-pair breakdowns,
// and optionally a timestamped trace. The per-rank sent counters sum
// exactly to Messages and Bytes. When the execution recovered from rank
// failures, the traffic counters describe the final (successful) attempt
// only; Faults aggregates the fault activity across all attempts.
type ExecStats struct {
	Messages, Bytes int
	// Ranks holds per-rank counters, indexed by flat rank pi·q+pj.
	Ranks []RankStats
	// Pairs[src][dst] counts the messages and bytes src sent to dst.
	Pairs [][]PairStats
	// Trace is the recorded event log (nil unless tracing was requested);
	// write it with Trace.WriteChromeTrace for chrome://tracing. It is a
	// flat view over Spans (compute and send spans sorted by start time).
	Trace *Trace
	// Spans is the hierarchical span timeline (nil unless spans, tracing
	// or metrics were requested): per-rank kernel-step spans with their
	// compute and phase children, plus per-message send spans.
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

// validateTiling checks up front that the matrix tiles into the
// distribution's block grid — inside engine.Run a failure on rank 0 alone
// would leave the other ranks blocked in Recv.
func validateTiling(d Distribution, m *Matrix, blockSize int) error {
	nbr, nbc := d.Blocks()
	r, c := m.Dims()
	if blockSize <= 0 || r != nbr*blockSize || c != nbc*blockSize {
		return fmt.Errorf("hetgrid: %d×%d matrix does not tile into %d×%d blocks of size %d", r, c, nbr, nbc, blockSize)
	}
	return nil
}

// checkpoint is a committed recovery point: the working matrix gathered at
// rank 0 with the first `step` kernel steps applied (plus, for QR, the tau
// scalings those steps produced).
type checkpoint struct {
	step  int
	work  *Matrix
	taus  [][]float64
	count int // checkpoints committed during the attempt
}

// attemptResult is what one world execution hands back to the driver.
type attemptResult struct {
	out   *Matrix
	taus  [][]float64
	world *engine.World
	ck    *checkpoint
	err   error

	// Drift outcome (only set when the attempt ran with a drift context):
	// the attempt's detector counters, and — when the attempt ended in a
	// *driftMigrate — the committed migration checkpoint, the replanned
	// layout, the cycle-time estimates it was planned for, and the
	// decision's size and projected saving. The migration itself is only
	// counted by the driver loop when it commits: a rank failure in the
	// same attempt wins the error priority and voids the verdict.
	drift       *DriftStats
	driftCk     *checkpoint
	driftDist   Distribution
	driftTimes  []float64
	driftMoved  int
	driftSaving float64
}

// runAttempt spawns one world over dist and executes the kernel from
// startK, restoring the working matrix from resume when non-nil. With
// recovery enabled it installs a step hook that gathers the working matrix
// to rank 0 every checkpointEvery steps; with a drift context it installs
// the drift-observation protocol (busy gauges to rank 0 at window
// boundaries, detector + migration-cost evaluation there, verdict
// broadcast, and on migrate a checkpoint gather followed by a collective
// *driftMigrate return).
func runAttempt(dist Distribution, kern Kernel, blockSize int, inputs []*Matrix,
	opts ExecOptions, bk sim.BroadcastKind, crashes []CrashPoint, startK int, resume *checkpoint, da *driftAttempt) attemptResult {

	fo := opts.Faults
	record := opts.Trace || opts.Spans || opts.Metrics != nil || da != nil
	eopts := engine.Options{Broadcast: bk, Record: record, Parallelism: opts.Parallelism, Numerics: opts.Numerics, Metrics: opts.Metrics}
	p, q := dist.Dims()
	eopts.Transport = opts.Transport
	if opts.TransportFactory != nil {
		t, err := opts.TransportFactory(p * q)
		if err != nil {
			return attemptResult{err: fmt.Errorf("hetgrid: transport factory: %w", err)}
		}
		eopts.Transport = t
	}
	if lr, ok := eopts.Transport.(interface{ LocalRanks() []int }); ok {
		eopts.LocalRanks = lr.LocalRanks()
	}
	if fo != nil {
		eopts.RecvTimeout = fo.recvTimeout()
		eopts.MaxRetries = fo.MaxRetries
		eopts.Faults = &engine.FaultConfig{
			Seed:      fo.Seed,
			DropProb:  fo.DropProb,
			DelayProb: fo.DelayProb,
			Delay:     fo.Delay,
			Crashes:   crashes,
			Slowdowns: fo.Slowdowns,
		}
	}

	nb, _ := dist.Blocks()
	res := attemptResult{ck: &checkpoint{}}

	// Drift state lives at rank 0: the detector, the previous window's
	// cumulative busy gauges and the step the last window closed at. The
	// variables are captured by every rank's closure but only rank 0's
	// goroutine touches them.
	var det *adapt.Detector
	var lay *distribution.Layout
	var lastBusy []float64
	lastK := startK
	wl := kernelRegion(kern)
	if da != nil {
		var err error
		det, err = adapt.NewDetector(da.times, da.det)
		if err != nil {
			return attemptResult{err: err}
		}
		if lay, err = distribution.NewLayout(dist); err != nil {
			return attemptResult{err: err}
		}
		lastBusy = make([]float64, p*q)
		res.drift = &DriftStats{}
	}
	world, err := engine.RunOpts(p*q, eopts, func(c *engine.Comm) error {
		// Read-only inputs (the multiplication's A and B); the
		// factorizations work in place on their single input.
		var ro []*engine.BlockStore
		if kern == MatMul {
			for _, m := range inputs {
				s, err := engine.Scatter(c, dist, onRank0(c, m), blockSize)
				if err != nil {
					return err
				}
				ro = append(ro, s)
			}
		}

		// The working store: restored from the checkpoint on resume,
		// otherwise the zero accumulator (MM) or the input itself.
		var work *engine.BlockStore
		var err error
		switch {
		case resume != nil:
			work, err = engine.Scatter(c, dist, onRank0(c, resume.work), blockSize)
		case kern == MatMul:
			work = engine.ZeroStore(c, dist, blockSize)
		default:
			work, err = engine.Scatter(c, dist, onRank0(c, inputs[0]), blockSize)
		}
		if err != nil {
			return err
		}

		// QR's tau scalings accumulate at rank 0, prefilled from the
		// checkpoint on resume.
		var taus [][]float64
		if kern == QR && c.Rank() == 0 {
			taus = make([][]float64, nb)
			if resume != nil {
				copy(taus, resume.taus)
			}
		}

		var hooks []func(k int) error
		if fo != nil && fo.Recover {
			every := fo.checkpointEvery()
			hooks = append(hooks, func(k int) error {
				if k <= startK || k%every != 0 {
					return nil
				}
				// Every rank snapshots its blocks at its own step-k entry
				// (all updates of steps < k applied, none of step k), so the
				// gathered matrix is the exact global state after step k-1.
				full, err := engine.GatherTag(c, dist, work, fmt.Sprintf("ckpt/%d", k))
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					res.ck.step, res.ck.work = k, full
					if kern == QR {
						res.ck.taus = append([][]float64(nil), taus[:k]...)
					}
					res.ck.count++
				}
				return nil
			})
		}
		if da != nil {
			hooks = append(hooks, func(k int) error {
				if k <= startK || (k-startK)%da.det.Window != 0 {
					return nil
				}
				n := c.N()
				// 1. Every rank ships its cumulative busy gauge to rank 0.
				obsTag := fmt.Sprintf("drift/obs/%d", k)
				c.Send(0, obsTag, scalarMat(c.BusySeconds()))
				// 2. Rank 0 folds the window into the detector and, when
				// sustained drift arms it, runs the migration-cost
				// evaluation; the verdict is broadcast so every rank takes
				// the same branch.
				verdictTag := fmt.Sprintf("drift/verdict/%d", k)
				var rank0Err error
				if c.Rank() == 0 {
					cur := make([]float64, n)
					for r := 0; r < n; r++ {
						cur[r] = c.Recv(r, obsTag).At(0, 0)
					}
					delta := make([]float64, n)
					for r := range cur {
						delta[r] = cur[r] - lastBusy[r]
					}
					segWork := adapt.SegmentWork(lay, wl, lastK, k)
					copy(lastBusy, cur)
					lastK = k
					verdict := 0.0
					o, err := det.Observe(delta, segWork)
					if err != nil {
						rank0Err = err
					} else {
						res.drift.Windows++
						if o.Trigger && da.budget > 0 {
							res.drift.Evaluations++
							est := det.EstimatedTimes()
							dec, err := evaluateDrift(dist, est, wl, k, da.pol)
							if err != nil {
								rank0Err = err
							} else if dec.Redistribute {
								verdict = 1
								res.driftDist = dec.NewDist
								res.driftTimes = est
								res.driftMoved = dec.MovedBlocks
								res.driftSaving = dec.StayCost - dec.MoveCost
							}
						}
					}
					for r := 0; r < n; r++ {
						c.Send(r, verdictTag, scalarMat(verdict))
					}
				}
				v := c.Recv(0, verdictTag).At(0, 0)
				if rank0Err != nil {
					return rank0Err
				}
				if v < 1 {
					return nil
				}
				// 3. Migrate: checkpoint the working matrix at rank 0, then
				// hold every rank on a done-barrier so the gather completes
				// before anyone tears the world down, and finally return the
				// collective migration sentinel.
				full, err := engine.GatherTag(c, dist, work, fmt.Sprintf("driftckpt/%d", k))
				if err != nil {
					return err
				}
				doneTag := fmt.Sprintf("drift/done/%d", k)
				if c.Rank() == 0 {
					ck := &checkpoint{step: k, work: full}
					if kern == QR {
						ck.taus = append([][]float64(nil), taus[:k]...)
					}
					res.driftCk = ck
					for r := 0; r < n; r++ {
						c.Send(r, doneTag, scalarMat(1))
					}
				}
				c.Recv(0, doneTag)
				return &driftMigrate{step: k}
			})
		}
		if len(hooks) > 0 {
			c.SetStepHook(func(k int) error {
				for _, h := range hooks {
					if err := h(k); err != nil {
						return err
					}
				}
				return nil
			})
		}

		switch kern {
		case MatMul:
			err = engine.MMResume(c, dist, ro[0], ro[1], work, startK)
		case LU:
			err = engine.LUResume(c, dist, work, startK)
		case Cholesky:
			err = engine.CholeskyResume(c, dist, work, startK)
		case QR:
			err = engine.QRResume(c, dist, work, startK, func(k int, tau []float64) {
				taus[k] = tau
			})
		default:
			err = fmt.Errorf("hetgrid: unknown kernel %v", kern)
		}
		if err != nil {
			return err
		}
		full, err := engine.Gather(c, dist, work)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			res.out = full
			res.taus = taus
		}
		return nil
	})
	res.world = world
	res.err = err
	if res.ck.work == nil {
		res.ck = nil
	}
	return res
}

// runDistributed is the shared execution path of every Distributed* entry
// point: validate the tilings, spawn one goroutine per grid processor,
// scatter the inputs, run the kernel, gather the result at rank 0 and
// collect the traffic statistics. With fault recovery enabled it is an
// attempt loop: a rank failure replans the surviving processors
// (PlanSurvivors) and resumes from the last committed checkpoint — the
// arithmetic is distribution-independent, so the recovered result is
// bit-identical to a fault-free run.
func runDistributed(d Distribution, kern Kernel, blockSize int, inputs []*Matrix,
	opts ExecOptions) (*Matrix, [][]float64, *ExecStats, error) {

	for _, m := range inputs {
		if err := validateTiling(d, m, blockSize); err != nil {
			return nil, nil, nil, err
		}
	}
	bk, err := opts.Broadcast.kind(sim.StarBroadcast)
	if err != nil {
		return nil, nil, nil, err
	}

	fo := opts.Faults
	var fstats *FaultStats
	var crashes []CrashPoint
	var curTimes []float64
	if fo != nil {
		p, q := d.Dims()
		if fo.Times != nil && len(fo.Times) != p*q {
			return nil, nil, nil, fmt.Errorf("hetgrid: %d fault cycle-times for a %d×%d grid", len(fo.Times), p, q)
		}
		fstats = &FaultStats{}
		crashes = fo.Crashes
		curTimes = fo.Times
	}

	var da *driftAttempt
	var dstats *DriftStats
	if drift := opts.Drift; drift != nil {
		if opts.Transport != nil || opts.TransportFactory != nil {
			return nil, nil, nil, fmt.Errorf("hetgrid: drift rebalancing requires the in-process fabric — the migration decision is coordinated at rank 0 of a single process")
		}
		p, q := d.Dims()
		if drift.Times != nil && len(drift.Times) != p*q {
			return nil, nil, nil, fmt.Errorf("hetgrid: %d drift cycle-times for a %d×%d grid", len(drift.Times), p, q)
		}
		times := drift.Times
		if times == nil && fo != nil && fo.Times != nil {
			times = fo.Times
		}
		if times == nil {
			times = make([]float64, p*q)
			for i := range times {
				times[i] = 1
			}
		}
		det := drift.detectorPolicy()
		da = &driftAttempt{pol: *drift, det: det, times: times, budget: det.MaxMigrations}
		dstats = &DriftStats{}
	}

	dist := d
	startK := 0
	var resume *checkpoint

	for {
		res := runAttempt(dist, kern, blockSize, inputs, opts, bk, crashes, startK, resume, da)
		if fstats != nil && res.world != nil {
			fstats.Attempts++
			fstats.Timeouts += res.world.Timeouts()
			fstats.Retries += res.world.Retries()
			if fc := res.world.FaultCounters(); fc != nil {
				fstats.Dropped += fc.Dropped
				fstats.Delayed += fc.Delayed
				fstats.Retransmitted += fc.Retransmitted
				fstats.Crashes += len(fc.Crashed)
				fstats.Slowdowns += len(fc.Slowed)
			}
			if res.ck != nil {
				fstats.Checkpoints += res.ck.count
			}
		}
		if dstats != nil && res.drift != nil {
			dstats.add(res.drift)
		}
		if res.err == nil {
			stats := execStats(res.world, opts)
			stats.Faults = fstats
			stats.Drift = dstats
			publishDriftMetrics(opts.Metrics, dstats)
			return res.out, res.taus, stats, nil
		}

		var dm *driftMigrate
		if errors.As(res.err, &dm) {
			if res.driftCk == nil || res.driftDist == nil {
				return nil, nil, nil, fmt.Errorf("hetgrid: drift migration at step %d without a committed checkpoint", dm.step)
			}
			// Migrate: same ranks, new shares planned for the estimated
			// cycle-times; resume from the migration checkpoint.
			dist = res.driftDist
			da.times = res.driftTimes
			da.budget--
			dstats.Migrations++
			dstats.MovedBlocks += res.driftMoved
			dstats.PredictedSaving += res.driftSaving
			curTimes = res.driftTimes
			if res.world != nil {
				crashes = res.world.RemainingCrashes()
			}
			startK, resume = res.driftCk.step, res.driftCk
			continue
		}

		var rf *RankFailure
		if fo == nil || !fo.Recover || !errors.As(res.err, &rf) {
			return nil, nil, nil, res.err
		}
		if opts.Transport != nil && opts.TransportFactory == nil {
			return nil, nil, nil, fmt.Errorf("hetgrid: recovery needs WithTransportFactory — a fixed transport cannot serve the replanned (smaller) world: %w", res.err)
		}
		if fstats.Recoveries >= fo.maxRecoveries() {
			return nil, nil, nil, fmt.Errorf("hetgrid: recovery budget exhausted after %d attempts: %w", fstats.Attempts, res.err)
		}

		// Replan the survivors onto a fresh grid and resume from the last
		// committed checkpoint (from scratch when none was taken).
		p, q := dist.Dims()
		st, err := survivorTimes(curTimes, p*q, rf.Rank)
		if err != nil {
			return nil, nil, nil, err
		}
		if len(st) == 0 {
			return nil, nil, nil, res.err
		}
		nbr, nbc := dist.Blocks()
		newDist, choice, err := PlanSurvivors(st, nbr, nbc, kern)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("hetgrid: replanning after %v: %w", res.err, err)
		}
		newTimes := make([]float64, len(choice.Selected))
		for i, idx := range choice.Selected {
			newTimes[i] = st[idx]
		}
		dist, curTimes = newDist, newTimes
		if da != nil {
			// The drift detector restarts per attempt; its baseline is the
			// replanned world's cycle-times.
			da.times = newTimes
		}
		if res.world != nil {
			crashes = res.world.RemainingCrashes()
		}
		if res.ck != nil {
			startK, resume = res.ck.step, res.ck
			fstats.ResumedSteps += res.ck.step
		} else {
			startK, resume = 0, nil
		}
		fstats.Recoveries++
	}
}

// execStats snapshots a finished world's counters and derives the
// span-based load-balance measurements: per-rank busy time and the
// max/mean imbalance — the paper's Obj1 as achieved, not predicted. With a
// metrics registry attached, the imbalance and per-rank busy gauges are
// published for scraping.
func execStats(w *engine.World, opts ExecOptions) *ExecStats {
	stats := &ExecStats{
		Messages: w.Messages(),
		Bytes:    w.Bytes(),
		Ranks:    w.RankStats(),
		Pairs:    w.PairStats(),
		Spans:    w.Spans(),
	}
	if opts.Trace {
		stats.Trace = w.Trace()
	}
	if reg := opts.Metrics; reg != nil {
		reg.Gauge("hetgrid_numerics_mode", "", "numerics contract of the last run (0 = strict, 1 = fast)").Set(float64(opts.Numerics))
		// Pool series are callback-backed: they read the process-wide
		// compute pool's live counters at every scrape instead of a
		// snapshot from run end.
		reg.FuncGauge("hetgrid_pool_workers", "", "resident goroutines of the shared compute pool (0 until the first parallel call)", func() float64 {
			n, _, _, _ := matrix.PoolStats()
			return float64(n)
		})
		reg.FuncGauge("hetgrid_pool_tasks_submitted", "", "tasks handed to pool workers since process start", func() float64 {
			_, sub, _, _ := matrix.PoolStats()
			return float64(sub)
		})
		reg.FuncGauge("hetgrid_pool_tasks_inline", "", "tasks run inline by the submitter because the pool queue was full", func() float64 {
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
// (WithBroadcast, WithTrace, WithParallelism, WithFaults).
func DistributedMultiply(d Distribution, a, b *Matrix, blockSize int, opts ...Option) (*Matrix, *ExecStats, error) {
	out, _, stats, err := runDistributed(d, MatMul, blockSize, []*Matrix{a, b}, applyOptions(opts).exec)
	return out, stats, err
}

// DistributedFactorLU executes the unpivoted right-looking LU on the
// distribution with one goroutine per processor, returning the packed
// factors (see SplitLU). Supply matrices that are safely factorable without
// pivoting (e.g. diagonally dominant). Behavior is configured with
// functional options (WithBroadcast, WithTrace, WithParallelism,
// WithFaults).
func DistributedFactorLU(d Distribution, a *Matrix, blockSize int, opts ...Option) (*Matrix, *ExecStats, error) {
	out, _, stats, err := runDistributed(d, LU, blockSize, []*Matrix{a}, applyOptions(opts).exec)
	return out, stats, err
}

// DistributedFactorCholesky executes the distributed Cholesky
// factorization A = L·Lᵀ with one goroutine per processor, returning the
// lower factor. The input must be symmetric positive definite. Behavior is
// configured with functional options.
func DistributedFactorCholesky(d Distribution, a *Matrix, blockSize int, opts ...Option) (*Matrix, *ExecStats, error) {
	out, _, stats, err := runDistributed(d, Cholesky, blockSize, []*Matrix{a}, applyOptions(opts).exec)
	return out, stats, err
}

// DistributedFactorQR executes the distributed blocked Householder QR with
// one goroutine per processor. The returned factorization exposes R and a
// reconstructor for Q, produced by real message-passing execution
// (bit-identical to the replay). Behavior is configured with functional
// options.
func DistributedFactorQR(d Distribution, a *Matrix, blockSize int, opts ...Option) (*QRFactorization, *ExecStats, error) {
	f, stats, err := DistributedFactor(QR, d, a, blockSize, opts...)
	if err != nil {
		return nil, nil, err
	}
	return &QRFactorization{rep: f.qr}, stats, nil
}

// qrOpCounts attributes QR block operations to owners exactly like
// kernels.ReplayQR: panel blocks and trailing blocks of step k charge
// their owner once each.
func qrOpCounts(d Distribution) ([]int, error) {
	lay, err := distribution.NewLayout(d)
	if err != nil {
		return nil, err
	}
	ops := make([]int, lay.Ranks)
	for k := 0; k < lay.NB; k++ {
		for n, blocks := range lay.Blocks(distribution.Trailing, k) {
			ops[n] += len(blocks)
		}
	}
	return ops, nil
}

// onRank0 passes the matrix only to rank 0, as Scatter expects.
func onRank0(c *engine.Comm, m *matrix.Dense) *matrix.Dense {
	if c.Rank() == 0 {
		return m
	}
	return nil
}

// scalarMat wraps one float64 as a 1×1 message payload (the drift
// protocol's gauge and verdict messages).
func scalarMat(v float64) *matrix.Dense {
	m := matrix.New(1, 1)
	m.Set(0, 0, v)
	return m
}
