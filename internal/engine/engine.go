// Package engine executes the distributed kernels for real: every
// processor of the virtual grid is a goroutine with strictly private block
// storage, and all data moves through tagged point-to-point messages — an
// MPI-like harness in miniature. Where internal/sim predicts timings and
// internal/kernels replays arithmetic serially, engine demonstrates the
// actual distributed-memory execution the paper's distributions are
// designed for: no rank ever touches another rank's blocks, and the final
// result is assembled exclusively from messages.
//
// The package is layered:
//
//	Transport   point-to-point fabric (in-process mailboxes by default),
//	            wrapped by a Meter that keeps per-rank / per-pair traffic
//	            counters and, when recording, one send span per message
//	Collectives row/column panel broadcasts, supporting the same
//	            sim.BroadcastKind algorithms the simulator models, so real
//	            and simulated runs select the identical schedule
//	Kernels     MM / LU / Cholesky / QR written on the collectives, each
//	            one body run by a single step loop from its store's step
//
// Messages are delivered through unbounded per-pair mailboxes, so sends
// never block and the SPMD kernels cannot deadlock on buffer capacity;
// receives block until a matching tag arrives. Traffic counters let tests
// tie the real execution's message counts to the analytic communication
// volumes.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hetgrid/internal/matrix"
	"hetgrid/internal/obs"
	"hetgrid/internal/sim"
)

// Options configures one Run.
type Options struct {
	// Broadcast selects the collective algorithm used by the kernels —
	// the same variants the simulator models (flat, ring, pipelined ring,
	// binomial tree). The zero value is the flat broadcast.
	Broadcast sim.BroadcastKind
	// Record enables the span timeline (per-message enqueue → delivery
	// spans, per-Recv wait spans, kernel steps with their labeled compute
	// and phase sections), retrievable from World.Spans after the run.
	Record bool
	// Parallelism is the number of goroutines each rank may use for its own
	// block computations (intra-rank parallelism on multicore nodes). A
	// step's trailing update packs its operands on the rank's goroutine,
	// then splits only the block products, by whole output blocks, across
	// the workers, so every output element is accumulated by exactly one
	// goroutine in the same k order and every value runs the same path:
	// results are bit-identical to a serial run for any value. 0 or 1 means
	// serial.
	Parallelism int
	// Transport overrides the message fabric; nil uses the in-process
	// mailbox transport.
	Transport Transport
	// LocalRanks restricts which ranks this process hosts: RunOpts spawns a
	// goroutine only for each listed rank, and the Transport must carry the
	// traffic to the ranks hosted elsewhere (the network fabric's job). nil
	// means all n ranks run in this process — the historical single-process
	// behavior.
	LocalRanks []int
	// RecvTimeout bounds every Recv: a peer that delivers nothing within it
	// is declared dead and the world aborts — the failure detector that
	// turns a silent rank death into a clean error instead of a hang. 0
	// disables the deadline (Recv blocks until delivery or abort).
	RecvTimeout time.Duration
	// Faults schedules rank crashes and slowdowns at kernel steps (see
	// FaultConfig); nil schedules none. A silent crash is detected only
	// with RecvTimeout set.
	Faults *FaultConfig
	// Metrics mirrors the engine's counters (transport traffic, timeouts,
	// kernel steps, fault activity) into the registry as scrapeable
	// Prometheus series. nil disables the mirroring: it hands out nil
	// counters, which count nothing and add no allocations to the
	// transport hot loop.
	Metrics *obs.Registry
	// Numerics selects the arithmetic contract of every rank's block
	// computations. The zero value (matrix.Strict) keeps the historical
	// bit-identical-to-serial guarantee; matrix.Fast routes the trailing
	// GEMM/TRSM updates through the FMA-fused kernels under the error-bound
	// contract documented on matrix.Numerics. Panel factorizations (where
	// pivots and reflectors are chosen) always run Strict.
	Numerics matrix.Numerics
}

// World is the communication context shared by all ranks of one Run.
type World struct {
	n     int
	opts  Options
	meter *Meter
	fault *faultSchedule // nil unless Options.Faults
	spans *obs.SpanStore // nil unless Options.Record

	timeouts atomic.Int64

	// Registry mirrors of the detector and step counters; nil (counting
	// nothing) without a registry.
	mTimeouts, mSteps *obs.Counter
}

// Comm is one rank's endpoint.
type Comm struct {
	world    *World
	rank     int
	hookDue  func(k int) bool // the steps stepHook runs at
	stepHook func(k int) error
	// stepSpan is the rank's currently open kernel-step span (0 when spans
	// are off or no step has been entered); compute and phase spans link to
	// it as their parent. Only this rank's goroutine touches it.
	stepSpan obs.SpanID
}

// RunOpts spawns n ranks, each executing body with its own Comm, and waits
// for all of them. The first non-nil error is returned (all ranks still run
// to completion; SPMD bodies are expected to fail collectively or not at
// all). A rank killed by a scheduled crash fault or declared dead by the
// failure detector surfaces as a *RankFailure, which recovery drivers
// unwrap with errors.As.
func RunOpts(n int, opts Options, body func(c *Comm) error) (*World, error) {
	if n <= 0 {
		return nil, fmt.Errorf("engine: invalid rank count %d", n)
	}
	fabric := opts.Transport
	if fabric == nil {
		fabric = NewMemTransport(n)
	}
	reg := opts.Metrics
	var fault *faultSchedule
	if opts.Faults != nil {
		fault = newFaultSchedule(*opts.Faults, reg)
	}
	var spans *obs.SpanStore
	if opts.Record {
		spans = obs.NewSpanStore()
	}
	w := &World{n: n, opts: opts, meter: newMeter(fabric, n, spans, reg), fault: fault, spans: spans,
		mTimeouts: reg.Counter("hetgrid_transport_timeouts_total", "", "Recv deadlines that expired"),
		mSteps:    reg.Counter("hetgrid_kernel_steps_total", "", "kernel panel steps entered across all ranks"),
	}
	local := opts.LocalRanks
	if local == nil {
		local = make([]int, n)
		for i := range local {
			local[i] = i
		}
	}
	for _, r := range local {
		if r < 0 || r >= n {
			return nil, fmt.Errorf("engine: local rank %d outside world of %d", r, n)
		}
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for _, r := range local {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				p := recover()
				if p == nil {
					return
				}
				switch v := p.(type) {
				case *rankCrash:
					errs[rank] = &RankFailure{Rank: rank, Step: v.point.Step}
					if v.point.Silent {
						// The rank dies without telling anyone: peers stay
						// blocked until the failure detector times out.
						return
					}
					w.close(&RemoteAbort{Rank: rank, Reason: fmt.Sprintf("crashed at step %d", v.point.Step)})
				case *peerDead:
					errs[rank] = &RankFailure{Rank: v.rank, Step: -1, Detected: true}
					w.close(&RemoteAbort{Rank: v.rank, Reason: "declared dead by the failure detector"})
				default:
					if p == errAborted {
						// Secondary failure: this rank was unblocked by a
						// peer's abort; keep the primary error primary.
						errs[rank] = nil
					} else {
						errs[rank] = fmt.Errorf("engine: rank %d panicked: %v", rank, p)
					}
					w.close(nil)
				}
			}()
			if err := body(&Comm{world: w, rank: rank}); err != nil {
				errs[rank] = err
				w.close(nil)
			}
		}(r)
	}
	wg.Wait()
	if spans != nil {
		// Close dangling step spans (aborted ranks never reach the next
		// Step) so every recorded interval is well-formed.
		spans.CloseAll()
	}
	// A crashed rank's own report names the definitive victim; detector
	// reports are secondary (several peers may all point at the same dead
	// rank), and any other error beats silence.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var rf *RankFailure
		if errors.As(err, &rf) && !rf.Detected {
			return w, err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return w, firstErr
}

// close tears the fabric down with an optional cause (a *RemoteAbort
// naming the failing rank), bounded by closeTimeout so a wedged network
// peer cannot stall the abort path. Idempotent: the first cause wins.
func (w *World) close(cause error) {
	ctx, cancel := context.WithTimeout(context.Background(), closeTimeout)
	defer cancel()
	w.meter.CloseCause(ctx, cause)
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// N returns the number of ranks.
func (c *Comm) N() int { return c.world.n }

// Parallelism returns the intra-rank worker count (at least 1).
func (c *Comm) Parallelism() int {
	if p := c.world.opts.Parallelism; p > 1 {
		return p
	}
	return 1
}

// Numerics returns the arithmetic contract this world's kernels compute
// under (matrix.Strict unless configured otherwise).
func (c *Comm) Numerics() matrix.Numerics { return c.world.opts.Numerics }

// Send hands data to dst under tag: the payload is the transport's after
// the call, as Transport.Send documents, and on the in-process fabric the
// receiver gets the sender's buffer itself. Sending to yourself is allowed
// and does not count as traffic (local data). Send never blocks.
//
// Ownership: a sender never writes to a buffer, or any view of it, after
// sending it — a sender that keeps writing sends a copy it makes at the
// call site (the packs of Scatter and GatherInto). A receiver treats a
// payload as read-only, because a broadcast delivers one buffer to several
// ranks; the exceptions are point-to-point messages whose sender drops
// them: Scatter's packs, whose views the owner keeps as its blocks, and
// QR's W, which each owner of a chain accumulates into and passes on.
func (c *Comm) Send(dst int, tag string, data *matrix.Dense) {
	if dst < 0 || dst >= c.world.n {
		panic(fmt.Sprintf("engine: send to rank %d of %d", dst, c.world.n))
	}
	c.world.meter.Send(c.rank, dst, tag, data)
}

// Recv blocks until a message with the tag arrives from src and returns
// its payload. With Options.RecvTimeout set it is the failure detector: a
// peer that delivers nothing within the deadline is declared dead, which
// converts a silent rank death into a clean world abort. Transport closures
// (a local abort or a remote process's failure propagated through the
// fabric) re-raise as the engine's abort panics, so the kernels above stay
// error-free SPMD code while remote failures still surface as clean
// *RankFailure errors. A recording world notes each delivered call as one
// recv-wait span under the rank's step: the time blocked here, which is
// never busy time.
func (c *Comm) Recv(src int, tag string) *matrix.Dense {
	if src < 0 || src >= c.world.n {
		panic(fmt.Sprintf("engine: recv from rank %d of %d", src, c.world.n))
	}
	s := c.world.spans
	if s == nil {
		return c.recv(src, tag)
	}
	start := s.Now()
	data := c.recv(src, tag)
	s.Record(obs.Span{Parent: c.stepSpan, Rank: c.rank, Kind: obs.SpanRecvWait, Name: tag, Peer: src, Start: start, End: s.Now()})
	return data
}

// recv is Recv's wait: one deadline, whose expiry declares src dead.
func (c *Comm) recv(src int, tag string) *matrix.Dense {
	w := c.world
	ctx := context.Background()
	if timeout := w.opts.RecvTimeout; timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	data, err := w.meter.Recv(ctx, src, c.rank, tag)
	if err == nil {
		return data
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		raise(err)
	}
	w.timeouts.Add(1)
	w.mTimeouts.Inc()
	panic(&peerDead{rank: src})
}

// raise converts a transport error into the engine's abort panics: a
// caused closure naming a failing rank becomes a peerDead (reported as a
// detected *RankFailure), any other closure is the secondary-abort signal.
// The run loop's recover turns both into the right error report.
func raise(err error) {
	var ra *RemoteAbort
	if errors.As(err, &ra) && ra.Rank >= 0 {
		panic(&peerDead{rank: ra.Rank})
	}
	panic(errAborted)
}

// SetStepHook registers fn to run on this rank at the start of every kernel
// step due reports, after scheduled crash faults fire. The step loop enters
// a due step drained — all of step k-1 done, none of step k — so the hook
// sees the state between two steps. Drivers use it to take checkpoints (the
// hook may issue collectives — every rank must pass the same due). Call it
// before starting a kernel.
func (c *Comm) SetStepHook(due func(k int) bool, fn func(k int) error) {
	c.hookDue, c.stepHook = due, fn
}

// due reports whether the step hook runs at step k.
func (c *Comm) due(k int) bool { return c.hookDue != nil && c.hookDue(k) }

// Step marks this rank's entry into kernel step k: scheduled crash faults
// fire here, then — when spans are recorded — the rank's previous step
// span closes and a new one opens (the parent of the step's compute and
// phase spans), and finally the rank's step hook runs if it is due. The
// kernels' one step loop (runSteps) is its only caller.
func (c *Comm) Step(k int) error {
	if ft := c.world.fault; ft != nil {
		ft.stepEntered(c.rank, k)
	}
	c.world.mSteps.Inc()
	if s := c.world.spans; s != nil {
		s.End(c.stepSpan)
		c.stepSpan = s.Begin(c.rank, obs.SpanStep, fmt.Sprintf("step %d", k), 0)
	}
	if c.due(k) {
		return c.stepHook(k)
	}
	return nil
}

// Compute runs f as a labeled compute span attributed to this rank,
// parented to the rank's current kernel step (free when recording is off).
// When a scheduled slowdown fault is in force on this rank, the section is
// stretched to factor× its natural duration by spinning out the difference
// inside the span — the busy-time gauges observe the injected load drift
// while f's results stay untouched. The factor is that of the step the rank
// last entered: with look-ahead the rest of step k's update runs after the
// rank entered step k+1, so under step k+1's factor.
func (c *Comm) Compute(label string, f func() error) error {
	factor := 1.0
	if ft := c.world.fault; ft != nil {
		factor = ft.slowFactor(c.rank)
	}
	s := c.world.spans
	if s == nil && factor <= 1 {
		return f()
	}
	var id obs.SpanID
	if s != nil {
		id = s.Begin(c.rank, obs.SpanCompute, label, c.stepSpan)
	}
	var start time.Time
	if factor > 1 {
		start = time.Now()
	}
	err := f()
	if factor > 1 {
		deadline := start.Add(time.Duration(float64(time.Since(start)) * factor))
		for time.Now().Before(deadline) {
			// Spin: the slowed rank is modeled as busy, not blocked.
		}
	}
	if s != nil {
		s.End(id)
	}
	return err
}

// BusySeconds returns this rank's accumulated compute-span seconds so far
// (0 unless Options.Record) — the live per-rank busy-time gauge the drift
// detector feeds on. Safe to call from the rank's own step hook: compute
// spans complete before the next Step fires.
func (c *Comm) BusySeconds() float64 {
	if s := c.world.spans; s != nil {
		return s.BusyOf(c.rank)
	}
	return 0
}

// Phase opens a labeled phase span (a collective, a solve section) on this
// rank, parented to the current kernel step; close it with EndPhase.
// Phases may include blocking waits, so they carry timeline structure but
// never count toward busy time. Both are no-ops when spans are off.
func (c *Comm) Phase(label string) obs.SpanID {
	s := c.world.spans
	if s == nil {
		return 0
	}
	return s.Begin(c.rank, obs.SpanPhase, label, c.stepSpan)
}

// EndPhase closes a span returned by Phase (0 is ignored).
func (c *Comm) EndPhase(id obs.SpanID) {
	if s := c.world.spans; s != nil {
		s.End(id)
	}
}

// Messages returns the total cross-rank messages sent so far.
func (w *World) Messages() int { return w.meter.Messages() }

// Bytes returns the total cross-rank bytes sent so far.
func (w *World) Bytes() int { return w.meter.Bytes() }

// RankStats returns per-rank traffic counters; their sent sums equal
// Messages() and Bytes() exactly.
func (w *World) RankStats() []RankStats { return w.meter.RankStats() }

// PairStats returns per-(src,dst) traffic counters.
func (w *World) PairStats() [][]PairStats { return w.meter.PairStats() }

// Spans returns the completed spans of the run (nil unless
// Options.Record) in completion order, step spans linking each rank's
// compute, phase and recv-wait spans to their kernel step — the record
// obs.Gantt and obs.WriteChromeTrace render, for a simulated run alike.
func (w *World) Spans() []obs.Span {
	if w.spans == nil {
		return nil
	}
	return w.spans.Snapshot()
}

// BusyTimes returns each rank's accumulated compute-span seconds (nil
// unless Options.Record) — the measured per-rank workload whose max/mean
// is the paper's achieved load imbalance.
func (w *World) BusyTimes() []float64 {
	if w.spans == nil {
		return nil
	}
	return w.spans.BusyTimes(w.n)
}

// Timeouts returns how many Recv deadlines expired across all ranks.
func (w *World) Timeouts() int { return int(w.timeouts.Load()) }

// FaultCounters snapshots the fault schedule's activity, or nil when no
// faults were configured.
func (w *World) FaultCounters() *FaultCounters {
	if w.fault == nil {
		return nil
	}
	fc := w.fault.counters()
	return &fc
}

// RemainingCrashes returns the scheduled crash points that did not fire
// (nil without fault injection) — what a recovery driver carries into the
// next attempt.
func (w *World) RemainingCrashes() []CrashPoint {
	if w.fault == nil {
		return nil
	}
	return w.fault.remainingCrashes()
}
