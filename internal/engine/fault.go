package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"hetgrid/internal/matrix"
	"hetgrid/internal/obs"
)

// This file is the engine's fault layer: a deterministic, seed-driven
// Transport wrapper that injects message drops, message delays and
// scheduled rank crashes, plus the error type the run loop reports when a
// rank dies. Together with the Recv deadline/retry loop in engine.go it
// turns a dead rank into a clean abort instead of a hang, and gives the
// driver layer enough information to replan the surviving work.
//
// Determinism contract: whether a given message is dropped or delayed is a
// pure function of (Seed, src, dst, tag, per-channel sequence number) —
// sends on one channel are ordered by the sender's program order, so the
// decision set does not depend on goroutine interleaving. Both lottery
// rolls are evaluated for every message with independent salts, so a
// message can be dropped AND delayed: its retransmitted copy then waits out
// the delay before entering the fabric. Crash points fire when their rank
// enters the scheduled kernel step. Wall-clock effects (how many timeouts
// and retries the receivers needed) do depend on scheduling, but the
// delivered payloads, and therefore the numerical results, do not.

// CrashPoint schedules the death of one rank at the start of a kernel step.
type CrashPoint struct {
	// Rank is the flat rank that dies (numbered within the world it fires
	// in — after a recovery the surviving world is renumbered).
	Rank int
	// Step is the kernel panel index at whose start the rank dies.
	Step int
	// Silent makes the rank die without aborting the world: its peers stay
	// blocked in Recv until the failure detector (Recv deadlines plus
	// bounded retries) declares the rank dead and aborts. The default
	// fail-stop crash aborts the world immediately.
	Silent bool
}

// SlowdownPoint schedules a cycle-time multiplier on one rank from the
// start of a kernel step onward — the deterministic model of a noisy
// neighbor stealing cycles. The rank's labeled compute sections take
// Factor× their natural time (the engine spins out the difference), so the
// span store's busy-time gauges see the slowdown while every delivered
// payload, and therefore the numerical result, stays untouched.
type SlowdownPoint struct {
	// Rank is the flat rank that slows down.
	Rank int
	// Step is the kernel panel index at whose start the multiplier takes
	// effect; it stays in force until a later-scheduled point for the same
	// rank replaces it (Factor 1 schedules a recovery back to full speed).
	Step int
	// Factor ≥ 1 multiplies the rank's compute time.
	Factor float64
}

// FaultConfig configures deterministic fault injection for one Run.
type FaultConfig struct {
	// Seed drives every drop and delay decision.
	Seed int64
	// DropProb is the per-message probability that a cross-rank message's
	// first delivery is swallowed. Dropped messages are stashed and
	// redelivered when the receiver's timeout asks for a retransmission, so
	// drops are only survivable with Options.RecvTimeout set.
	DropProb float64
	// DelayProb is the per-message probability that delivery is deferred by
	// Delay. Keep Delay well under RecvTimeout·retries or the failure
	// detector will misread lateness as death.
	DelayProb float64
	// Delay is how long a delayed message waits before entering the fabric.
	Delay time.Duration
	// Crashes schedules rank deaths at kernel steps.
	Crashes []CrashPoint
	// Slowdowns schedules compute-time multipliers at kernel steps — load
	// drift, injected as deterministically as the crashes.
	Slowdowns []SlowdownPoint
}

// FaultCounters is a snapshot of a FaultTransport's activity. After a
// fully repaired run Retransmitted equals Dropped: every dropped message
// leaves the dropped state exactly once, even when it also lost the delay
// lottery and its retransmission had to wait out the delay.
type FaultCounters struct {
	Dropped, Delayed, Retransmitted int
	// Crashed lists the crash points that fired, in firing order.
	Crashed []CrashPoint
	// Slowed lists the slowdown points that activated, in firing order.
	Slowed []SlowdownPoint
}

// RankFailure is the error RunOpts reports when a rank dies — either a
// scheduled crash fault, a peer the failure detector timed out on, or a
// remote process's abort naming the failing rank.
type RankFailure struct {
	// Rank is the dead rank.
	Rank int
	// Step is the kernel step the crash was scheduled at, or -1 when the
	// failure was inferred by a peer's Recv timeout.
	Step int
	// Detected is true when a peer's failure detector reported the death
	// (as opposed to the dying rank reporting it itself).
	Detected bool
}

func (e *RankFailure) Error() string {
	if e.Detected {
		return fmt.Sprintf("engine: rank %d declared dead by the failure detector (receive timeout)", e.Rank)
	}
	return fmt.Sprintf("engine: rank %d crashed at step %d", e.Rank, e.Step)
}

// rankCrash is the panic payload a scheduled crash kills its rank with.
type rankCrash struct{ point CrashPoint }

// peerDead is the panic payload a receiver raises when its retries on a
// peer are exhausted or a remote abort names a failing rank.
type peerDead struct{ rank int }

// outState is the delivery state of one message in a channel outbox.
type outState int

const (
	outReady   outState = iota // deliverable as soon as it reaches the head
	outDelayed                 // waiting for its delay timer
	outDropped                 // waiting for a timeout-triggered retransmission
)

// outMsg is one message in a tagged channel's ordered outbox.
type outMsg struct {
	data  *matrix.Dense
	state outState
	// alsoDelayed marks a dropped message that independently lost the delay
	// lottery: its retransmitted copy waits out the delay before delivery.
	alsoDelayed bool
}

// FaultTransport wraps a Transport with deterministic fault injection and
// implements Retransmitter by redelivering stashed drops; when its own
// stash has nothing for the channel (the sender lives in another process)
// the request is forwarded to the inner fabric's Retransmitter, which for
// the network transport relays it to the process hosting the sender.
//
// Each (src,dst,tag) channel keeps an ordered outbox: a dropped or delayed
// message blocks everything sent after it on the same channel until it is
// released, so faults never reorder a tagged channel — the per-tag FIFO the
// fault-free mailbox guarantees and the kernels rely on (two scatters of
// different matrices reuse the same block tags, for example) survives any
// fault schedule.
type FaultTransport struct {
	inner Transport
	cfg   FaultConfig

	mu        sync.Mutex
	seq       map[pairTag]uint64
	outbox    map[pairTag][]*outMsg
	timers    []*time.Timer
	fired     map[int]bool // indices into cfg.Crashes
	crashed   []CrashPoint
	firedSlow map[int]bool // indices into cfg.Slowdowns
	slowed    []SlowdownPoint
	slow      map[int]float64 // rank → active compute-time multiplier
	aborted   bool

	dropped, delayed, retransmitted int

	// Registry mirrors of the fault counters; nil (counting nothing) without
	// a registry.
	mDropped, mDelayed, mRetransmitted, mCrashes, mSlowdowns *obs.Counter
}

// attachMetrics mirrors the transport's fault counters into the registry
// so scrapers see drop/delay/retransmission activity live.
func (t *FaultTransport) attachMetrics(reg *obs.Registry) {
	t.mDropped = reg.Counter("hetgrid_fault_dropped_total", "", "messages whose first delivery the fault lottery swallowed")
	t.mDelayed = reg.Counter("hetgrid_fault_delayed_total", "", "messages the fault lottery deferred")
	t.mRetransmitted = reg.Counter("hetgrid_fault_retransmitted_total", "", "dropped messages redelivered on retransmission requests")
	t.mCrashes = reg.Counter("hetgrid_fault_crashes_total", "", "scheduled rank crash points that fired")
	t.mSlowdowns = reg.Counter("hetgrid_fault_slowdowns_total", "", "scheduled rank slowdown points that activated")
}

// newFaultTransport wraps inner with the configured faults.
func newFaultTransport(inner Transport, cfg FaultConfig) *FaultTransport {
	return &FaultTransport{
		inner:     inner,
		cfg:       cfg,
		seq:       make(map[pairTag]uint64),
		outbox:    make(map[pairTag][]*outMsg),
		fired:     make(map[int]bool),
		firedSlow: make(map[int]bool),
		slow:      make(map[int]float64),
	}
}

// faultRoll maps a message identity to a uniform value in [0,1); salt
// separates the independent drop and delay decisions.
func faultRoll(seed int64, src, dst int, tag string, seq, salt uint64) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%d/%s/%d/%d", seed, src, dst, tag, seq, salt)
	x := h.Sum64()
	// One splitmix64 finalization round scrubs FNV's low-entropy tail.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// delayLocked defers msg's release by the configured delay. Called with
// t.mu held; no timer starts after an abort (the messages are unneeded).
func (t *FaultTransport) delayLocked(key pairTag, msg *outMsg) {
	if t.aborted {
		msg.state = outReady
		return
	}
	msg.state = outDelayed
	timer := time.AfterFunc(t.cfg.Delay, func() {
		t.mu.Lock()
		msg.state = outReady
		t.flushLocked(key)
		t.mu.Unlock()
	})
	t.timers = append(t.timers, timer)
}

// Send applies the drop/delay lottery to cross-rank messages; self-sends
// pass straight through (they are local data, never network faults). A
// faulted message enters its channel's outbox and blocks later sends on
// the same channel until it is released, preserving per-tag FIFO order.
// Both lotteries are rolled independently: a message that loses both is
// dropped first, and the delay applies to its retransmitted copy.
func (t *FaultTransport) Send(src, dst int, tag string, data *matrix.Dense) {
	if src == dst {
		t.inner.Send(src, dst, tag, data)
		return
	}
	key := pairTag{src, dst, tag}
	t.mu.Lock()
	n := t.seq[key]
	t.seq[key] = n + 1
	msg := &outMsg{data: data, state: outReady}
	dropHit := t.cfg.DropProb > 0 && faultRoll(t.cfg.Seed, src, dst, tag, n, 1) < t.cfg.DropProb
	delayHit := t.cfg.DelayProb > 0 && t.cfg.Delay > 0 && faultRoll(t.cfg.Seed, src, dst, tag, n, 2) < t.cfg.DelayProb
	switch {
	case dropHit:
		msg.state = outDropped
		msg.alsoDelayed = delayHit
		t.dropped++
		t.mDropped.Inc()
		if delayHit {
			t.delayed++
			t.mDelayed.Inc()
		}
	case delayHit:
		t.delayed++
		t.mDelayed.Inc()
		t.delayLocked(key, msg)
	}
	if msg.state == outReady && len(t.outbox[key]) == 0 {
		// Fast path: nothing ahead of an undisturbed message.
		t.mu.Unlock()
		t.inner.Send(src, dst, tag, data)
		return
	}
	t.outbox[key] = append(t.outbox[key], msg)
	t.flushLocked(key)
	t.mu.Unlock()
}

// flushLocked delivers the channel's deliverable prefix — every message up
// to the first one still held back by a fault — in channel order. Called
// with t.mu held; the inner fabric's Send never blocks, so delivering under
// the lock is safe and keeps concurrent flushes of one channel from
// interleaving.
func (t *FaultTransport) flushLocked(key pairTag) {
	q := t.outbox[key]
	n := 0
	for n < len(q) && q[n].state == outReady {
		t.inner.Send(key.src, key.dst, key.tag, q[n].data)
		n++
	}
	if n == 0 {
		return
	}
	if n == len(q) {
		delete(t.outbox, key)
	} else {
		t.outbox[key] = q[n:]
	}
}

// Recv forwards to the fabric.
func (t *FaultTransport) Recv(ctx context.Context, src, dst int, tag string) (*matrix.Dense, error) {
	return t.inner.Recv(ctx, src, dst, tag)
}

// Retransmit releases every dropped message on the channel, reporting
// whether there were any — the sender-side retransmission a receiver's
// timeout requests. Each dropped message is counted exactly once, at its
// transition out of the dropped state: a drop that also lost the delay
// lottery moves to the delayed state (its copy waits out the delay) and a
// repeat Retransmit while it waits must not recount it. Released messages
// still deliver in channel order. When this stash has nothing, the request
// is forwarded to the inner fabric's Retransmitter, which over the network
// transport relays it to the process hosting the sender's stash.
func (t *FaultTransport) Retransmit(src, dst int, tag string) bool {
	key := pairTag{src, dst, tag}
	t.mu.Lock()
	n := 0
	for _, m := range t.outbox[key] {
		if m.state != outDropped {
			continue
		}
		n++
		if m.alsoDelayed {
			t.delayLocked(key, m)
		} else {
			m.state = outReady
		}
	}
	t.retransmitted += n
	t.mRetransmitted.Add(int64(n))
	t.flushLocked(key)
	t.mu.Unlock()
	if n > 0 {
		return true
	}
	if rt, ok := t.inner.(Retransmitter); ok {
		return rt.Retransmit(src, dst, tag)
	}
	return false
}

// Close stops pending delay timers and closes the fabric.
func (t *FaultTransport) Close(ctx context.Context) error {
	t.quiesce()
	return t.inner.Close(ctx)
}

// CloseCause stops pending delay timers and closes the fabric with cause.
func (t *FaultTransport) CloseCause(ctx context.Context, cause error) error {
	t.quiesce()
	if cc, ok := t.inner.(CauseCloser); ok {
		return cc.CloseCause(ctx, cause)
	}
	return t.inner.Close(ctx)
}

// quiesce stops outstanding delay timers and releases the messages they
// were holding. Local receivers no longer need them (every local rank has
// finished), but on a multi-process fabric a remote receiver can still be
// blocked on one — the release delivers it merely late, never never.
// Dropped messages stay stashed: remote retransmission requests keep
// working after the local ranks are done.
func (t *FaultTransport) quiesce() {
	t.mu.Lock()
	t.aborted = true
	timers := t.timers
	t.timers = nil
	for key, q := range t.outbox {
		for _, m := range q {
			if m.state == outDelayed {
				m.state = outReady
			}
		}
		t.flushLocked(key)
	}
	t.mu.Unlock()
	for _, tm := range timers {
		tm.Stop()
	}
}

// stepEntered activates any slowdowns scheduled at or before this step for
// this rank (the latest-scheduled point wins), then fires any crash
// scheduled for this rank at this step by panicking on the rank's
// goroutine; the run loop converts the panic into a RankFailure.
func (t *FaultTransport) stepEntered(rank, step int) {
	t.mu.Lock()
	best := -1
	for i, sp := range t.cfg.Slowdowns {
		if sp.Rank != rank || sp.Step > step || sp.Factor <= 0 {
			continue
		}
		if best < 0 || sp.Step >= t.cfg.Slowdowns[best].Step {
			best = i
		}
	}
	if best >= 0 {
		t.slow[rank] = t.cfg.Slowdowns[best].Factor
		if !t.firedSlow[best] {
			t.firedSlow[best] = true
			t.slowed = append(t.slowed, t.cfg.Slowdowns[best])
			t.mSlowdowns.Inc()
		}
	}
	for i, cp := range t.cfg.Crashes {
		if cp.Rank == rank && cp.Step == step && !t.fired[i] {
			t.fired[i] = true
			t.crashed = append(t.crashed, cp)
			t.mCrashes.Inc()
			t.mu.Unlock()
			panic(&rankCrash{point: cp})
		}
	}
	t.mu.Unlock()
}

// slowFactor returns the rank's active compute-time multiplier (1 when no
// slowdown is in force).
func (t *FaultTransport) slowFactor(rank int) float64 {
	if len(t.cfg.Slowdowns) == 0 {
		return 1
	}
	t.mu.Lock()
	f := t.slow[rank]
	t.mu.Unlock()
	if f < 1 {
		return 1
	}
	return f
}

// counters snapshots the transport's fault activity.
func (t *FaultTransport) counters() FaultCounters {
	t.mu.Lock()
	defer t.mu.Unlock()
	return FaultCounters{
		Dropped:       t.dropped,
		Delayed:       t.delayed,
		Retransmitted: t.retransmitted,
		Crashed:       append([]CrashPoint(nil), t.crashed...),
		Slowed:        append([]SlowdownPoint(nil), t.slowed...),
	}
}

// RemainingCrashes returns the scheduled crash points that have not fired —
// what a recovery driver should carry into the next attempt.
func (t *FaultTransport) RemainingCrashes() []CrashPoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []CrashPoint
	for i, cp := range t.cfg.Crashes {
		if !t.fired[i] {
			out = append(out, cp)
		}
	}
	return out
}
