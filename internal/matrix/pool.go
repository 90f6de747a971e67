package matrix

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the compute layer's persistent worker pool: what parallelDo
// — AddMulBlocks' fan-out of one step's block products across a rank's
// cores — runs on. A distributed run makes thousands of such calls per
// factorization, so instead of spawning goroutines per call a fixed set of
// lazily-started workers is fed by one buffered channel of by-value task
// descriptors:
//
//   - a task is a plain struct, so a submission is a channel copy — no
//     per-call heap allocation;
//   - completion groups are recycled through a sync.Pool, so a steady-state
//     parallelDo allocates nothing (pinned by TestParallelDoZeroAlloc);
//   - when the queue is full the submitter runs the task inline, so a
//     submission never blocks on queue capacity;
//   - idle workers block in a channel receive — quiescent, no spinning —
//     and the pool never grows, so hammering it from many concurrent
//     factorizations cannot leak goroutines.
//
// Callers hand the pool disjoint outputs (whole blocks), so workers never
// write the same element and any worker count gives the same bits.

// poolTask is one contiguous chunk of a parallelDo: run fn(lo), …, fn(hi-1)
// and report to g.
type poolTask struct {
	fn     func(i int)
	lo, hi int
	g      *poolGroup
}

// poolGroup tracks one caller's outstanding tasks and captures the first
// worker panic for re-raise on the caller.
type poolGroup struct {
	wg       sync.WaitGroup
	mu       sync.Mutex
	panicked any
}

var groupPool = sync.Pool{New: func() any { return new(poolGroup) }}

// Pool instrumentation, exposed via PoolStats for the observability layer.
var (
	poolSubmitted atomic.Int64 // tasks handed to pool workers
	poolInline    atomic.Int64 // tasks run on the submitter (queue full)
	fastDispatch  atomic.Int64 // packed GEMM calls routed to the fused fast path
)

// PoolStats reports the worker pool's size and cumulative task counters,
// plus how many packed GEMM calls dispatched to the Fast fused kernel.
// Workers is 0 until the first parallel call starts the pool.
func PoolStats() (workers int, submitted, inline, fastCalls int64) {
	return int(poolWorkerCount.Load()), poolSubmitted.Load(), poolInline.Load(), fastDispatch.Load()
}

var (
	poolOnce        sync.Once
	poolTasks       chan poolTask
	poolWorkerCount atomic.Int64
)

// pool returns the task channel, starting the workers on first use. The
// pool is sized to the scheduler (GOMAXPROCS at start, minimum 2 so the
// concurrent paths stay exercised even on single-CPU machines); extra
// logical workers requested by callers simply produce more chunks, which
// queue and drain.
func pool() chan poolTask {
	poolOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		if n < 2 {
			n = 2
		}
		poolTasks = make(chan poolTask, 8*n)
		for i := 0; i < n; i++ {
			go poolWorker(poolTasks)
		}
		poolWorkerCount.Store(int64(n))
	})
	return poolTasks
}

func poolWorker(tasks <-chan poolTask) {
	for t := range tasks {
		runPoolTask(&t)
	}
}

// poolSubmit hands a task to the pool, or runs it inline when the queue is
// full: a submitter never blocks on queue capacity.
func poolSubmit(t poolTask) {
	select {
	case pool() <- t:
		poolSubmitted.Add(1)
	default:
		poolInline.Add(1)
		runPoolTask(&t)
	}
}

// runPoolTask executes one task, routing any panic into the group so the
// caller's wait re-raises it (the engine's abort recovery lives on the
// calling goroutine).
func runPoolTask(t *poolTask) {
	defer t.g.taskDone()
	for i := t.lo; i < t.hi; i++ {
		t.fn(i)
	}
}

func (g *poolGroup) taskDone() {
	if p := recover(); p != nil {
		g.mu.Lock()
		if g.panicked == nil {
			g.panicked = p
		}
		g.mu.Unlock()
	}
	g.wg.Done()
}

// parallelDo runs fn(0), …, fn(n-1) across at most workers concurrent
// executors in contiguous index chunks, blocking until all return. The
// caller always executes the first chunk itself; the rest go to the
// persistent pool. The split is purely a scheduling choice: callers use it
// for disjoint-output updates, so any worker count produces identical
// results. A panic in any chunk is re-raised on the caller after all
// chunks finish. workers ≤ 1 (or n ≤ 1) runs inline with no pool traffic.
// fn must not call parallelDo itself: with every worker waiting on chunks
// queued behind it, nothing would run them.
func parallelDo(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	g := groupPool.Get().(*poolGroup)
	g.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		poolSubmit(poolTask{fn: fn, lo: n * w / workers, hi: n * (w + 1) / workers, g: g})
	}
	callerPanic := runChunk(fn, 0, n/workers)
	// Wait for the pool's chunks, recycle the group, then re-raise the first
	// panic: the caller's own takes precedence over a worker's.
	g.wg.Wait()
	workerPanic := g.panicked
	g.panicked = nil
	groupPool.Put(g)
	if callerPanic != nil {
		panic(callerPanic)
	}
	if workerPanic != nil {
		panic(workerPanic)
	}
}

// runChunk executes the caller's own share, capturing a panic so the group
// can still be awaited before re-raising.
func runChunk(fn func(i int), lo, hi int) (panicked any) {
	defer func() { panicked = recover() }()
	for i := lo; i < hi; i++ {
		fn(i)
	}
	return nil
}
