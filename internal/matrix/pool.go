package matrix

import (
	"sync"
	"sync/atomic"
)

// This file is the compute layer's block fan-out: parallelDo, which is how
// AddMulBlocks spreads one step's block products across a rank's cores. A
// call starts the goroutines it needs and waits for them, so nothing
// outlives it and a chunk may fan out again. Callers hand it disjoint
// outputs (whole blocks), so no two goroutines write the same element and
// any worker count gives the same bits.

// Fan-out instrumentation, exposed via PoolStats for the observability
// layer. Only calls with more than one worker count: the inline branch
// touches no counter.
var (
	fanLive      atomic.Int64 // spawned goroutines whose chunk has not finished
	fanSpawned   atomic.Int64 // chunks run on spawned goroutines
	fanCaller    atomic.Int64 // chunks run on the calling goroutine
	fastDispatch atomic.Int64 // packed GEMM calls routed to the fused fast path
)

// PoolStats reports the block fan-out's spawned goroutines still running a
// chunk, the cumulative counts of chunks run on spawned goroutines and on
// the caller by calls with more than one worker, and how many packed GEMM
// calls dispatched to the Fast fused kernel.
func PoolStats() (live int, spawned, caller, fastCalls int64) {
	return int(fanLive.Load()), fanSpawned.Load(), fanCaller.Load(), fastDispatch.Load()
}

// parallelDo runs fn(0), …, fn(n-1) across at most workers concurrent
// goroutines in contiguous index chunks, blocking until all return. The
// caller runs the first chunk itself and starts one goroutine for each of
// the others. The split is purely a scheduling choice: callers use it for
// disjoint-output updates, so any worker count produces identical results.
// The first panic of any chunk is re-raised on the caller after all chunks
// finish, the caller's own before a spawned one's. workers ≤ 1 (or n ≤ 1)
// runs inline and starts no goroutine.
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
	fanOut(workers, n, fn)
}

// fanOut is parallelDo's parallel branch, 2 ≤ workers ≤ n. It is a
// function of its own so that the inline branch, the one serial ranks run,
// keeps a small frame: inlined, it cost that branch ~12 ns per call
// (BenchmarkParallelDo/empty/w1 on a 2-core x86-64 VM, EXPERIMENTS.md).
func fanOut(workers, n int, fn func(i int)) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked any
	)
	wg.Add(workers - 1)
	fanLive.Add(int64(workers - 1))
	fanSpawned.Add(int64(workers - 1))
	fanCaller.Add(1)
	for w := 1; w < workers; w++ {
		go func(lo, hi int) {
			defer wg.Done()
			defer fanLive.Add(-1)
			if p := runChunk(fn, lo, hi); p != nil {
				mu.Lock()
				if panicked == nil {
					panicked = p
				}
				mu.Unlock()
			}
		}(n*w/workers, n*(w+1)/workers)
	}
	callerPanic := runChunk(fn, 0, n/workers)
	wg.Wait()
	if callerPanic != nil {
		panic(callerPanic)
	}
	if panicked != nil {
		panic(panicked)
	}
}

// runChunk executes fn over [lo, hi), capturing a panic so the call can
// still wait for every chunk before re-raising.
func runChunk(fn func(i int), lo, hi int) (panicked any) {
	defer func() { panicked = recover() }()
	for i := lo; i < hi; i++ {
		fn(i)
	}
	return nil
}
