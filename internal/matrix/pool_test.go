package matrix

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"hetgrid/internal/leakcheck"
)

// TestParallelDo checks the chunked fan-out: every index runs exactly once
// for assorted worker/n combinations, including workers > n and the serial
// fallbacks.
func TestParallelDo(t *testing.T) {
	for _, tc := range [][2]int{{1, 5}, {2, 2}, {3, 10}, {4, 100}, {7, 3}, {16, 1}, {2, 0}} {
		workers, n := tc[0], tc[1]
		hits := make([]int32, n)
		var mu sync.Mutex
		parallelDo(workers, n, func(i int) {
			mu.Lock()
			hits[i]++
			mu.Unlock()
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, h)
			}
		}
	}
}

// TestParallelDoPanic checks panic propagation from both the caller's own
// chunk (index 0) and a spawned goroutine's chunk (last index).
func TestParallelDoPanic(t *testing.T) {
	for _, panicAt := range []int{0, 99} {
		func() {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatalf("panic at index %d was swallowed", panicAt)
				}
				if s, ok := p.(string); !ok || s != "boom" {
					t.Fatalf("panic at index %d: got %v", panicAt, p)
				}
			}()
			parallelDo(4, 100, func(i int) {
				if i == panicAt {
					panic("boom")
				}
			})
		}()
	}
}

// stepUpdate is the engine's use of the fan-out in miniature: one step's
// disjoint output blocks, each receiving c += a·b — block by block through
// AddMulNumerics, fanned out with parallelDo one block per index, or as one
// AddMulBlocks batch over the distinct row blocks of a and column blocks of
// b. The views are cut up front so that the fan-out itself is all a run
// costs.
type stepUpdate struct {
	c, a, b       []*Dense
	lefts, rights []*Dense
	blocks        []BlockUpdate
}

// newStepUpdate cuts an nb×nb grid of r×r blocks with inner dimension k.
func newStepUpdate(rng *rand.Rand, nb, r, k int) (*stepUpdate, *Dense) {
	a := randomOperand(rng, nb*r, k, false, false)
	b := randomOperand(rng, k, nb*r, false, false)
	c := randomOperand(rng, nb*r, nb*r, false, false)
	u := &stepUpdate{}
	for i := 0; i < nb; i++ {
		u.lefts = append(u.lefts, a.Slice(i*r, (i+1)*r, 0, k))
		u.rights = append(u.rights, b.Slice(0, k, i*r, (i+1)*r))
	}
	for bi := 0; bi < nb; bi++ {
		for bj := 0; bj < nb; bj++ {
			out := c.Slice(bi*r, (bi+1)*r, bj*r, (bj+1)*r)
			u.c = append(u.c, out)
			u.a = append(u.a, u.lefts[bi])
			u.b = append(u.b, u.rights[bj])
			u.blocks = append(u.blocks, BlockUpdate{Out: out, Left: bi, Right: bj})
		}
	}
	return u, c
}

func (u *stepUpdate) block(mode Numerics) func(i int) {
	return func(i int) { u.c[i].AddMulNumerics(1, u.a[i], u.b[i], mode) }
}

// batch is the whole step as one AddMulBlocks call on workers executors.
func (u *stepUpdate) batch(mode Numerics, workers int) func() {
	return func() { AddMulBlocks(1, u.lefts, u.rights, u.blocks, mode, workers) }
}

// TestParallelDoZeroAlloc pins the allocation contract of the path the
// engine's serial ranks take: at workers = 1 the fan-out runs inline, so
// once every packing buffer is warm a step's block updates allocate
// nothing — block by block or as one AddMulBlocks batch, in either numerics
// mode, at the engine's r = 32. A call with more workers starts goroutines
// and allocates for them.
func TestParallelDoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin runs in the non-race matrix")
	}
	u, _ := newStepUpdate(rand.New(rand.NewSource(5)), 4, 32, 32)
	for _, mode := range []Numerics{Strict, Fast} {
		fn, batch := u.block(mode), u.batch(mode, 1)
		for i := 0; i < 10; i++ {
			parallelDo(1, 16, fn)
			batch()
		}
		if avg := testing.AllocsPerRun(100, func() { parallelDo(1, 16, fn) }); avg != 0 {
			t.Errorf("mode=%v: parallelDo over 16 block updates allocates %.2f per call in steady state", mode, avg)
		}
		if avg := testing.AllocsPerRun(100, batch); avg != 0 {
			t.Errorf("mode=%v: AddMulBlocks over 16 block updates allocates %.2f per call in steady state", mode, avg)
		}
	}
}

// TestParallelDoNoGoroutineLeak hammers the fan-out and checks the
// goroutine count settles back to its value before the first call: every
// goroutine a call starts has exited once the call returns, and nothing
// stays resident.
func TestParallelDoNoGoroutineLeak(t *testing.T) {
	u, _ := newStepUpdate(rand.New(rand.NewSource(13)), 3, 32, 64)
	fn := u.block(Strict)
	base := runtime.NumGoroutine()
	for i := 0; i < 300; i++ {
		parallelDo(2+i%6, len(u.c), fn)
	}
	leakcheck.Settle(t, base)
}

// TestPoolConcurrentHammer drives the fan-out from many concurrent steps at
// once, Strict and Fast — the race detector (CI runs this package under
// -race) checks its synchronization, and the bitwise assertions check
// every worker count still gives the serial loop's result under contention.
func TestPoolConcurrentHammer(t *testing.T) {
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mode := Strict
			if g%2 == 1 {
				mode = Fast
			}
			u, c := newStepUpdate(rand.New(rand.NewSource(int64(100+g))), 3, 24, 64)
			fn := u.block(mode)
			before := c.Clone()
			for i := range u.c {
				fn(i)
			}
			want := c.Clone()
			for iter := 0; iter < 20; iter++ {
				c.CopyFrom(before)
				parallelDo(1+iter%5, len(u.c), fn)
				if !bitIdentical(c, want) {
					errs <- fmt.Errorf("goroutine %d iter %d: parallel result diverged from the serial loop", g, iter)
					return
				}
				parallelDo(3, 50, func(int) {})
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPoolStats checks the instrumentation counters the obs layer
// exports: no spawned goroutine is live once a call returns, and each
// parallel call runs workers−1 chunks on spawned goroutines and one on the
// caller.
func TestPoolStats(t *testing.T) {
	u, _ := newStepUpdate(rand.New(rand.NewSource(2)), 3, 32, 64)
	for _, workers := range []int{2, 4, 7} {
		_, spawned, caller, _ := PoolStats()
		parallelDo(workers, len(u.c), u.block(Strict))
		live, spawned2, caller2, _ := PoolStats()
		if live != 0 {
			t.Fatalf("workers=%d: %d spawned goroutines live after the call returned", workers, live)
		}
		if got, want := spawned2-spawned, int64(workers-1); got != want {
			t.Fatalf("workers=%d: spawned counter advanced %d, want %d", workers, got, want)
		}
		if got := caller2 - caller; got != 1 {
			t.Fatalf("workers=%d: caller counter advanced %d, want 1", workers, got)
		}
	}
	if FastAvailable() {
		// One per packed Fast block product, batched or not: bench/ reads
		// the counter as block products per operation.
		_, _, _, fastBefore := PoolStats()
		u.block(Fast)(0)
		u.batch(Fast, 2)()
		_, _, _, fastAfter := PoolStats()
		if got, want := fastAfter-fastBefore, int64(1+len(u.blocks)); got != want {
			t.Fatalf("fast-dispatch counter advanced %d, want %d", got, want)
		}
	}
}

// BenchmarkParallelDo times the fan-out at workers ∈ {1, 2, 4}: over 16
// empty chunks, which is the fan-out's own cost, and over one step's 16
// block updates at r = 32 (Strict AddMulNumerics per index).
//
//	go test ./internal/matrix -run '^$' -bench ParallelDo -benchmem
func BenchmarkParallelDo(b *testing.B) {
	u, _ := newStepUpdate(rand.New(rand.NewSource(16)), 4, 32, 32)
	step := u.block(Strict)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("empty/w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				parallelDo(workers, 16, func(int) {})
			}
		})
		b.Run(fmt.Sprintf("step-r32/w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				parallelDo(workers, len(u.c), step)
			}
		})
	}
}
