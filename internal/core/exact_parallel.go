package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"hetgrid/internal/grid"
)

// atomicFloat64 is a float64 with atomic load/store and monotone raise,
// encoded through its IEEE bits. Only non-NaN values are stored, and the
// raise is monotone non-decreasing, so bit comparison is safe.
type atomicFloat64 struct{ bits atomic.Uint64 }

func (a *atomicFloat64) store(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat64) load() float64   { return math.Float64frombits(a.bits.Load()) }

// raise lifts the stored value to at least v (CAS loop).
func (a *atomicFloat64) raise(v float64) {
	for {
		old := a.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// exactWorkItem is one unit of search work: an arrangement with its
// deterministic sequence number in enumeration order.
type exactWorkItem struct {
	seq int
	arr *grid.Arrangement
}

// spanningTrees returns the number of spanning trees of K_{p,q},
// p^(q−1)·q^(p−1) (Scoins' formula; 0 when a side is empty), or an error
// when it overflows int — a search that large could never finish.
func spanningTrees(p, q int) (int, error) {
	if p <= 0 || q <= 0 {
		return 0, nil
	}
	trees := 1
	for k := 1; k < p+q-1; k++ {
		f := p // p for the first q−1 factors, q for the last p−1
		if k >= q {
			f = q
		}
		if trees > math.MaxInt/f {
			return 0, fmt.Errorf("core: K_{%d,%d}'s spanning-tree count overflows int; the %d×%d grid is too large for the exact search", p, q, p, q)
		}
		trees *= f
	}
	return trees, nil
}

// search is the one loop of the exact search, for the global and the
// fixed-arrangement solver and for every worker count (opts.Workers, 0 =
// GOMAXPROCS). produce calls emit once per arrangement of the p×q grid, in
// enumeration order, and may reuse the arrangement once emit returns; it
// runs on the calling goroutine, which counts each arrangement (trees
// spanning trees apiece), skips those whose upper bound cannot reach seed,
// and streams a copy of each of the rest to the workers, one arrangement
// per item, made in an arrangement a worker handed back where it can.
// Each worker searches its items with one reusable treeSearcher, and all
// share a monotone incumbent, seeded with seed, that short-circuits
// candidate bookkeeping. After the join the searchers' statistics are
// summed and the best of their candidates under betterThan wins. Pruning
// depends only on seed and the input, never on the live incumbent, and an
// arrangement's trees are never split, so the solution and every counter
// are bit-identical for every worker count, 1 included.
func search(p, q, trees int, opts ExactOptions, seed float64, produce func(emit func(*grid.Arrangement) bool) error) (*Solution, *ExactStats, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var incumbent atomicFloat64
	incumbent.store(seed)

	// A few items per worker let the producer run ahead through a stretch of
	// bound-pruned arrangements without stalling the workers.
	items := make(chan exactWorkItem, 4*workers)
	// Workers hand back the arrangements they hold no more, so the producer
	// mostly copies into a spent one instead of allocating. The queue, one
	// item and one best per worker are all that can be out at once.
	spent := make(chan *grid.Arrangement, cap(items)+2*workers)
	searchers := make([]*treeSearcher, workers)
	var wg sync.WaitGroup
	for w := range searchers {
		s := newTreeSearcher(p, q)
		searchers[w] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for item := range items {
				// Candidates strictly below the shared best-so-far can never
				// win (the worker holding that value keeps it locally), so
				// skip their bookkeeping. Counters are taken before the skip.
				s.skipBelow = incumbent.load()
				held := s.best.arr
				s.searchArrangement(item.arr, item.seq)
				if s.best.arr != nil {
					incumbent.raise(s.best.obj)
				}
				done := item.arr
				if s.best.arr == item.arr {
					done = held
				}
				if done != nil {
					select {
					case spent <- done:
					default:
					}
				}
			}
		}()
	}

	total := &ExactStats{}
	g := make([]float64, p*q)
	err := produce(func(arr *grid.Arrangement) bool {
		seq := total.Arrangements
		total.Arrangements++
		total.TreesTheoretical += trees
		if arrangementUpperBound(arr, g) < seed {
			total.ArrangementsPruned++
			return true
		}
		var cp *grid.Arrangement
		select {
		case cp = <-spent:
			for i, row := range arr.T {
				copy(cp.T[i], row)
			}
		default:
			cp = arr.Clone()
		}
		items <- exactWorkItem{seq: seq, arr: cp}
		return true
	})
	close(items)
	wg.Wait()

	var best *exactCandidate
	for _, s := range searchers {
		total.Add(&s.stats)
		if s.best.arr != nil && s.best.betterThan(best) {
			best = &s.best
		}
	}
	if err != nil {
		return nil, total, err
	}
	if best == nil {
		return nil, total, ErrNoAcceptableTree
	}
	return &Solution{
		Arr: best.arr,
		R:   append([]float64(nil), best.r...),
		C:   append([]float64(nil), best.c...),
	}, total, nil
}
