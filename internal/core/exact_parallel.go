package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"hetgrid/internal/grid"
	"hetgrid/internal/spantree"
)

// minTreesForSplit is the spanning-tree count above which a single
// arrangement's enumeration is partitioned across workers (below it,
// arrangement-level parallelism is enough and partition overhead dominates).
const minTreesForSplit = 256

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

// exactWorkItem is one unit of search work: an arrangement (with its
// deterministic sequence number in enumeration order) and the partition
// class of its spanning trees to enumerate (nil = all trees).
type exactWorkItem struct {
	seq    int
	arr    *grid.Arrangement
	prefix []bool
}

// partitionBits picks how many leading edge-choice digits to branch on so
// that a single arrangement's 2^bits partition classes keep `workers`
// workers busy, without exploding the item count.
func partitionBits(treeCount, nEdges, workers int) int {
	if workers <= 1 || treeCount < minTreesForSplit {
		return 0
	}
	bits := 0
	for 1<<bits < 2*workers && bits < 8 && bits < nEdges {
		bits++
	}
	return bits
}

// search is the one loop of the exact search, for the global and the
// fixed-arrangement solver and for every worker count (opts.Workers, 0 =
// GOMAXPROCS). produce calls emit once per arrangement of the p×q grid, in
// enumeration order; it runs on the calling goroutine, which counts each
// arrangement, skips those whose upper bound cannot reach seed, and streams
// the rest as (arrangement, tree-partition) items to the workers. Each
// worker searches its items with one reusable treeSearcher, and all share a
// monotone incumbent, seeded with seed, that short-circuits candidate
// bookkeeping. After the join the searchers' statistics are summed and the
// best of their candidates under betterThan wins. Pruning depends only on
// seed and the input, never on the live incumbent, so solution and
// statistics (but BranchesPruned, see ExactStats) are bit-identical for every
// worker count, 1 included.
func search(p, q int, opts ExactOptions, seed float64, produce func(emit func(*grid.Arrangement) bool) error) (*Solution, *ExactStats, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	treeCount := spantree.CountCompleteBipartite(p, q)
	prefixes := spantree.PartitionPrefixes(p*q, partitionBits(treeCount, p*q, workers))
	var incumbent atomicFloat64
	incumbent.store(seed)

	// A few items per worker let the producer run ahead through a stretch of
	// bound-pruned arrangements without stalling the workers.
	items := make(chan exactWorkItem, 4*workers)
	searchers := make([]*treeSearcher, workers)
	var wg sync.WaitGroup
	for w := range searchers {
		s := newTreeSearcher(p, q, opts)
		searchers[w] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for item := range items {
				// Candidates strictly below the shared best-so-far can never
				// win (the worker holding that value keeps it locally), so
				// skip their bookkeeping. Counters are taken before the skip.
				s.skipBelow = incumbent.load()
				s.searchArrangement(item.arr, item.seq, item.prefix)
				if s.best.arr != nil {
					incumbent.raise(s.best.obj)
				}
			}
		}()
	}

	total := &ExactStats{}
	err := produce(func(arr *grid.Arrangement) bool {
		seq := total.Arrangements
		total.Arrangements++
		total.TreesTheoretical += treeCount
		if arrangementUpperBound(arr) < seed {
			total.ArrangementsPruned++
			return true
		}
		for _, prefix := range prefixes {
			items <- exactWorkItem{seq: seq, arr: arr, prefix: prefix}
		}
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
