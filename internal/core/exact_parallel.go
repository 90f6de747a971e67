package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"hetgrid/internal/grid"
	"hetgrid/internal/spantree"
)

// normalizeWorkers maps the Workers option to a concrete worker count.
func normalizeWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

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

// atomicExactStats aggregates worker statistics without locks.
type atomicExactStats struct {
	treesVisited, treesAcceptable, branchesPruned atomic.Int64
}

func (a *atomicExactStats) add(s *ExactStats) {
	a.treesVisited.Add(int64(s.TreesVisited))
	a.treesAcceptable.Add(int64(s.TreesAcceptable))
	a.branchesPruned.Add(int64(s.BranchesPruned))
}

func (a *atomicExactStats) into(s *ExactStats) {
	s.TreesVisited += int(a.treesVisited.Load())
	s.TreesAcceptable += int(a.treesAcceptable.Load())
	s.BranchesPruned += int(a.branchesPruned.Load())
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

// SolveGlobalExactParallel runs the branch-and-bound global exact search of
// SolveGlobalExact on the given number of workers (0 selects GOMAXPROCS). A
// producer streams the non-decreasing arrangements over a channel; workers
// pull (arrangement, tree-partition) items, search them with per-worker
// reusable scratch state, and share a monotone best-so-far objective through
// an atomic float that short-circuits candidate bookkeeping. The returned
// solution — objective, arrangement, R, C — is bit-identical to the serial
// solver's for every worker count: candidates are ordered by the
// deterministic total order (higher objective, then lexicographically
// smallest arrangement, then lexicographically smallest tree), and all
// pruning decisions depend only on the input, never on scheduling.
func SolveGlobalExactParallel(times []float64, p, q, workers int) (*Solution, *ExactStats, error) {
	return SolveGlobalExactOpt(times, p, q, ExactOptions{Workers: workers})
}

func solveGlobalParallel(times []float64, p, q int, opts ExactOptions) (*Solution, *ExactStats, error) {
	workers := normalizeWorkers(opts.Workers)
	seed := math.Inf(-1)
	if !opts.NoPrune {
		seed = heuristicSeedBound(times, p, q)
	}
	var incumbent atomicFloat64
	incumbent.store(seed)

	treeCount := spantree.CountCompleteBipartite(p, q)
	bits := partitionBits(treeCount, p*q, workers)
	prefixes := spantree.PartitionPrefixes(p*q, bits)

	items := make(chan exactWorkItem, 4*workers)
	prodStats := &ExactStats{}
	var prodErr error
	go func() {
		defer close(items)
		seq := 0
		_, prodErr = grid.EnumerateNonDecreasing(times, p, q, func(arr *grid.Arrangement) bool {
			prodStats.Arrangements++
			prodStats.TreesTheoretical += treeCount
			// The bound test uses the deterministic heuristic seed, not the
			// live incumbent, so the pruned arrangement set — and with it
			// every tree statistic — is identical for every worker count
			// and every run.
			if !opts.NoPrune && ArrangementUpperBound(arr) < seed {
				prodStats.ArrangementsPruned++
				seq++
				return true
			}
			for _, prefix := range prefixes {
				items <- exactWorkItem{seq: seq, arr: arr, prefix: prefix}
			}
			seq++
			return true
		})
	}()

	searchers := make([]*treeSearcher, workers)
	var shared atomicExactStats
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		s := newTreeSearcher(p, q, opts)
		s.resetBest()
		searchers[w] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for item := range items {
				// Candidates strictly below the shared best-so-far can never
				// win (the worker holding that value keeps it locally), so
				// skip their bookkeeping. Counters are taken before the skip,
				// keeping all statistics scheduling-independent.
				s.skipBelow = incumbent.load()
				s.searchArrangement(item.arr, item.seq, item.prefix)
				if s.best.arr != nil {
					incumbent.raise(s.best.obj)
				}
			}
			shared.add(&s.stats)
		}()
	}
	wg.Wait()
	total := &ExactStats{}
	total.Add(prodStats)
	shared.into(total)
	if prodErr != nil {
		return nil, total, prodErr
	}
	var best *exactCandidate
	for _, s := range searchers {
		if s.best.arr != nil && s.best.betterThan(best) {
			best = &s.best
		}
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

// solveArrangementParallel splits the spanning-tree enumeration of a single
// arrangement across workers by partitioning on the first edge-choice
// digits. Results are bit-identical to the serial fixed-arrangement solver.
func solveArrangementParallel(arr *grid.Arrangement, workers int, opts ExactOptions) (*Solution, *ExactStats, error) {
	p, q := arr.P, arr.Q
	treeCount := spantree.CountCompleteBipartite(p, q)
	bits := 0
	if treeCount >= minTreesForSplit {
		for 1<<bits < 4*workers && bits < 10 && bits < p*q {
			bits++
		}
	}
	if bits == 0 {
		serial := opts
		serial.Workers = 1
		return SolveArrangementExactOpt(arr, serial)
	}
	prefixes := spantree.PartitionPrefixes(p*q, bits)
	items := make(chan []bool, len(prefixes))
	for _, prefix := range prefixes {
		items <- prefix
	}
	close(items)

	searchers := make([]*treeSearcher, workers)
	var shared atomicExactStats
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		s := newTreeSearcher(p, q, opts)
		s.resetBest()
		searchers[w] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for prefix := range items {
				s.searchArrangement(arr, 0, prefix)
			}
			shared.add(&s.stats)
		}()
	}
	wg.Wait()
	total := &ExactStats{Arrangements: 1, TreesTheoretical: treeCount}
	shared.into(total)
	var best *exactCandidate
	for _, s := range searchers {
		if s.best.arr != nil && s.best.betterThan(best) {
			best = &s.best
		}
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
