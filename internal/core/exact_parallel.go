package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"hetgrid/internal/grid"
)

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
// spanning trees apiece) and streams a copy of it to the workers, one
// arrangement per item, made in an arrangement a worker handed back where
// it can. Each worker searches its items with one reusable treeSearcher
// and shares nothing with the others. After the join the searchers'
// statistics are summed and the best of their candidates under betterThan
// wins. Every arrangement is walked whole by one worker, so the solution
// and all three counters are bit-identical for every worker count, 1
// included.
func search(p, q, trees int, opts ExactOptions, produce func(emit func(*grid.Arrangement) bool) error) (*Solution, *ExactStats, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// A few items per worker let the producer run ahead of the workers.
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
				held := s.best.arr
				s.searchArrangement(item.arr, item.seq)
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
	err := produce(func(arr *grid.Arrangement) bool {
		seq := total.Arrangements
		total.Arrangements++
		total.TreesTheoretical += trees
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
