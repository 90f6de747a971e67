package distribution

import (
	"fmt"
	"sort"
)

// Move is one block transfer in a redistribution plan.
type Move struct {
	// Bi, Bj locate the block; Src and Dst are flat node ids (pi·q + pj).
	Bi, Bj   int
	Src, Dst int
}

// RedistPlan is the set of block moves turning distribution From into To.
type RedistPlan struct {
	From, To Distribution
	Moves    []Move
	// PairCounts[src][dst] counts blocks moving src → dst.
	PairCounts map[int]map[int]int
}

// PlanRedistribution computes the block moves needed to change ownership
// from one distribution to another over the same block matrix and grid.
// Blocks whose owner is unchanged do not move. Moves are emitted in
// row-major block order, which keeps plans deterministic.
func PlanRedistribution(from, to Distribution) (*RedistPlan, error) {
	fp, fq := from.Dims()
	tp, tq := to.Dims()
	if fp != tp || fq != tq {
		return nil, fmt.Errorf("distribution: redistribution between %d×%d and %d×%d grids", fp, fq, tp, tq)
	}
	fnbr, fnbc := from.Blocks()
	tnbr, tnbc := to.Blocks()
	if fnbr != tnbr || fnbc != tnbc {
		return nil, fmt.Errorf("distribution: redistribution between %d×%d and %d×%d block matrices", fnbr, fnbc, tnbr, tnbc)
	}
	plan := &RedistPlan{From: from, To: to, PairCounts: map[int]map[int]int{}}
	for bi := 0; bi < fnbr; bi++ {
		for bj := 0; bj < fnbc; bj++ {
			src, dst := OwnerRank(from, bi, bj), OwnerRank(to, bi, bj)
			if src == dst {
				continue
			}
			plan.Moves = append(plan.Moves, Move{Bi: bi, Bj: bj, Src: src, Dst: dst})
			if plan.PairCounts[src] == nil {
				plan.PairCounts[src] = map[int]int{}
			}
			plan.PairCounts[src][dst]++
		}
	}
	return plan, nil
}

// BlockCount returns the number of blocks that move.
func (p *RedistPlan) BlockCount() int { return len(p.Moves) }

// Bytes returns the redistribution volume for blockBytes-sized blocks.
func (p *RedistPlan) Bytes(blockBytes float64) float64 {
	return float64(len(p.Moves)) * blockBytes
}

// Pairs returns the (src, dst, count) triples in deterministic order.
func (p *RedistPlan) Pairs() [](struct{ Src, Dst, Count int }) {
	var out []struct{ Src, Dst, Count int }
	srcs := make([]int, 0, len(p.PairCounts))
	for s := range p.PairCounts {
		srcs = append(srcs, s)
	}
	sort.Ints(srcs)
	for _, s := range srcs {
		dsts := make([]int, 0, len(p.PairCounts[s]))
		for d := range p.PairCounts[s] {
			dsts = append(dsts, d)
		}
		sort.Ints(dsts)
		for _, d := range dsts {
			out = append(out, struct{ Src, Dst, Count int }{s, d, p.PairCounts[s][d]})
		}
	}
	return out
}
