package engine_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"hetgrid/internal/core"
	"hetgrid/internal/distribution"
	"hetgrid/internal/engine"
	"hetgrid/internal/grid"
	"hetgrid/internal/matrix"
)

//
// This file compares implementations of the send path and of the master
// collectives side by side; the package ships the winners, the others live
// here only.
//
//	go test ./internal/engine -run '^$' -bench 'DevelPanelSend|DevelCollectives' -benchmem
//

// stack concatenates r×r blocks vertically, as panelSend stacks a panel.
func stack(parts []*matrix.Dense, r int) *matrix.Dense {
	out := matrix.New(len(parts)*r, r)
	for i, p := range parts {
		out.Slice(i*r, (i+1)*r, 0, r).CopyFrom(p)
	}
	return out
}

// BenchmarkDevelPanelSend times one stacked panel broadcast on a 2×2 world:
// rank 0 stacks four r×r blocks into one payload, as panelSend does, sends
// it along the flat broadcast's three out-edges, and each receiver
// acknowledges it with a 1×1 message. "clone-per-edge" copies the payload
// once per out-edge, as Comm.Send did before it handed its payload over;
// "hand-over" is Comm.Send as it ships. One operation is one panel; B/op and
// allocs/op count every rank.
func BenchmarkDevelPanelSend(b *testing.B) {
	alts := []struct {
		name string
		send func(c *engine.Comm, dst int, tag string, m *matrix.Dense)
	}{
		{"clone-per-edge", func(c *engine.Comm, dst int, tag string, m *matrix.Dense) { c.Send(dst, tag, m.Clone()) }},
		{"hand-over", (*engine.Comm).Send},
	}
	const blocks = 4
	rng := rand.New(rand.NewSource(49))
	ack := matrix.New(1, 1)
	for _, r := range []int{32, 64} {
		parts := make([]*matrix.Dense, blocks)
		for i := range parts {
			parts[i] = matrix.Random(r, r, rng)
		}
		for _, alt := range alts {
			b.Run(fmt.Sprintf("r=%d/%s", r, alt.name), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				_, err := engine.RunOpts(4, engine.Options{}, func(c *engine.Comm) error {
					for i := 0; i < b.N; i++ {
						tag := "p/" + strconv.Itoa(i)
						if c.Rank() != 0 {
							if got := c.Recv(0, tag); got.Rows() != blocks*r {
								return fmt.Errorf("rank %d: %d rows", c.Rank(), got.Rows())
							}
							c.Send(0, tag+"/ack", ack)
							continue
						}
						panel := stack(parts, r)
						for dst := 1; dst < 4; dst++ {
							alt.send(c, dst, tag, panel)
						}
						for src := 1; src < 4; src++ {
							c.Recv(src, tag+"/ack")
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// collectiveAlt is one way of moving a matrix's blocks between rank 0 and
// their owners: scatter is Scatter's contract, gather GatherInto's. commit
// says the owners go on writing their blocks after the gather, as at a
// checkpoint commit, so an alternative that hands blocks over must send
// copies.
type collectiveAlt struct {
	name    string
	scatter func(c *engine.Comm, d distribution.Distribution, full *matrix.Dense, r int) (*engine.BlockStore, error)
	gather  func(c *engine.Comm, d distribution.Distribution, s *engine.BlockStore, tag string, dst *matrix.Dense, region distribution.Region, k int, commit bool) error
}

var collectiveAlts = []collectiveAlt{
	{"per-block", scatterPerBlock, gatherPerBlock},
	{"per-owner", scatterPerOwner, gatherPerOwner},
	{"per-owner-row", engine.Scatter, func(c *engine.Comm, d distribution.Distribution, s *engine.BlockStore, tag string, dst *matrix.Dense, region distribution.Region, k int, _ bool) error {
		return engine.GatherInto(c, d, s, tag, dst, region, k)
	}},
}

// blockOf is the view of block (bi, bj) of m.
func blockOf(m *matrix.Dense, bi, bj, r int) *matrix.Dense {
	return m.Slice(bi*r, (bi+1)*r, bj*r, (bj+1)*r)
}

// scatterPerBlock is the Scatter this package had before: one message per
// remote block, a clone of the block, which the owner keeps as it comes.
func scatterPerBlock(c *engine.Comm, d distribution.Distribution, full *matrix.Dense, r int) (*engine.BlockStore, error) {
	nbr, nbc := d.Blocks()
	me := c.Rank()
	store := &engine.BlockStore{R: r, Blocks: map[[2]int]*matrix.Dense{}}
	for bi := 0; bi < nbr; bi++ {
		for bj := 0; bj < nbc; bj++ {
			owner := distribution.OwnerRank(d, bi, bj)
			tag := "scatter/" + strconv.Itoa(bi) + "/" + strconv.Itoa(bj)
			switch {
			case me == 0 && owner == 0:
				store.Put(bi, bj, blockOf(full, bi, bj, r).Clone())
			case me == 0:
				c.Send(owner, tag, blockOf(full, bi, bj, r).Clone())
			case owner == me:
				store.Put(bi, bj, c.Recv(0, tag))
			}
		}
	}
	return store, nil
}

// gatherPerBlock is the GatherInto this package had before: one message per
// remote block of the region, the block itself (a clone at a commit),
// staged at rank 0 until the last has arrived.
func gatherPerBlock(c *engine.Comm, d distribution.Distribution, s *engine.BlockStore, prefix string, dst *matrix.Dense, region distribution.Region, k int, commit bool) error {
	nbr, nbc := d.Blocks()
	r, me := s.R, c.Rank()
	var staged []*matrix.Dense
	each := func(fn func(bi, bj, owner int, tag string)) {
		for bi := 0; bi < nbr; bi++ {
			for bj := 0; bj < nbc; bj++ {
				if region.Contains(bi, bj, k) {
					fn(bi, bj, distribution.OwnerRank(d, bi, bj), prefix+"/"+strconv.Itoa(bi)+"/"+strconv.Itoa(bj))
				}
			}
		}
	}
	each(func(bi, bj, owner int, tag string) {
		switch {
		case owner == me && me != 0:
			b := s.Get(bi, bj)
			if commit {
				b = b.Clone()
			}
			c.Send(0, tag, b)
		case owner != me && me == 0:
			staged = append(staged, c.Recv(owner, tag))
		}
	})
	if me != 0 {
		return nil
	}
	each(func(bi, bj, owner int, _ string) {
		src := s.Blocks[[2]int{bi, bj}]
		if owner != 0 {
			src, staged = staged[0], staged[1:]
		}
		blockOf(dst, bi, bj, r).CopyFrom(src)
	})
	return nil
}

// ownerBlocks lists, per rank, the blocks of the region at step k that it
// owns, in row-major order.
func ownerBlocks(c *engine.Comm, d distribution.Distribution, region distribution.Region, k int) [][][2]int {
	nbr, nbc := d.Blocks()
	per := make([][][2]int, c.N())
	for bi := 0; bi < nbr; bi++ {
		for bj := 0; bj < nbc; bj++ {
			if region.Contains(bi, bj, k) {
				o := distribution.OwnerRank(d, bi, bj)
				per[o] = append(per[o], [2]int{bi, bj})
			}
		}
	}
	return per
}

// scatterPerOwner sends each owner one pack of all its blocks; the owner
// keeps views into it.
func scatterPerOwner(c *engine.Comm, d distribution.Distribution, full *matrix.Dense, r int) (*engine.BlockStore, error) {
	me := c.Rank()
	store := &engine.BlockStore{R: r, Blocks: map[[2]int]*matrix.Dense{}}
	keep := func(list [][2]int, pack *matrix.Dense) {
		for i, pos := range list {
			store.Put(pos[0], pos[1], pack.Slice(i*r, (i+1)*r, 0, r))
		}
	}
	per := ownerBlocks(c, d, distribution.All, 0)
	if me != 0 {
		if len(per[me]) > 0 {
			keep(per[me], c.Recv(0, "scatter"))
		}
		return store, nil
	}
	for o, list := range per {
		if len(list) == 0 {
			continue
		}
		parts := make([]*matrix.Dense, len(list))
		for i, pos := range list {
			parts[i] = blockOf(full, pos[0], pos[1], r)
		}
		if pack := stack(parts, r); o == 0 {
			keep(list, pack)
		} else {
			c.Send(o, "scatter", pack)
		}
	}
	return store, nil
}

// gatherPerOwner has each owner send rank 0 one pack of all its blocks of
// the region, the owner's copy.
func gatherPerOwner(c *engine.Comm, d distribution.Distribution, s *engine.BlockStore, tag string, dst *matrix.Dense, region distribution.Region, k int, _ bool) error {
	r, me := s.R, c.Rank()
	per := ownerBlocks(c, d, region, k)
	if me != 0 {
		if list := per[me]; len(list) > 0 {
			parts := make([]*matrix.Dense, len(list))
			for i, pos := range list {
				parts[i] = s.Get(pos[0], pos[1])
			}
			c.Send(0, tag, stack(parts, r))
		}
		return nil
	}
	packs := make([]*matrix.Dense, c.N())
	for o := 1; o < c.N(); o++ {
		if len(per[o]) > 0 {
			packs[o] = c.Recv(o, tag)
		}
	}
	for o, list := range per {
		for i, pos := range list {
			src := packs[o]
			if o == 0 {
				src = s.Get(pos[0], pos[1])
			} else {
				src = src.Slice(i*r, (i+1)*r, 0, r)
			}
			blockOf(dst, pos[0], pos[1], r).CopyFrom(src)
		}
	}
	return nil
}

// develLayout is the het-panel layout of the cycle-times {1,2,3,5} on a 2×2
// grid over nb×nb blocks for LU, searched as the benchmark's engine
// workloads search it (panels up to 8×8).
func develLayout(tb testing.TB, nb int) distribution.Distribution {
	tb.Helper()
	sol, _, err := core.SolveArrangementExactOpt(grid.MustNew([][]float64{{1, 2}, {3, 5}}), core.ExactOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	rowOrd, colOrd := distribution.Trailing.Orderings()
	pan, err := distribution.BestPanel(sol, 8, 8, rowOrd, colOrd)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := pan.Distribution(nb, nb)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// spmd runs body on every rank of a 4-rank world: in-process, or on a
// fresh loopback-TCP cluster of two processes with two ranks each.
func spmd(tb testing.TB, f fabric, body func(c *engine.Comm) error) {
	tb.Helper()
	if errs, _, _ := f.run(tb, 4, body); errors.Join(errs...) != nil {
		tb.Fatal(errors.Join(errs...))
	}
}

// barrier holds every rank until all have arrived.
func barrier(c *engine.Comm, tag string) {
	one := matrix.New(1, 1)
	c.Send(0, tag+"/in", one)
	if c.Rank() == 0 {
		for n := 0; n < c.N(); n++ {
			c.Recv(n, tag+"/in")
		}
		for n := 0; n < c.N(); n++ {
			c.Send(n, tag+"/out", one)
		}
	}
	c.Recv(0, tag+"/out")
}

// BenchmarkDevelCollectives times the master collectives at the size of
// the benchmark's lu-recover and chol-tcp (N = 1024, r = 32, the 2×2
// het-panel layout), in-process and over loopback TCP, one message per
// block against one pack per owner and one per owner and block row (the
// shipped Scatter and GatherInto). One operation is a scatter of the
// matrix, a full gather of it, or every checkpoint commit of an LU run that
// commits every 4 steps (the changed blocks only, from a step-0 snapshot),
// each followed by a barrier so the clock at rank 0 stops when every rank
// is done. B/op and allocs/op count every rank of the process.
func BenchmarkDevelCollectives(b *testing.B) {
	const nb, r, every = 32, 32, 4
	d := develLayout(b, nb)
	a := matrix.Random(nb*r, nb*r, rand.New(rand.NewSource(50)))
	ops := []struct {
		name string
		run  func(c *engine.Comm, alt collectiveAlt, s *engine.BlockStore, dst *matrix.Dense, i int) error
	}{
		{"scatter", func(c *engine.Comm, alt collectiveAlt, _ *engine.BlockStore, _ *matrix.Dense, _ int) error {
			var in *matrix.Dense
			if c.Rank() == 0 {
				in = a
			}
			_, err := alt.scatter(c, d, in, r)
			return err
		}},
		{"gather", func(c *engine.Comm, alt collectiveAlt, s *engine.BlockStore, dst *matrix.Dense, i int) error {
			return alt.gather(c, d, s, "g/"+strconv.Itoa(i), dst, distribution.All, 0, false)
		}},
		{"commit", func(c *engine.Comm, alt collectiveAlt, s *engine.BlockStore, dst *matrix.Dense, i int) error {
			for k := every; k < nb; k += every {
				tag := fmt.Sprintf("c/%d/%d", i, k)
				if err := alt.gather(c, d, s, tag, dst, distribution.Trailing, k-every, true); err != nil {
					return err
				}
				// The kernel's data dependencies keep the ranks within a
				// step or so of each other; without it the senders would
				// queue every commit ahead of rank 0.
				barrier(c, tag)
			}
			return nil
		}},
	}
	for _, f := range []fabric{memFabric, tcpFabric} {
		for _, op := range ops {
			for _, alt := range collectiveAlts {
				b.Run(fmt.Sprintf("%s/%s/%s", f.name, op.name, alt.name), func(b *testing.B) {
					b.ReportAllocs()
					spmd(b, f, func(c *engine.Comm) error {
						var in, dst *matrix.Dense
						if c.Rank() == 0 {
							in, dst = a, matrix.New(nb*r, nb*r)
						}
						s, err := alt.scatter(c, d, in, r)
						if err != nil {
							return err
						}
						// Start the clock once every rank holds its blocks.
						barrier(c, "start")
						if c.Rank() == 0 {
							b.ResetTimer()
						}
						for i := 0; i < b.N; i++ {
							if err := op.run(c, alt, s, dst, i); err != nil {
								return err
							}
							barrier(c, "op/"+strconv.Itoa(i))
						}
						return nil
					})
				})
			}
		}
	}
}

// TestDevelCollectivesAgree keeps the bench honest: on a non-square layout
// every alternative scatters the same blocks and gathers, and splices a
// selection into, the same matrix, in-process and over TCP.
func TestDevelCollectivesAgree(t *testing.T) {
	const nbr, nbc, r = 5, 7, 3
	d, err := distribution.NewKL(grid.MustNew([][]float64{{1, 2}, {3, 5}}), nbr, nbc)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	a, base := matrix.Random(nbr*r, nbc*r, rng), matrix.Random(nbr*r, nbc*r, rng)
	for _, f := range []fabric{memFabric, tcpFabric} {
		var got [][2]*matrix.Dense
		for _, alt := range collectiveAlts {
			full, spliced := matrix.New(nbr*r, nbc*r), base.Clone()
			spmd(t, f, func(c *engine.Comm) error {
				var in, f, sp *matrix.Dense
				if c.Rank() == 0 {
					in, f, sp = a, full, spliced
				}
				s, err := alt.scatter(c, d, in, r)
				if err != nil {
					return err
				}
				for pos, blk := range s.Blocks {
					if distribution.OwnerRank(d, pos[0], pos[1]) != c.Rank() || !blk.Equal(blockOf(a, pos[0], pos[1], r)) {
						return fmt.Errorf("%s: rank %d holds block %v wrongly", alt.name, c.Rank(), pos)
					}
				}
				if err := alt.gather(c, d, s, "full", f, distribution.All, 0, false); err != nil {
					return err
				}
				return alt.gather(c, d, s, "sel", sp, distribution.TrailingLower, 1, true)
			})
			got = append(got, [2]*matrix.Dense{full, spliced})
		}
		for i, g := range got {
			if !g[0].Equal(a) || !g[1].Equal(got[0][1]) {
				t.Fatalf("%s: %s gathers a different matrix", f.name, collectiveAlts[i].name)
			}
		}
		if got[0][1].Equal(a) || got[0][1].Equal(base) {
			t.Fatal("the selection picked everything or nothing")
		}
	}
}
