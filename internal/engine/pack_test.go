package engine_test

// The master collectives' packs, held to a property on both fabrics:
// Scatter then GatherInto on random layouts — uniform, KL and het-panel,
// square and not, owners holding no block, random regions and steps —
// returns the region's blocks bit for bit, leaves the others, sends exactly
// distribution.MasterVolume, and leaves the destination untouched when a
// sender dies before its packs leave.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"hetgrid/internal/core"
	"hetgrid/internal/distribution"
	"hetgrid/internal/engine"
	enginenet "hetgrid/internal/engine/net"
	"hetgrid/internal/grid"
	"hetgrid/internal/leakcheck"
	"hetgrid/internal/matrix"
)

// packTrial is one Scatter → GatherInto: a layout, inputs and the region
// and step the gather selects.
type packTrial struct {
	d       distribution.Distribution
	r       int
	a, base *matrix.Dense
	region  distribution.Region
	k       int
}

func (tr packTrial) String() string {
	p, q := tr.d.Dims()
	nbr, nbc := tr.d.Blocks()
	return fmt.Sprintf("%s %d×%d grid, %d×%d blocks of %d, region %d at step %d", tr.d.Name(), p, q, nbr, nbc, tr.r, tr.region, tr.k)
}

// randomTrial draws a layout of one of the three families on a grid of up
// to 3×3 and up to 6×6 blocks, so some owners hold no block, and a
// selection that is every block a quarter of the time and otherwise a
// random region at a random step, up to one past the last block.
func randomTrial(t *testing.T, rng *rand.Rand) packTrial {
	t.Helper()
	p, q := 1+rng.Intn(3), 1+rng.Intn(3)
	nbr, nbc := 1+rng.Intn(6), 1+rng.Intn(6)
	times := make([][]float64, p)
	for i := range times {
		times[i] = make([]float64, q)
		for j := range times[i] {
			times[i][j] = 1 + 5*rng.Float64()
		}
	}
	arr := grid.MustNew(times)
	var d distribution.Distribution
	var err error
	switch rng.Intn(3) {
	case 0:
		d, err = distribution.UniformBlockCyclic(p, q, nbr, nbc)
	case 1:
		d, err = distribution.NewKL(arr, nbr, nbc)
	default:
		// A panel gives every processor a block: it needs the room.
		nbr, nbc = max(nbr, p), max(nbc, q)
		var sol *core.Solution
		if sol, _, err = core.SolveArrangementExactOpt(arr, core.ExactOptions{}); err != nil {
			t.Fatal(err)
		}
		var pan *distribution.Panel
		if pan, err = distribution.NewPanel(sol, p+rng.Intn(nbr-p+1), q+rng.Intn(nbc-q+1), distribution.Contiguous, distribution.Interleaved); err != nil {
			t.Fatal(err)
		}
		d, err = pan.Distribution(nbr, nbc)
	}
	if err != nil {
		t.Fatal(err)
	}
	r := 1 + rng.Intn(4)
	tr := packTrial{d: d, r: r, a: matrix.Random(nbr*r, nbc*r, rng), base: matrix.Random(nbr*r, nbc*r, rng)}
	if rng.Intn(4) > 0 {
		tr.region = []distribution.Region{distribution.Trailing, distribution.TrailingLower}[rng.Intn(2)]
		tr.k = rng.Intn(max(nbr, nbc) + 1)
	}
	return tr
}

// picks reports whether the trial's gather selects (bi, bj).
func (tr packTrial) picks(bi, bj int) bool { return tr.region.Contains(bi, bj, tr.k) }

// want is the destination a completed gather leaves: the picked blocks of
// a over base.
func (tr packTrial) want() *matrix.Dense {
	w := tr.base.Clone()
	nbr, nbc := tr.d.Blocks()
	r := tr.r
	for bi := 0; bi < nbr; bi++ {
		for bj := 0; bj < nbc; bj++ {
			if tr.picks(bi, bj) {
				w.Slice(bi*r, (bi+1)*r, bj*r, (bj+1)*r).CopyFrom(tr.a.Slice(bi*r, (bi+1)*r, bj*r, (bj+1)*r))
			}
		}
	}
	return w
}

// victim is a rank other than 0 that owns a picked block, the one a
// failing sender must be for rank 0 to wait on it; -1 when there is none.
func (tr packTrial) victim(rng *rand.Rand) int {
	nbr, nbc := tr.d.Blocks()
	var owners []int
	for bi := 0; bi < nbr; bi++ {
		for bj := 0; bj < nbc; bj++ {
			if o := distribution.OwnerRank(tr.d, bi, bj); o != 0 && tr.picks(bi, bj) {
				owners = append(owners, o)
			}
		}
	}
	if len(owners) == 0 {
		return -1
	}
	return owners[rng.Intn(len(owners))]
}

// body is the trial's SPMD body: Scatter, a check that the rank holds
// exactly its blocks of a, bit for bit, then — unless the rank is fail,
// which returns errLost instead — GatherInto dst at rank 0.
func (tr packTrial) body(dst *matrix.Dense, fail int, errLost error) func(c *engine.Comm) error {
	return func(c *engine.Comm) error {
		me := c.Rank()
		var in, out *matrix.Dense
		if me == 0 {
			in, out = tr.a, dst
		}
		s, err := engine.Scatter(c, tr.d, in, tr.r)
		if err != nil {
			return err
		}
		nbr, nbc := tr.d.Blocks()
		r, held := tr.r, 0
		for bi := 0; bi < nbr; bi++ {
			for bj := 0; bj < nbc; bj++ {
				if distribution.OwnerRank(tr.d, bi, bj) != me {
					continue
				}
				held++
				b, ok := s.Blocks[[2]int{bi, bj}]
				if !ok || !b.Equal(tr.a.Slice(bi*r, (bi+1)*r, bj*r, (bj+1)*r)) {
					return fmt.Errorf("rank %d: block (%d,%d) scattered wrong", me, bi, bj)
				}
			}
		}
		if len(s.Blocks) != held {
			return fmt.Errorf("rank %d holds %d blocks, owns %d", me, len(s.Blocks), held)
		}
		if me == fail {
			return errLost
		}
		return engine.GatherInto(c, tr.d, s, "rt", out, tr.region, tr.k)
	}
}

// fabric runs an SPMD body over all ranks of a world on one kind of
// transport and returns each process's error and the traffic summed over
// the processes.
type fabric struct {
	name string
	run  func(tb testing.TB, n int, body func(c *engine.Comm) error) (errs []error, msgs, bytes int)
}

var memFabric = fabric{"mem", func(_ testing.TB, n int, body func(c *engine.Comm) error) ([]error, int, int) {
	w, err := engine.RunOpts(n, engine.Options{}, body)
	return []error{err}, w.Messages(), w.Bytes()
}}

// tcpFabric runs the world on a fresh two-process loopback-TCP cluster
// (one process for a one-rank world), closed before it returns.
var tcpFabric = fabric{"tcp", func(tb testing.TB, n int, body func(c *engine.Comm) error) ([]error, int, int) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	fabs, _, err := enginenet.Loopback(ctx, n, min(2, n), nil)
	if err != nil {
		tb.Fatal(err)
	}
	defer func() {
		for _, f := range fabs {
			f.Close(ctx)
		}
	}()
	errs := make([]error, len(fabs))
	worlds := make([]*engine.World, len(fabs))
	var wg sync.WaitGroup
	for p, f := range fabs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worlds[p], errs[p] = engine.RunOpts(n, engine.Options{Transport: f, LocalRanks: f.LocalRanks()}, body)
		}()
	}
	wg.Wait()
	msgs, bytes := 0, 0
	for _, w := range worlds {
		msgs += w.Messages()
		bytes += w.Bytes()
	}
	return errs, msgs, bytes
}}

// roundTrips runs trials random trials on f: each must gather the picked
// blocks bit for bit, leave the rest of the destination, and move exactly
// one MasterVolume for the scatter and one for the selection. The draws
// must have covered every family, a non-square block matrix, an owner of
// no block and a partial selection.
func roundTrips(t *testing.T, f fabric, trials int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	baseline := runtime.NumGoroutine()
	seen := map[string]bool{}
	for i := 0; i < trials; i++ {
		tr := randomTrial(t, rng)
		p, q := tr.d.Dims()
		nbr, nbc := tr.d.Blocks()
		dst := tr.base.Clone()
		errs, msgs, bytes := f.run(t, p*q, tr.body(dst, -1, nil))
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("%s: trial %d, %v: %v", f.name, i, tr, err)
		}
		if !dst.Equal(tr.want()) {
			t.Fatalf("%s: trial %d, %v: the gathered matrix differs", f.name, i, tr)
		}
		block := float64(8 * tr.r * tr.r)
		scattered, gathered := distribution.MasterVolume(tr.d, block, distribution.All, 0), distribution.MasterVolume(tr.d, block, tr.region, tr.k)
		if msgs != scattered.Messages+gathered.Messages || bytes != int(scattered.Bytes+gathered.Bytes) {
			t.Fatalf("%s: trial %d, %v: %d messages, %d bytes; want %+v scattered + %+v gathered", f.name, i, tr, msgs, bytes, *scattered, *gathered)
		}
		seen[tr.d.Name()] = true
		seen["non-square"] = seen["non-square"] || nbr != nbc
		seen["idle owner"] = seen["idle owner"] || nbr < p || nbc < q
		seen["partial"] = seen["partial"] || tr.region != distribution.All
	}
	for _, k := range []string{"uniform-cyclic", "kalinov-lastovetsky", "het-panel", "non-square", "idle owner", "partial"} {
		if !seen[k] {
			t.Errorf("%s: %d trials drew no %s case", f.name, trials, k)
		}
	}
	leakcheck.Settle(t, baseline)
}

// aborts runs trials random trials on f in which one owner of a picked
// block fails after the scatter instead of sending its packs: its process
// reports the failure and rank 0's destination is exactly as it was.
func aborts(t *testing.T, f fabric, trials int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	baseline := runtime.NumGoroutine()
	lost := errors.New("sender lost")
	for ran := 0; ran < trials; {
		tr := randomTrial(t, rng)
		fail := tr.victim(rng)
		if fail < 0 {
			continue
		}
		ran++
		p, q := tr.d.Dims()
		dst := tr.base.Clone()
		errs, _, _ := f.run(t, p*q, tr.body(dst, fail, lost))
		if !errors.Is(errors.Join(errs...), lost) {
			t.Fatalf("%s: %v, rank %d failing: want its failure, got %v", f.name, tr, fail, errs)
		}
		if !dst.Equal(tr.base) {
			t.Fatalf("%s: %v, rank %d failing: an aborted gather wrote into its destination", f.name, tr, fail)
		}
	}
	leakcheck.Settle(t, baseline)
}

func TestPackedRoundTripMem(t *testing.T) { roundTrips(t, memFabric, 300, 50) }

func TestPackedRoundTripTCP(t *testing.T) { roundTrips(t, tcpFabric, 40, 51) }

func TestPackedGatherAbortMem(t *testing.T) { aborts(t, memFabric, 100, 52) }

func TestPackedGatherAbortTCP(t *testing.T) { aborts(t, tcpFabric, 20, 53) }
