package hetgrid

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"hetgrid/internal/distribution"
	"hetgrid/internal/leakcheck"
	"hetgrid/internal/matrix"
)

// TestConformance is the execution contract as one table. Every cell runs
// DistributedMultiply or DistributedFactor on the in-process 2×2 grid of
// cycle-times {1, 2, 3, 5} at nb = 6 and checks one assertion set:
//
//   - the result is bit-identical to the serial Multiply or Factor under the
//     same numerics (QR: the packed factors, Q and the operation counts), or
//     the error is the *RankFailure of the scheduled crash;
//   - a fault-free MatMul, LU or Cholesky run is internally consistent (the
//     per-rank and per-pair counters sum to the totals, nothing is stranded)
//     and its kernel moves the bytes internal/distribution's closed-form
//     volumes predict, under every broadcast kind, and under the flat one
//     sends their message count too (QR waits for ROADMAP item 8);
//   - a recovered run reports one more attempt than recoveries and no more
//     crashes than scheduled, and resumes from a step CheckpointEvery
//     divides;
//   - no goroutine outlives the run;
//   - a watchdog fails a hung cell by name.
//
// The cells:
//
//   - clean: every kernel × layout {uniform, kl, panel} × broadcast ×
//     numerics × parallelism {1, 3} at r = 3, where every block product runs
//     the scalar reference; and every kernel × numerics × parallelism at
//     r = 20 (QR also r = 40), the packed update with rims on every tile and
//     QR's compact-WY formed in two chunks, layout and broadcast rotated;
//   - crash: every fail-stop crash of one rank (0–3) entering one step (0–5),
//     CheckpointEvery {1, 3}, Recover on and off;
//   - pair: every ordered pair of crashes with Recover, the second naming a
//     rank of the survivors' world at the same or a later step.
//
// Fault cells take (layout, broadcast, numerics, parallelism) from a
// rotation through all 48 combinations, so each meets every kernel under
// faults. The panel layout is Plan.BestPanel(4, 4, kernel).
func TestConformance(t *testing.T) {
	const nb = 6
	plan, err := Balance([]float64{1, 2, 3, 5}, 2, 2, StrategyExact)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := Uniform(2, 2, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	kl, err := KalinovLastovetsky(plan, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	kernels := []Kernel{MatMul, LU, Cholesky, QR}
	layouts := []string{"uniform", "kl", "panel"}
	dists := map[Kernel]map[string]Distribution{}
	for _, k := range kernels {
		layout, err := plan.BestPanel(4, 4, k)
		if err != nil {
			t.Fatal(err)
		}
		panel, err := layout.Distribute(nb, nb)
		if err != nil {
			t.Fatal(err)
		}
		dists[k] = map[string]Distribution{"uniform": uniform, "kl": kl, "panel": panel}
	}
	bcasts := []BroadcastKind{FlatBroadcast, RingBroadcast, PipelinedRingBroadcast, TreeBroadcast}
	modes := []Numerics{Strict, Fast}
	workers := []int{1, 3}
	var rotation []confSetup
	for _, l := range layouts {
		for _, b := range bcasts {
			for _, m := range modes {
				for _, w := range workers {
					rotation = append(rotation, confSetup{l, b, m, w})
				}
			}
		}
	}

	var cells []confCell
	for _, k := range kernels {
		for _, s := range rotation {
			cells = append(cells, confCell{kernel: k, r: 3, confSetup: s})
		}
		sizes := []int{20}
		if k == QR {
			sizes = append(sizes, 40)
		}
		i := 0
		for _, r := range sizes {
			for _, m := range modes {
				for _, w := range workers {
					// A stride coprime to 48 varies layout and broadcast.
					s := rotation[i*13%len(rotation)]
					s.numerics, s.workers = m, w
					cells = append(cells, confCell{kernel: k, r: r, confSetup: s})
					i++
				}
			}
		}
		i = 0
		for rank := 0; rank < 4; rank++ {
			for step := 0; step < nb; step++ {
				for _, every := range []int{1, 3} {
					for _, recover := range []bool{true, false} {
						cells = append(cells, confCell{kernel: k, r: 3, confSetup: rotation[i%len(rotation)],
							faults: &FaultOptions{Crashes: []CrashPoint{{Rank: rank, Step: step}}, Recover: recover, CheckpointEvery: every}})
						i++
					}
				}
			}
		}
		for first := 0; first < 4; first++ {
			for s1 := 0; s1 < nb; s1++ {
				for second := 0; second < 3; second++ {
					for s2 := s1; s2 < nb; s2++ {
						cells = append(cells, confCell{kernel: k, r: 3, confSetup: rotation[i%len(rotation)],
							faults: &FaultOptions{Crashes: []CrashPoint{{Rank: first, Step: s1}, {Rank: second, Step: s2}}, Recover: true}})
						i++
					}
				}
			}
		}
	}
	t.Logf("%d cells", len(cells))

	// The inputs of each kernel and block size, and the serial oracle of
	// each (kernel, layout, numerics, block size).
	rng := rand.New(rand.NewSource(41))
	type inputKey struct {
		k Kernel
		r int
	}
	inputs := map[inputKey][]*Matrix{}
	type oracleKey struct {
		inputKey
		layout string
		mode   Numerics
	}
	oracles := map[oracleKey]confResult{}

	// Warm the process-wide compute pool up: its workers start with the
	// first parallel block update and stay, which the cells' goroutine
	// counts must not see as a leak.
	a, b := matrix.Random(nb*3, nb*3, rng), matrix.Random(nb*3, nb*3, rng)
	if _, _, err := DistributedMultiply(uniform, a, b, 3, WithParallelism(3)); err != nil {
		t.Fatal(err)
	}
	if n, _, _, _ := matrix.PoolStats(); n == 0 {
		t.Fatal("a parallel run did not start the compute pool")
	}

	for _, c := range cells {
		ik := inputKey{c.kernel, c.r}
		in, ok := inputs[ik]
		if !ok {
			n := nb * c.r
			switch c.kernel {
			case MatMul:
				in = []*Matrix{matrix.Random(n, n, rng), matrix.Random(n, n, rng)}
			case LU:
				in = []*Matrix{matrix.RandomWellConditioned(n, rng)}
			case Cholesky:
				in = []*Matrix{matrix.RandomSPD(n, rng)}
			case QR:
				in = []*Matrix{matrix.Random(n, n, rng)}
			}
			inputs[ik] = in
		}
		d := dists[c.kernel][c.layout]
		key := oracleKey{ik, c.layout, c.numerics}
		want, ok := oracles[key]
		if !ok {
			want = confRun(c.kernel, d, in, c.r, false, WithNumerics(c.numerics))
			if want.err != nil {
				t.Fatalf("serial %v: %v", c.kernel, want.err)
			}
			oracles[key] = want
		}
		t.Run(c.name(), func(t *testing.T) { c.check(t, d, in, want) })
	}
}

// confSetup is the part of a cell the fault cells rotate through.
type confSetup struct {
	layout   string
	bcast    BroadcastKind
	numerics Numerics
	workers  int
}

// confCell is one run of the conformance matrix: faults is nil for a
// fault-free cell.
type confCell struct {
	kernel Kernel
	r      int
	confSetup
	faults *FaultOptions
}

func (c confCell) name() string {
	s := fmt.Sprintf("%v/%v/%v/p%d", c.layout, c.bcast, c.numerics, c.workers)
	f := c.faults
	switch {
	case f == nil:
		return fmt.Sprintf("clean/%v/r%d/%s", c.kernel, c.r, s)
	case len(f.Crashes) == 1:
		mode := "abort"
		if f.Recover {
			mode = "recover"
		}
		cp := f.Crashes[0]
		return fmt.Sprintf("crash/%v/rank%d@%d/every%d/%s/%s", c.kernel, cp.Rank, cp.Step, f.CheckpointEvery, mode, s)
	default:
		c1, c2 := f.Crashes[0], f.Crashes[1]
		return fmt.Sprintf("pair/%v/rank%d@%d,rank%d@%d/%s", c.kernel, c1.Rank, c1.Step, c2.Rank, c2.Step, s)
	}
}

// confResult is what a run hands back: the product, or the packed factors
// and for QR the Q its taus rebuild, with the factorization's operation
// counts.
type confResult struct {
	mats  []*Matrix
	ops   []int
	stats *ExecStats
	err   error
}

// confRun runs kernel k on d serially or distributed.
func confRun(k Kernel, d Distribution, in []*Matrix, r int, distributed bool, opts ...Option) confResult {
	if k == MatMul {
		if !distributed {
			c, err := Multiply(d, in[0], in[1], opts...)
			return confResult{mats: []*Matrix{c}, err: err}
		}
		c, st, err := DistributedMultiply(d, in[0], in[1], r, opts...)
		return confResult{mats: []*Matrix{c}, stats: st, err: err}
	}
	var f *Factorization
	var st *ExecStats
	var err error
	if distributed {
		f, st, err = DistributedFactor(k, d, in[0], r, opts...)
	} else {
		f, err = Factor(k, d, in[0], opts...)
	}
	if err != nil {
		return confResult{err: err}
	}
	res := confResult{mats: []*Matrix{f.Packed()}, ops: f.Ops(), stats: st}
	if k == QR {
		res.mats = append(res.mats, f.Q(r))
	}
	return res
}

// cellTimeout bounds one cell's run; a cell takes milliseconds.
const cellTimeout = time.Minute

// check runs the cell under its watchdog and applies the assertion set.
func (c confCell) check(t *testing.T, d Distribution, in []*Matrix, want confResult) {
	opts := []Option{WithBroadcast(c.bcast), WithNumerics(c.numerics), WithParallelism(c.workers)}
	if c.faults != nil {
		opts = append(opts, WithFaults(*c.faults))
	}
	baseline := runtime.NumGoroutine()
	done := make(chan confResult, 1)
	go func() {
		// A panic fails this cell, not the whole binary.
		defer func() {
			if p := recover(); p != nil {
				done <- confResult{err: fmt.Errorf("panic: %v\n%s", p, debug.Stack())}
			}
		}()
		done <- confRun(c.kernel, d, in, c.r, true, opts...)
	}()
	watchdog := time.NewTimer(cellTimeout)
	defer watchdog.Stop()
	var got confResult
	select {
	case got = <-done:
	case <-watchdog.C:
		buf := make([]byte, 1<<20)
		t.Fatalf("no result after %v\n%s", cellTimeout, buf[:runtime.Stack(buf, true)])
	}
	leakcheck.Settle(t, baseline)

	if f := c.faults; f != nil && !f.Recover {
		var rf *RankFailure
		if cp := f.Crashes[0]; !errors.As(got.err, &rf) || rf.Rank != cp.Rank || rf.Step != cp.Step || rf.Detected {
			t.Fatalf("error %v, want the fail-stop crash of rank %d at step %d", got.err, cp.Rank, cp.Step)
		}
		return
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	for i := range want.mats {
		if !got.mats[i].Equal(want.mats[i]) {
			t.Fatal("result not bit-identical to the serial run")
		}
	}
	if c.kernel == QR && !slices.Equal(got.ops, want.ops) {
		t.Fatalf("operation counts %v, serial %v", got.ops, want.ops)
	}
	if c.faults == nil {
		if c.kernel != QR {
			checkTraffic(t, c.kernel, d, c.bcast, c.r, len(in), got.stats)
		}
		return
	}
	// Crashes at one step can fire in one attempt.
	fs, crashes := got.stats.Faults, len(c.faults.Crashes)
	if fs.Recoveries < 1 || fs.Recoveries > fs.Crashes || fs.Crashes > crashes || fs.Attempts != fs.Recoveries+1 {
		t.Fatalf("fault stats %+v for %d scheduled crashes", fs, crashes)
	}
	if crashes > 1 {
		return
	}
	// The run resumes from a commit, at a multiple of CheckpointEvery.
	// Which one depends on how far rank 0 got before the abort reached it,
	// and may lie past the crash step when the crashed rank owns nothing
	// the later steps touch.
	if every := c.faults.CheckpointEvery; fs.ResumedSteps%every != 0 {
		t.Fatalf("resumed at step %d, commits every %d steps", fs.ResumedSteps, every)
	}
}

// checkTraffic holds a fault-free run's counters to themselves and its
// kernel's traffic to the closed-form volume. The kernel's part is the
// total less the scatter of the inputs and the gather of the result: one
// block message each for every block rank 0 does not own.
func checkTraffic(t *testing.T, k Kernel, d Distribution, bk BroadcastKind, r, inputs int, st *ExecStats) {
	t.Helper()
	var msgsSent, msgsRecv, bytesSent, bytesRecv int
	for _, rs := range st.Ranks {
		msgsSent += rs.MsgsSent
		msgsRecv += rs.MsgsRecv
		bytesSent += rs.BytesSent
		bytesRecv += rs.BytesRecv
	}
	if msgsSent != st.Messages || bytesSent != st.Bytes {
		t.Fatalf("per-rank sums (%d msgs, %d bytes) != totals (%d, %d)", msgsSent, bytesSent, st.Messages, st.Bytes)
	}
	if msgsRecv != msgsSent || bytesRecv != bytesSent {
		t.Fatalf("received (%d msgs, %d bytes) != sent (%d, %d): stranded messages", msgsRecv, bytesRecv, msgsSent, bytesSent)
	}
	var pairMsgs, pairBytes int
	for _, row := range st.Pairs {
		for _, ps := range row {
			pairMsgs += ps.Messages
			pairBytes += ps.Bytes
		}
	}
	if pairMsgs != st.Messages || pairBytes != st.Bytes {
		t.Fatalf("pair sums (%d msgs, %d bytes) != totals (%d, %d)", pairMsgs, pairBytes, st.Messages, st.Bytes)
	}

	block := 8 * r * r
	nbr, nbc := d.Blocks()
	remote := 0
	for bi := 0; bi < nbr; bi++ {
		for bj := 0; bj < nbc; bj++ {
			if distribution.OwnerRank(d, bi, bj) != 0 {
				remote++
			}
		}
	}
	volume := map[Kernel]func(distribution.Distribution, float64) (*distribution.CommVolume, error){
		MatMul: distribution.MMCommVolume, LU: distribution.LUCommVolume, Cholesky: distribution.CholeskyCommVolume,
	}[k]
	vol, err := volume(d, float64(block))
	if err != nil {
		t.Fatal(err)
	}
	msgs, bytes := st.Messages-(inputs+1)*remote, st.Bytes-(inputs+1)*remote*block
	if float64(bytes) != vol.Bytes {
		t.Fatalf("kernel moved %d bytes, analytics says %v", bytes, vol.Bytes)
	}
	// The pipelined ring splits the same bytes into more messages.
	if bk == FlatBroadcast && msgs != vol.Messages {
		t.Fatalf("kernel sent %d messages, analytics says %d", msgs, vol.Messages)
	}
}
