package hetgrid

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"hetgrid/internal/distribution"
	enginenet "hetgrid/internal/engine/net"
	"hetgrid/internal/grid"
	"hetgrid/internal/leakcheck"
	"hetgrid/internal/matrix"
)

// TestConformance is the execution contract as one table. Every cell runs
// DistributedMultiply or DistributedFactor on the 2×2 grid of cycle-times
// {1, 2, 3, 5} or a 2×3 grid at nb = 6 and checks one assertion set:
//
//   - the result is bit-identical to the serial Multiply or Factor under the
//     same numerics (QR: the packed factors, Q and the operation counts), or
//     the error is the *RankFailure of the scheduled crash;
//   - a fault-free run in process is internally consistent (one counter
//     per rank, the per-rank and per-pair counters sum to the totals,
//     nothing is stranded) and its kernel moves the bytes
//     internal/distribution's closed-form volumes predict, under every
//     broadcast kind, and under the flat one sends their message count too;
//     no fault-free run records spans;
//   - a recovered run reports one more attempt than recoveries and no more
//     crashes than scheduled, and resumes from a step CheckpointEvery
//     divides;
//   - no goroutine outlives the run;
//   - a watchdog fails a hung cell by name.
//
// Each serial reference is itself held once to an oracle independent of the
// replay and the engine (oracle/…, see checkOracle), so every cell inherits
// that check too.
//
// The cells:
//
//   - clean: every kernel × layout {uniform, kl, panel} × broadcast ×
//     numerics × parallelism {1, 3} at r = 3, where every block product runs
//     the scalar reference; every kernel × numerics × parallelism at r = 20
//     (QR also r = 40), the packed update with rims on every tile and QR's
//     compact-WY formed in two chunks, layout and broadcast rotated; and
//     every kernel on the 2×3 layouts {uniform2x3, kl2x3} at r = 2 under the
//     flat broadcast;
//   - crash: every fail-stop crash of one rank (0–3) entering one step (0–5),
//     CheckpointEvery {1, 3}, Recover on and off;
//   - pair: every ordered pair of crashes with Recover, the second naming a
//     rank of the survivors' world at the same or a later step;
//   - tcp: the kl2x3 layout on a 3-process loopback-TCP cluster (tcpRun):
//     every kernel × broadcast at r = 2, QR also at r = 16 where its
//     compact-WY products reach the packed GEMM across sockets, and one
//     fail-stop crash per kernel without Recover, which every process must
//     report.
//
// In-process fault cells take (layout, broadcast, numerics, parallelism)
// from a rotation through all 48 combinations, so each meets every kernel
// under faults. The panel layout is Plan.BestPanel(4, 4, kernel); kl2x3 is
// the Kalinov–Lastovetsky layout of the cycle-times [[1,2,3],[4,5,6]].
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
	uniform2x3, err := Uniform(2, 3, nb, nb)
	if err != nil {
		t.Fatal(err)
	}
	kl2x3, err := distribution.NewKL(grid.MustNew([][]float64{{1, 2, 3}, {4, 5, 6}}), nb, nb)
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
		dists[k] = map[string]Distribution{"uniform": uniform, "kl": kl, "panel": panel, "uniform2x3": uniform2x3, "kl2x3": kl2x3}
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
	// The 2×3 and TCP cells come last, so that the inputs drawn for the
	// cells above do not depend on them.
	for _, k := range kernels {
		for _, l := range []string{"uniform2x3", "kl2x3"} {
			cells = append(cells, confCell{kernel: k, r: 2, confSetup: confSetup{l, FlatBroadcast, Strict, 1}})
		}
		tcp := confSetup{"kl2x3", FlatBroadcast, Strict, 1}
		for _, b := range bcasts {
			s := tcp
			s.bcast = b
			cells = append(cells, confCell{kernel: k, r: 2, confSetup: s, tcp: true})
		}
		if k == QR {
			cells = append(cells, confCell{kernel: k, r: 16, confSetup: tcp, tcp: true})
		}
		// Each crash withholds a block some rank of every process needs
		// later, so no process can finish before the abort reaches it: the
		// diagonal block of the step for LU (rank 2 @ 3, process 1) and
		// Cholesky (rank 1 @ 1, process 0), a block of QR's panel (rank 4 @
		// 1, process 2), and for MatMul block (2, 3) of A and of B, which
		// ranks 0 and 2 need (rank 5 @ 2, process 2).
		crash := map[Kernel]CrashPoint{MatMul: {Rank: 5, Step: 2}, LU: {Rank: 2, Step: 3}, Cholesky: {Rank: 1, Step: 1}, QR: {Rank: 4, Step: 1}}[k]
		cells = append(cells, confCell{kernel: k, r: 2, confSetup: tcp, tcp: true,
			faults: &FaultOptions{Crashes: []CrashPoint{crash}}})
	}
	t.Logf("%d cells", len(cells))

	// The inputs of each kernel and block size, and the serial reference of
	// each (kernel, layout, numerics, block size), held to its oracle when
	// first built.
	rng := rand.New(rand.NewSource(41))
	type inputKey struct {
		k Kernel
		r int
	}
	inputs := map[inputKey][]*Matrix{}
	type refKey struct {
		inputKey
		layout string
		mode   Numerics
	}
	refs := map[refKey]confResult{}
	var reference func(key refKey) confResult
	reference = func(key refKey) confResult {
		if ref, ok := refs[key]; ok {
			return ref
		}
		in, d := inputs[key.inputKey], dists[key.k][key.layout]
		ref := confRun(key.k, d, in, key.r, false, WithNumerics(key.mode))
		if ref.err != nil {
			t.Fatalf("serial %v: %v", key.k, ref.err)
		}
		refs[key] = ref
		var strict confResult
		if key.mode == Fast {
			sk := key
			sk.mode = Strict
			strict = reference(sk)
		}
		p, q := d.Dims()
		t.Run(fmt.Sprintf("oracle/%v/r%d/%s/%v", key.k, key.r, key.layout, key.mode), func(t *testing.T) {
			checkOracle(t, key.k, in, key.r, p*q, ref, strict)
		})
		return ref
	}

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

	var tcp []namedCheck
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
		want := reference(refKey{ik, c.layout, c.numerics})
		check := func(t *testing.T) { c.check(t, dists[c.kernel][c.layout], in, want) }
		if c.tcp {
			tcp = append(tcp, namedCheck{c.name(), check})
			continue
		}
		t.Run(c.name(), check)
	}
	// The TCP cells run as one group, so that TestConformance/tcp passes
	// exactly when the whole loopback-TCP axis does. Their references are
	// built above, outside the group.
	t.Run("tcp", func(t *testing.T) {
		for _, c := range tcp {
			t.Run(c.name, c.run)
		}
	})
}

// namedCheck is a cell's name and its check, held back to run in a group.
type namedCheck struct {
	name string
	run  func(*testing.T)
}

// confSetup is the part of a cell the fault cells rotate through.
type confSetup struct {
	layout   string
	bcast    BroadcastKind
	numerics Numerics
	workers  int
}

// confCell is one run of the conformance matrix: faults is nil for a
// fault-free cell, and tcp runs it on a loopback-TCP cluster.
type confCell struct {
	kernel Kernel
	r      int
	confSetup
	faults *FaultOptions
	tcp    bool
}

func (c confCell) name() string {
	s := fmt.Sprintf("%v/%v/%v/p%d", c.layout, c.bcast, c.numerics, c.workers)
	f := c.faults
	switch {
	// A TCP cell is named within the tcp group.
	case c.tcp && f == nil:
		return fmt.Sprintf("%v/r%d/%v/%v/%v", c.kernel, c.r, c.layout, c.bcast, c.numerics)
	case c.tcp:
		cp := f.Crashes[0]
		return fmt.Sprintf("%v/crash/rank%d@%d/abort", c.kernel, cp.Rank, cp.Step)
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
// counts, and the factorization itself.
type confResult struct {
	mats  []*Matrix
	ops   []int
	fact  *Factorization
	stats *ExecStats
	err   error
}

// confRun runs kernel k on d serially or distributed. A distributed run
// hands the result back where rank 0 is hosted and nowhere else.
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
	res := confResult{mats: []*Matrix{f.Packed()}, ops: f.Ops(), fact: f, stats: st}
	if k == QR && f.Packed() != nil {
		res.mats = append(res.mats, f.Q(r))
	}
	return res
}

// tcpProcs is the process count of a TCP cell's cluster.
const tcpProcs = 3

// tcpRun runs a distributed cell on a loopback-TCP cluster of tcpProcs
// processes, each calling the facade with its own fabric as gridsim
// -listen/-join does, and returns every process's result by process id.
// The inputs exist only at process 0.
func tcpRun(k Kernel, d Distribution, in []*Matrix, r int, opts []Option) []confResult {
	p, q := d.Dims()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	fabs, _, err := enginenet.Loopback(ctx, p*q, tcpProcs, nil)
	cancel()
	if err != nil {
		return []confResult{{err: err}}
	}
	outs := make([]confResult, len(fabs))
	var wg sync.WaitGroup
	for i, fab := range fabs {
		local := make([]*Matrix, len(in))
		if i == 0 {
			local = in
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = guard(func() confResult {
				return confRun(k, d, local, r, true, append(slices.Clip(opts), WithTransport(fab))...)
			})
		}()
	}
	wg.Wait()
	// Only now: a process that tears its fabric down early sends an abort
	// frame, which races the gather still in flight to process 0.
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, fab := range fabs {
		fab.Close(ctx)
	}
	return outs
}

// guard runs fn and turns a panic into the result's error, so that it
// fails one cell, not the whole binary.
func guard(fn func() confResult) (res confResult) {
	defer func() {
		if p := recover(); p != nil {
			res = confResult{err: fmt.Errorf("panic: %v\n%s", p, debug.Stack())}
		}
	}()
	return fn()
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
	done := make(chan []confResult, 1)
	go func() {
		if c.tcp {
			done <- tcpRun(c.kernel, d, in, c.r, opts)
			return
		}
		done <- []confResult{guard(func() confResult { return confRun(c.kernel, d, in, c.r, true, opts...) })}
	}()
	watchdog := time.NewTimer(cellTimeout)
	defer watchdog.Stop()
	var procs []confResult
	select {
	case procs = <-done:
	case <-watchdog.C:
		buf := make([]byte, 1<<20)
		t.Fatalf("no result after %v\n%s", cellTimeout, buf[:runtime.Stack(buf, true)])
	}
	leakcheck.Settle(t, baseline)

	if f := c.faults; f != nil && !f.Recover {
		// The process hosting the crashed rank reports its scheduled crash,
		// every other one the failure of that rank.
		cp := f.Crashes[0]
		p, q := d.Dims()
		for i, got := range procs {
			var rf *RankFailure
			hosts := slices.Contains(enginenet.RanksOf(p*q, len(procs), i), cp.Rank)
			if !errors.As(got.err, &rf) || rf.Rank != cp.Rank || hosts && (rf.Step != cp.Step || rf.Detected) {
				t.Fatalf("process %d: error %v, want the fail-stop crash of rank %d at step %d", i, got.err, cp.Rank, cp.Step)
			}
		}
		return
	}
	for i, got := range procs {
		if got.err != nil {
			t.Fatalf("process %d: %v", i, got.err)
		}
	}
	got := procs[0]
	for i := range want.mats {
		if !got.mats[i].Equal(want.mats[i]) {
			t.Fatal("result not bit-identical to the serial run")
		}
	}
	if c.kernel == QR && !slices.Equal(got.ops, want.ops) {
		t.Fatalf("operation counts %v, serial %v", got.ops, want.ops)
	}
	if c.faults == nil {
		if got.stats.Spans != nil {
			t.Fatal("spans recorded without WithSpans")
		}
		// A TCP process counts the traffic of its own ranks only.
		if !c.tcp {
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
// total less the scatter of the inputs and the gather of the result, each
// distribution.MasterVolume: one pack per block row and owner other than
// rank 0.
func checkTraffic(t *testing.T, k Kernel, d Distribution, bk BroadcastKind, r, inputs int, st *ExecStats) {
	t.Helper()
	if p, q := d.Dims(); len(st.Ranks) != p*q || len(st.Pairs) != p*q {
		t.Fatalf("counters for %d ranks and %d pair rows, want %d", len(st.Ranks), len(st.Pairs), p*q)
	}
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
	master := distribution.MasterVolume(d, float64(block), distribution.All, 0)
	volume := map[Kernel]func(distribution.Distribution, float64) (*distribution.CommVolume, error){
		MatMul: distribution.MMCommVolume, LU: distribution.LUCommVolume, Cholesky: distribution.CholeskyCommVolume,
		QR: distribution.QRCommVolume,
	}[k]
	vol, err := volume(d, float64(block))
	if err != nil {
		t.Fatal(err)
	}
	msgs, bytes := st.Messages-(inputs+1)*master.Messages, st.Bytes-(inputs+1)*int(master.Bytes)
	if float64(bytes) != vol.Bytes {
		t.Fatalf("kernel moved %d bytes, analytics says %v", bytes, vol.Bytes)
	}
	// The pipelined ring splits the same bytes into more messages.
	if bk == FlatBroadcast && msgs != vol.Messages {
		t.Fatalf("kernel sent %d messages, analytics says %d", msgs, vol.Messages)
	}
}

// checkOracle holds a serial reference to an oracle independent of the
// replay and the engine, which call the same internal/matrix routines: the
// unblocked dense product and factorizations, and the reconstructions
// L·U = A, L·Lᵀ = A and Q·R = A. A Fast reference must also lie within
// 64·n²·2⁻⁵³ of the Strict one entry by entry, a bound far above the true
// one for entries of magnitude about 1 and far below any real bug.
func checkOracle(t *testing.T, k Kernel, in []*Matrix, r, ranks int, ref, strict confResult) {
	a := in[0]
	f := ref.fact
	switch k {
	case MatMul:
		if !ref.mats[0].EqualApprox(matrix.Mul(a, in[1]), 1e-10) {
			t.Error("product differs from matrix.Mul")
		}
	case LU:
		dense := a.Clone()
		if err := matrix.FactorNoPivot(dense); err != nil {
			t.Fatal(err)
		}
		if !ref.mats[0].EqualApprox(dense, 1e-9) {
			t.Error("packed factors differ from matrix.FactorNoPivot")
		}
		if l, u := f.LU(); !matrix.Mul(l, u).EqualApprox(a, 1e-8) {
			t.Error("L·U != A")
		}
	case Cholesky:
		l := f.L()
		if !matrix.Mul(l, l.T()).EqualApprox(a, 1e-8) {
			t.Error("L·Lᵀ != A")
		}
		dense, err := matrix.FactorCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		if !l.EqualApprox(dense.L, 1e-9) {
			t.Error("L differs from matrix.FactorCholesky")
		}
		for i := 0; i < l.Rows(); i++ {
			for j := i + 1; j < l.Cols(); j++ {
				if l.At(i, j) != 0 {
					t.Fatalf("L(%d,%d) = %v above the diagonal", i, j, l.At(i, j))
				}
			}
		}
	case QR:
		if !matrix.Mul(ref.mats[1], f.R()).EqualApprox(a, 1e-9) {
			t.Error("Q·R != A")
		}
	}
	if k != MatMul && len(ref.ops) != ranks {
		t.Errorf("operation counts %v for %d ranks", ref.ops, ranks)
	}
	if strict.mats == nil {
		return
	}
	n := a.Rows()
	tol := 64 * float64(n) * float64(n) * 0x1p-53
	for m := range ref.mats {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if diff := math.Abs(ref.mats[m].At(i, j) - strict.mats[m].At(i, j)); diff > tol {
					t.Fatalf("fast[%d,%d] off the strict reference by %g (tol %g)", i, j, diff, tol)
				}
			}
		}
	}
}
