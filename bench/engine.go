package main

// The five engine workloads: one distributed kernel each, on a 2×2 grid of
// cycle-times {1,2,3,5}, planned the way a user plans it (SolvePlan →
// BestPanel → Distribute) and executed through the public facade with flat
// broadcasts and one goroutine per rank.

import (
	"context"
	"fmt"
	"math"
	"time"

	"hetgrid"
	enginenet "hetgrid/internal/engine/net"
	"hetgrid/internal/kernels"
	"hetgrid/internal/matrix"
)

var gridTimes = []float64{1, 2, 3, 5}

const (
	gridP, gridQ = 2, 2
	gridRanks    = gridP * gridQ
	panelSearch  = 8 // BestPanel(8, 8, kernel)

	crashRank       = 3
	crashStep       = 16
	checkpointEvery = 4

	tcpProcs       = 2
	clusterTimeout = 30 * time.Second
	warmupReps     = 3
)

type engineSpec struct {
	name     string
	kernel   hetgrid.Kernel
	n, r     int
	numerics hetgrid.Numerics
	tcp      bool // two loopback-TCP fabrics, fresh cluster per operation
	recover  bool // crash of crashRank at crashStep, recovered from checkpoints
}

var engineSpecs = []engineSpec{
	{name: "lu-large", kernel: hetgrid.LU, n: 1536, r: 64},
	{name: "mm-fast", kernel: hetgrid.MatMul, n: 1024, r: 32, numerics: hetgrid.Fast},
	{name: "qr-mid", kernel: hetgrid.QR, n: 576, r: 32},
	{name: "chol-tcp", kernel: hetgrid.Cholesky, n: 1024, r: 32, tcp: true},
	{name: "lu-recover", kernel: hetgrid.LU, n: 1024, r: 32, recover: true},
}

// flops is the nominal operation count of the kernel at size n, stated so
// that GF/s is derivable from a wall time.
func (s engineSpec) flops() float64 {
	n := float64(s.n)
	switch s.kernel {
	case hetgrid.MatMul:
		return 2 * n * n * n
	case hetgrid.LU:
		return 2 * n * n * n / 3
	case hetgrid.QR:
		return 4 * n * n * n / 3
	default: // Cholesky
		return n * n * n / 3
	}
}

type engineWL struct {
	engineSpec
	t tally

	a, b   *matrix.Dense
	oracle *matrix.Dense // serial Strict replay of the same inputs
	// fastBound is the componentwise bound a Fast result may differ from the
	// Strict oracle by (nil for Strict workloads, which must be identical).
	fastBound *matrix.Dense
	scenario  *modelScenario // for the deterministic ratios

	// what setup leaves behind
	plan *hetgrid.Plan
	dist hetgrid.Distribution

	warmed   bool
	walls    []float64
	faultRef *hetgrid.FaultStats // lu-recover: the first operation's counters
}

func (w *engineWL) tally() *tally { return &w.t }
func (w *engineWL) close()        {}
func (w *engineWL) nb() int       { return w.n / w.r }

func (w *engineWL) setup() error {
	plan, _, err := hetgrid.SolvePlan(hetgrid.PlanRequest{Times: gridTimes, P: gridP, Q: gridQ})
	if err != nil {
		return err
	}
	layout, err := plan.BestPanel(panelSearch, panelSearch, w.kernel)
	if err != nil {
		return err
	}
	dist, err := layout.Distribute(w.nb(), w.nb())
	if err != nil {
		return err
	}
	w.plan, w.dist = plan, dist
	return nil
}

func (w *engineWL) prepare(seed int64) error {
	if err := w.setup(); err != nil {
		return err
	}
	w.a, w.b = genMatrices(w.kernel, w.n, seed)
	var err error
	if w.oracle, err = w.replay(hetgrid.Strict); err != nil {
		return fmt.Errorf("%s: serial oracle: %w", w.name, err)
	}
	if w.numerics == hetgrid.Fast {
		w.fastBound = fastMulBound(w.a, w.b)
	}
	w.scenario, err = buildScenario(modelCase{
		req:    hetgrid.PlanRequest{Times: gridTimes, P: gridP, Q: gridQ},
		kernel: w.kernel, nb: w.nb(), r: w.r, maxPanel: panelSearch,
		broadcasts: []hetgrid.BroadcastKind{hetgrid.FlatBroadcast},
	})
	return err
}

// replay is the single-threaded serial execution of the same block
// algorithm: the correctness oracle, and the plain baseline of the traced
// pass.
func (w *engineWL) replay(mode hetgrid.Numerics) (*matrix.Dense, error) {
	switch w.kernel {
	case hetgrid.MatMul:
		rep, err := kernels.ReplayMMNumerics(w.dist, w.a, w.b, mode)
		if err != nil {
			return nil, err
		}
		return rep.C, nil
	case hetgrid.LU:
		rep, err := kernels.ReplayLUNumerics(w.dist, w.a, mode)
		if err != nil {
			return nil, err
		}
		return rep.C, nil
	case hetgrid.Cholesky:
		rep, err := kernels.ReplayCholeskyNumerics(w.dist, w.a, mode)
		if err != nil {
			return nil, err
		}
		return rep.C, nil
	default:
		rep, err := kernels.ReplayQRNumerics(w.dist, w.a, mode)
		if err != nil {
			return nil, err
		}
		return rep.C, nil
	}
}

// fastMulBound is the documented Fast contract for C = A·B with C₀ = 0:
// |fast − strict| ≤ 2·γ(k+1)·|A|·|B| componentwise, γ(t) = tε/(1−tε).
func fastMulBound(a, b *matrix.Dense) *matrix.Dense {
	abs := func(m *matrix.Dense) *matrix.Dense {
		out := m.Clone()
		for i := 0; i < out.Rows(); i++ {
			row := out.RawRow(i)
			for j, v := range row {
				row[j] = math.Abs(v)
			}
		}
		return out
	}
	bound := matrix.Mul(abs(a), abs(b))
	t := float64(a.Cols()+1) * (1.0 / (1 << 53))
	bound.Scale(2 * t / (1 - t))
	return bound
}

// baseOpts are the options of every engine operation: serial ranks, the
// workload's numerics, and (by default) the flat broadcast.
func (w *engineWL) baseOpts() []hetgrid.Option {
	opts := []hetgrid.Option{hetgrid.WithParallelism(1)}
	if w.numerics != hetgrid.Strict {
		opts = append(opts, hetgrid.WithNumerics(w.numerics))
	}
	return opts
}

// faultOpts is lu-recover's fault plan; withCrash false keeps the
// checkpoints but schedules no crash.
func (w *engineWL) faultOpts(withCrash bool) hetgrid.Option {
	f := hetgrid.FaultOptions{Recover: true, CheckpointEvery: checkpointEvery, Times: w.plan.Arrangement().Times()}
	if withCrash {
		f.Crashes = []hetgrid.CrashPoint{{Rank: crashRank, Step: crashStep}}
	}
	return hetgrid.WithFaults(f)
}

// opOpts are the options of the workload's end-to-end operation.
func (w *engineWL) opOpts() []hetgrid.Option {
	opts := w.baseOpts()
	if w.recover {
		opts = append(opts, w.faultOpts(true))
	}
	return opts
}

// facade runs one distributed execution on the in-process fabric.
func (w *engineWL) facade(opts []hetgrid.Option) (*matrix.Dense, *hetgrid.ExecStats, error) {
	if w.kernel == hetgrid.MatMul {
		return hetgrid.DistributedMultiply(w.dist, w.a, w.b, w.r, opts...)
	}
	f, stats, err := hetgrid.DistributedFactor(w.kernel, w.dist, w.a, w.r, opts...)
	if err != nil {
		return nil, nil, err
	}
	return f.Packed(), stats, nil
}

// opResult is what one operation hands to verification.
type opResult struct {
	out   *matrix.Dense
	stats []*hetgrid.ExecStats // one per process
	wire  []enginenet.NetStats // chol-tcp: one per process
	wall  float64
}

// operate runs the workload's operation once with the given options and
// times it, input matrix in, gathered result out. On chol-tcp the wall
// includes establishing and closing the cluster, as every gridsim
// -listen/-join run pays them.
func (w *engineWL) operate(opts []hetgrid.Option) (opResult, error) {
	if !w.tcp {
		t0 := time.Now()
		out, stats, err := w.facade(opts)
		return opResult{out: out, stats: []*hetgrid.ExecStats{stats}, wall: time.Since(t0).Seconds()}, err
	}
	res := opResult{stats: make([]*hetgrid.ExecStats, tcpProcs)}
	t0 := time.Now()
	cl, err := establish(gridRanks)
	if err != nil {
		return res, err
	}
	err = cl.run(func(proc int, fab *enginenet.Fabric) error {
		f, stats, err := hetgrid.DistributedFactor(w.kernel, w.dist, w.a, w.r,
			append(append([]hetgrid.Option(nil), opts...), hetgrid.WithTransport(fab))...)
		if err != nil {
			return err
		}
		res.stats[proc] = stats
		if proc == 0 {
			res.out = f.Packed()
		}
		return nil
	})
	res.wire = cl.wireStats()
	cl.close()
	res.wall = time.Since(t0).Seconds()
	return res, err
}

// checkResult compares a gathered result with the oracle: bit for bit
// under Strict, within the documented bound under Fast.
func (w *engineWL) checkResult(out *matrix.Dense) error {
	if out == nil {
		return fmt.Errorf("%s: no result gathered", w.name)
	}
	if w.fastBound == nil {
		if !out.Equal(w.oracle) {
			return fmt.Errorf("%s: result is not bit-identical to the serial replay", w.name)
		}
	} else if err := withinBound(out, w.oracle, w.fastBound); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	return nil
}

// verify checks one operation: its result, and on lu-recover (when the
// crash was scheduled) what the fault layer says it did.
func (w *engineWL) verify(res opResult, withCrash bool) error {
	if err := w.checkResult(res.out); err != nil {
		return err
	}
	if !w.recover || !withCrash {
		return nil
	}
	f := res.stats[0].Faults
	if f == nil {
		return fmt.Errorf("%s: no fault statistics", w.name)
	}
	if f.Recoveries != 1 || f.Attempts != 2 {
		return fmt.Errorf("%s: %d recoveries in %d attempts, want 1 in 2", w.name, f.Recoveries, f.Attempts)
	}
	if w.faultRef == nil {
		ref := *f
		w.faultRef = &ref
	} else if f.Checkpoints != w.faultRef.Checkpoints || f.ResumedSteps != w.faultRef.ResumedSteps {
		return fmt.Errorf("%s: %d checkpoints / %d resumed steps, first operation had %d / %d",
			w.name, f.Checkpoints, f.ResumedSteps, w.faultRef.Checkpoints, w.faultRef.ResumedSteps)
	}
	return nil
}

func withinBound(got, want, bound *matrix.Dense) error {
	gr, gc := got.Dims()
	if wr, wc := want.Dims(); gr != wr || gc != wc {
		return fmt.Errorf("result is %d×%d, want %d×%d", gr, gc, wr, wc)
	}
	for i := 0; i < gr; i++ {
		g, o, b := got.RawRow(i), want.RawRow(i), bound.RawRow(i)
		for j := range g {
			if d := math.Abs(g[j] - o[j]); !(d <= b[j]) {
				return fmt.Errorf("element (%d,%d) differs from the Strict oracle by %g, bound %g", i, j, d, b[j])
			}
		}
	}
	return nil
}

// op is one verified end-to-end operation; it returns the wall to record.
func (w *engineWL) op() float64 {
	res, err := w.operate(w.opOpts())
	if err == nil {
		err = w.verify(res, true)
	}
	w.t.check(err)
	return res.wall
}

func (w *engineWL) measure(d time.Duration, quick bool) {
	if !w.warmed {
		for i := 0; i < warmupReps; i++ {
			w.op()
		}
		w.warmed = true
	}
	w.walls = append(w.walls, timeLoop(d, quick, w.op)...)
}

func (w *engineWL) report() map[string]summary {
	out := map[string]summary{}
	ms := make([]float64, len(w.walls))
	for i, s := range w.walls {
		ms[i] = s * 1e3
	}
	out["op_p50_ms"] = summarize(ms)
	w.modelMetrics(out)
	return out
}

// modelMetrics fills the deterministic ratios for the workload's own plan,
// kernel and block matrix.
func (w *engineWL) modelMetrics(out map[string]summary) {
	q, err := planQuality(w.scenario)
	if err == nil {
		var rows []simRow
		if rows, err = w.scenario.simulate(nil); err == nil {
			var m modelRatios
			m.add(rows)
			m.into(out)
			out["plan_quality"] = summary{P50: q, N: 1}
		}
	}
	w.t.check(err)
}

// cluster is a loopback TCP world of tcpProcs processes' fabrics, all held
// by this one process.
type cluster struct {
	fabs []*enginenet.Fabric
}

// establish runs the coordinator/joiner handshake on an ephemeral loopback
// port.
func establish(world int) (*cluster, error) {
	co, err := enginenet.NewCoordinator("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), clusterTimeout)
	defer cancel()
	cl := &cluster{fabs: make([]*enginenet.Fabric, tcpProcs)}
	joinErr := make(chan error, tcpProcs-1) // one send per joiner
	for p := 1; p < tcpProcs; p++ {
		go func() {
			fab, _, err := enginenet.Join(ctx, co.Addr(), nil)
			if err == nil {
				cl.fabs[fab.ProcID()] = fab
			}
			joinErr <- err
		}()
	}
	cl.fabs[0], err = co.Establish(ctx, world, tcpProcs, nil, nil)
	if err != nil {
		cancel()
		co.Close()
	}
	for p := 1; p < tcpProcs; p++ {
		if jerr := <-joinErr; err == nil {
			err = jerr
		}
	}
	if err != nil {
		cl.close()
		return nil, fmt.Errorf("establishing the loopback cluster: %w", err)
	}
	return cl, nil
}

// run executes fn once per process concurrently, then holds a done/bye
// barrier over the fabric so that no process tears the cluster down while
// a peer still has frames in flight (the protocol gridsim's multi-process
// mode uses). A failing process closes the cluster to unblock the others.
func (cl *cluster) run(fn func(proc int, fab *enginenet.Fabric) error) error {
	errs := make(chan error, len(cl.fabs)) // one send per process
	for p, fab := range cl.fabs {
		go func() {
			err := fn(p, fab)
			if err == nil {
				err = cl.barrier(p)
			}
			if err != nil {
				cl.close()
			}
			errs <- err
		}()
	}
	var first error
	for range cl.fabs {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (cl *cluster) barrier(proc int) error {
	ctx, cancel := context.WithTimeout(context.Background(), clusterTimeout)
	defer cancel()
	one := matrix.New(1, 1)
	if proc != 0 {
		fab := cl.fabs[proc]
		lo := fab.LocalRanks()[0]
		fab.Send(lo, 0, "bench/done", one)
		_, err := fab.Recv(ctx, 0, lo, "bench/bye")
		return err
	}
	fab := cl.fabs[0]
	for p := 1; p < len(cl.fabs); p++ {
		if _, err := fab.Recv(ctx, cl.fabs[p].LocalRanks()[0], 0, "bench/done"); err != nil {
			return err
		}
	}
	for p := 1; p < len(cl.fabs); p++ {
		fab.Send(0, cl.fabs[p].LocalRanks()[0], "bench/bye", one)
	}
	return nil
}

func (cl *cluster) wireStats() []enginenet.NetStats {
	out := make([]enginenet.NetStats, len(cl.fabs))
	for p, fab := range cl.fabs {
		if fab != nil {
			out[p] = fab.WireStats()
		}
	}
	return out
}

// close tears every fabric down; closing twice is harmless.
func (cl *cluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, fab := range cl.fabs {
		if fab != nil {
			fab.Close(ctx)
		}
	}
}
