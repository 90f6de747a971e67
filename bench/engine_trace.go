package main

// The traced pass of the engine workloads. The harness runs its own SPMD
// body over engine.RunOpts with timers at rank 0 around scatter, kernel and
// gather, next to facade variants of the same problem (plain, with the
// program's span recorder on, with checkpoints, with the crash), taking the
// variants in turn so that a slow spell of the machine lands on all of
// them. Block-level micro-measurements of internal/matrix and of the two
// fabrics follow.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"hetgrid"
	"hetgrid/internal/engine"
	enginenet "hetgrid/internal/engine/net"
	"hetgrid/internal/matrix"
)

// bodyTimes is one run of the harness SPMD body.
type bodyTimes struct {
	scatter, kernel, gather float64 // at rank 0
	establish               float64 // chol-tcp only
	wall                    float64
	out                     *matrix.Dense
}

// spmd is the SPMD body every rank runs: scatter, kernel, gather, with the
// phase boundaries timed at rank 0.
func (w *engineWL) spmd(c *engine.Comm, bt *bodyTimes, marks *[4]time.Time) error {
	on0 := func(m *matrix.Dense) *matrix.Dense {
		if c.Rank() == 0 {
			return m
		}
		return nil
	}
	mark := func(i int) {
		if c.Rank() == 0 {
			marks[i] = time.Now()
		}
	}
	mark(0)
	s, err := engine.Scatter(c, w.dist, on0(w.a), w.r)
	if err != nil {
		return err
	}
	var bs *engine.BlockStore
	if w.kernel == hetgrid.MatMul {
		if bs, err = engine.Scatter(c, w.dist, on0(w.b), w.r); err != nil {
			return err
		}
	}
	mark(1)
	switch w.kernel {
	case hetgrid.MatMul:
		s, err = engine.MM(c, w.dist, s, bs)
	case hetgrid.LU:
		err = engine.LU(c, w.dist, s)
	case hetgrid.Cholesky:
		err = engine.Cholesky(c, w.dist, s)
	default:
		_, err = engine.QR(c, w.dist, s)
	}
	if err != nil {
		return err
	}
	mark(2)
	full, err := engine.Gather(c, w.dist, s)
	if err != nil {
		return err
	}
	mark(3)
	if c.Rank() == 0 {
		bt.out = full
	}
	return nil
}

// body runs the harness SPMD body once, over TCP when tcp is set, and
// records its spans: one per run, the three phases its children.
func (w *engineWL) body(tcp bool, tr *tracer) (bodyTimes, error) {
	var bt bodyTimes
	var marks [4]time.Time
	opts := engine.Options{Parallelism: 1, Numerics: w.numerics}
	t0 := time.Now()
	var err error
	if !tcp {
		_, err = engine.RunOpts(gridRanks, opts, func(c *engine.Comm) error { return w.spmd(c, &bt, &marks) })
	} else {
		var cl *cluster
		if cl, err = establish(gridRanks); err != nil {
			return bt, err
		}
		bt.establish = time.Since(t0).Seconds()
		err = cl.run(func(proc int, fab *enginenet.Fabric) error {
			o := opts
			o.Transport, o.LocalRanks = fab, fab.LocalRanks()
			_, err := engine.RunOpts(gridRanks, o, func(c *engine.Comm) error { return w.spmd(c, &bt, &marks) })
			return err
		})
		cl.close()
	}
	end := time.Now()
	if err != nil {
		return bt, err
	}
	bt.wall = end.Sub(t0).Seconds()
	bt.scatter = marks[1].Sub(marks[0]).Seconds()
	bt.kernel = marks[2].Sub(marks[1]).Seconds()
	bt.gather = marks[3].Sub(marks[2]).Seconds()
	name := "body/mem"
	if tcp {
		name = "body/tcp"
	}
	op := tr.newOp()
	root := tr.add(op, 0, name, t0, end)
	tr.add(op, root, "engine.scatter", marks[0], marks[1])
	tr.add(op, root, "engine.kernel", marks[1], marks[2])
	tr.add(op, root, "engine.gather", marks[2], marks[3])
	return bt, nil
}

// variant is one way of running the workload's problem in the traced pass.
type variant struct {
	name  string
	run   func() (float64, error)
	walls []float64
}

// traceRuns is what the variants of one traced pass left behind.
type traceRuns struct {
	op, spans, body   *variant // every engine workload
	plain, ckpt       *variant // lu-recover: no faults; checkpoints but no crash
	memBody           *variant // chol-tcp: the body on the in-process fabric
	bodies, memBodies []bodyTimes
	lastOp, lastSpans opResult
	mallocs, bytes    float64 // summed over the op variant's runs
}

// facadeVariant runs the workload's problem through the facade with the
// given options, verifies it, and records one span per run.
func (w *engineWL) facadeVariant(tr *tracer, name string, opts []hetgrid.Option, withCrash bool, keep *opResult) *variant {
	return &variant{name: name, run: func() (float64, error) {
		t0 := time.Now()
		res, err := w.operate(opts)
		if err == nil {
			err = w.verify(res, withCrash)
		}
		if err != nil {
			return 0, err
		}
		tr.add(tr.newOp(), 0, name, t0, t0.Add(time.Duration(res.wall*float64(time.Second))))
		if keep != nil { // the counters, not the matrix: see bodyVariant
			res.out = nil
			*keep = res
		}
		return res.wall, nil
	}}
}

// bodyVariant runs the harness SPMD body and keeps its phase times, not its
// output: retained result matrices grow the heap and slow what runs next.
func (w *engineWL) bodyVariant(tr *tracer, tcp bool, into *[]bodyTimes) *variant {
	return &variant{name: "body", run: func() (float64, error) {
		bt, err := w.body(tcp, tr)
		if err != nil {
			return 0, err
		}
		if err := w.checkResult(bt.out); err != nil {
			return 0, fmt.Errorf("harness body: %w", err)
		}
		bt.out = nil
		*into = append(*into, bt)
		return bt.wall, nil
	}}
}

// runVariants takes the variants in turn for about d: the end-to-end
// operation itself with recorders off ("op"), the same with the program's
// span recorder on, the harness body, and what the workload adds.
func (w *engineWL) runVariants(d time.Duration, quick bool, tr *tracer) *traceRuns {
	r := &traceRuns{}
	r.op = w.facadeVariant(tr, "facade/op", w.opOpts(), true, &r.lastOp)
	plainOp := r.op.run
	r.op.run = func() (float64, error) { // the operation also yields the allocation counts
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		wall, err := plainOp()
		runtime.ReadMemStats(&after)
		r.mallocs += float64(after.Mallocs - before.Mallocs)
		r.bytes += float64(after.TotalAlloc - before.TotalAlloc)
		return wall, err
	}
	r.spans = w.facadeVariant(tr, "facade/spans", append(w.opOpts(), hetgrid.WithSpans()), true, &r.lastSpans)
	r.body = w.bodyVariant(tr, w.tcp, &r.bodies)
	variants := []*variant{r.op, r.spans, r.body}
	if w.recover {
		r.plain = w.facadeVariant(tr, "facade/plain", w.baseOpts(), false, nil)
		r.ckpt = w.facadeVariant(tr, "facade/checkpoints", append(w.baseOpts(), w.faultOpts(false)), false, nil)
		variants = append(variants, r.plain, r.ckpt)
	}
	if w.tcp {
		r.memBody = w.bodyVariant(tr, false, &r.memBodies)
		variants = append(variants, r.memBody)
	}
	const minRounds = 3
	begin := time.Now()
	for round := 1; ; round++ {
		for _, v := range variants {
			runtime.GC()
			wall, err := v.run()
			w.t.check(err)
			if err == nil {
				v.walls = append(v.walls, wall)
			}
		}
		if quick || (round >= minRounds && time.Since(begin) >= d) {
			return r
		}
	}
}

func medianOf(bodies []bodyTimes, f func(bodyTimes) float64) float64 {
	xs := make([]float64, len(bodies))
	for i, b := range bodies {
		xs[i] = f(b)
	}
	return median(xs)
}

func (w *engineWL) trace(d time.Duration, quick bool, tr *tracer) map[string]float64 {
	m := map[string]float64{}
	fastBefore := fastDispatches()
	r := w.runVariants(d*6/10, quick, tr)

	opWall, bodyWall := median(r.op.walls), median(r.body.walls)
	m["bench.traced_op_p50_ms"] = opWall * 1e3
	m["engine.scatter_s"] = medianOf(r.bodies, func(b bodyTimes) float64 { return b.scatter })
	m["engine.kernel_s"] = medianOf(r.bodies, func(b bodyTimes) float64 { return b.kernel })
	m["engine.gather_s"] = medianOf(r.bodies, func(b bodyTimes) float64 { return b.gather })

	// The facade's own cost: what a facade run of the body's problem takes
	// beyond the body. lu-recover's body has no faults, so its plain
	// variant is the one to compare, and the fault layer's two costs are
	// the steps from plain to checkpointing to crashing.
	if w.recover {
		plain, ckpt := median(r.plain.walls), median(r.ckpt.walls)
		m["hetgrid.overhead_s"] = plain - bodyWall
		m["hetgrid.checkpoint_s"] = ckpt - plain
		m["hetgrid.recover_s"] = opWall - ckpt
	} else {
		m["hetgrid.overhead_s"] = opWall - bodyWall
	}
	if n := float64(len(r.op.walls)); n > 0 {
		m["hetgrid.allocs_per_run"] = r.mallocs / n
		m["hetgrid.alloc_mb_per_run"] = r.bytes / n / (1 << 20)
	}

	// Counts from the operation's public outputs; they repeat exactly.
	var crossBytes float64
	for _, st := range r.lastOp.stats {
		if st == nil {
			continue
		}
		m["engine.msgs"] += float64(st.Messages)
		m["engine.bytes"] += float64(st.Bytes)
		for src, row := range st.Pairs {
			for dst, p := range row {
				if procOf(src) != procOf(dst) {
					crossBytes += float64(p.Bytes)
				}
			}
		}
		if f := st.Faults; f != nil {
			m["hetgrid.checkpoints"] = float64(f.Checkpoints)
			m["hetgrid.resumed_steps"] = float64(f.ResumedSteps)
			m["hetgrid.attempts"] = float64(f.Attempts)
		}
	}
	m["engine.msgs_per_step"] = m["engine.msgs"] / float64(w.nb())

	// The program's own span recorder: what it costs, and what it says
	// about where the ranks' time went.
	if spansWall := median(r.spans.walls); opWall > 0 && spansWall > 0 {
		m["obs.trace_overhead"] = spansWall/opWall - 1
	}
	for _, st := range r.lastSpans.stats {
		if st == nil {
			continue
		}
		m["engine.busy_s"] += sum(st.BusyTime)
		m["obs.spans_per_run"] += float64(len(st.Spans))
		m["engine.imbalance"] = max(m["engine.imbalance"], st.Imbalance)
	}
	m["engine.wait_s"] = float64(gridRanks)*m["engine.kernel_s"] - m["engine.busy_s"]

	if w.tcp {
		m["engine-net.establish_s"] = medianOf(r.bodies, func(b bodyTimes) float64 { return b.establish })
		for _, ws := range r.lastOp.wire {
			m["engine-net.wire_bytes"] += float64(ws.BytesSent)
			m["engine-net.frames"] += float64(ws.FramesSent)
		}
		if crossBytes > 0 {
			m["engine-net.wire_overhead"] = m["engine-net.wire_bytes"] / crossBytes
		}
		if memKernel := medianOf(r.memBodies, func(b bodyTimes) float64 { return b.kernel }); memKernel > 0 {
			m["engine-net.tcp_over_mem"] = m["engine.kernel_s"] / memKernel
		}
	}

	// The serial baseline: the same block algorithm on one goroutine, at
	// the workload's numerics.
	runtime.GC()
	t0 := time.Now()
	_, err := w.replay(w.numerics)
	serial := time.Since(t0).Seconds()
	tr.add(tr.newOp(), 0, "matrix.serial_replay", t0, time.Now())
	w.t.check(err)
	m["matrix.serial_s"] = serial
	m["matrix.flops"] = w.flops()
	if opWall > 0 {
		m["matrix.gflops_effective"] = w.flops() / opWall / 1e9
		cores := float64(min(gridRanks, runtime.GOMAXPROCS(0)))
		m["matrix.parallel_eff"] = serial / (opWall * cores)
	}
	if matrix.FastAvailable() {
		m["matrix.fast_available"] = 1
	}
	m["matrix.fast_dispatches"] = fastDispatches() - fastBefore

	micro := d / 25
	if quick {
		micro = 5 * time.Millisecond
	}
	w.traceBlocks(m, micro)
	w.traceFabric(m, micro, tr)
	w.traceModel(m, tr)
	tracePanel(m, micro, w.plan, panelSearch, w.kernel, w.nb(), &w.t)
	if w.recover {
		survivors := w.plan.Arrangement().Times()[:crashRank]
		m["adapt.replan_us"] = 1e6 * perCall(micro, func() {
			if _, _, err := hetgrid.PlanSurvivors(survivors, w.nb(), w.nb(), w.kernel); err != nil {
				w.t.fail(1, "replanning the survivors: %v", err)
			}
		})
	}
	return m
}

// procOf is the process hosting a rank on chol-tcp (contiguous chunks);
// everything is process 0 on the in-process fabric.
func procOf(rank int) int { return rank * tcpProcs / gridRanks }

func fastDispatches() float64 {
	_, _, _, fast := matrix.PoolStats()
	return float64(fast)
}

// traceBlocks times the r×r block operations of internal/matrix the
// workload's kernel is built from, at its block size and numerics.
func (w *engineWL) traceBlocks(m map[string]float64, d time.Duration) {
	r := w.r
	rng := rand.New(rand.NewSource(1))
	a, b, c := matrix.Random(r, r, rng), matrix.Random(r, r, rng), matrix.New(r, r)
	r3 := float64(r) * float64(r) * float64(r)
	m["matrix.gemm_block_gflops"] = 2 * r3 / perCall(d, func() { c.AddMulNumerics(-1, a, b, w.numerics) }) / 1e9

	switch w.kernel {
	case hetgrid.LU, hetgrid.Cholesky:
		l := matrix.RandomWellConditioned(r, rng)
		rhs := matrix.Random(r, r, rng)
		m["matrix.trsm_block_gflops"] = r3 / perCall(d, func() { l.SolveLowerUnitNumerics(rhs, w.numerics) }) / 1e9
		src, work := matrix.RandomWellConditioned(r, rng), matrix.New(r, r)
		m["matrix.panel_factor_us"] = 1e6 * perCall(d, func() {
			work.CopyFrom(src)
			if err := matrix.FactorNoPivot(work); err != nil {
				w.t.fail(1, "block factorization: %v", err)
			}
		})
	case hetgrid.QR:
		src := matrix.Random(r, r, rng)
		var qr *matrix.QR
		m["matrix.panel_factor_us"] = 1e6 * perCall(d, func() { qr = matrix.FactorQR(src) })
		rhs := matrix.Random(r, r, rng)
		// Applying r reflectors of length ≤ r to r columns: about 2r³ flops.
		m["matrix.qtmul_block_gflops"] = 2 * r3 / perCall(d, func() { qr.QTMul(rhs) }) / 1e9
	}
}

// traceFabric times one r×r block crossing the in-process fabric (a round
// trip between two ranks, and a flat broadcast to three with their
// acknowledgements), and on chol-tcp the same round trip and a stream of
// blocks over the loopback TCP fabric.
func (w *engineWL) traceFabric(m map[string]float64, d time.Duration, tr *tracer) {
	blk := matrix.Random(w.r, w.r, rand.New(rand.NewSource(2)))
	ack := matrix.New(1, 1)

	var rounds int
	t0 := time.Now()
	_, err := engine.RunOpts(2, engine.Options{}, func(c *engine.Comm) error {
		if c.Rank() == 1 {
			for c.Recv(0, "ping").Rows() > 1 {
				c.Send(0, "pong", blk)
			}
			return nil
		}
		for time.Since(t0) < d {
			c.Send(1, "ping", blk)
			c.Recv(1, "pong")
			rounds++
		}
		c.Send(1, "ping", ack) // a 1×1 payload ends the exchange
		return nil
	})
	w.t.check(err)
	if rounds > 0 {
		m["engine.pingpong_us"] = 1e6 * time.Since(t0).Seconds() / float64(rounds)
	}

	rounds = 0
	t0 = time.Now()
	others := []int{1, 2, 3}
	_, err = engine.RunOpts(gridRanks, engine.Options{}, func(c *engine.Comm) error {
		co := engine.NewCollectives(c, w.dist)
		for {
			var payload *matrix.Dense
			if c.Rank() == 0 {
				payload = blk
				if time.Since(t0) >= d {
					payload = ack
				}
			}
			got := co.Bcast("bcast", 0, others, payload, 0)
			if got.Rows() == 1 {
				return nil
			}
			if c.Rank() != 0 {
				c.Send(0, "ack", ack)
				continue
			}
			for _, o := range others {
				c.Recv(o, "ack")
			}
			rounds++
		}
	})
	w.t.check(err)
	if rounds > 0 {
		m["engine.bcast_us"] = 1e6 * time.Since(t0).Seconds() / float64(rounds)
	}

	if !w.tcp {
		return
	}
	cl, err := establish(2)
	if err != nil {
		w.t.check(err)
		return
	}
	defer cl.close()
	ctx, cancel := context.WithTimeout(context.Background(), clusterTimeout)
	defer cancel()
	const streamBlocks = 256
	var pingUS, mbps float64
	err = cl.run(func(proc int, fab *enginenet.Fabric) error {
		if proc == 1 {
			for {
				got, err := fab.Recv(ctx, 0, 1, "ping")
				if err != nil {
					return err
				}
				if got.Rows() == 1 {
					break
				}
				fab.Send(1, 0, "pong", blk)
			}
			for i := 0; i < streamBlocks; i++ {
				if _, err := fab.Recv(ctx, 0, 1, "stream"); err != nil {
					return err
				}
			}
			fab.Send(1, 0, "streamed", ack)
			return nil
		}
		rounds := 0
		t0 := time.Now()
		for time.Since(t0) < d {
			fab.Send(0, 1, "ping", blk)
			if _, err := fab.Recv(ctx, 1, 0, "pong"); err != nil {
				return err
			}
			rounds++
		}
		pingUS = 1e6 * time.Since(t0).Seconds() / float64(rounds)
		fab.Send(0, 1, "ping", ack)
		t0 = time.Now()
		for i := 0; i < streamBlocks; i++ {
			fab.Send(0, 1, "stream", blk)
		}
		if _, err := fab.Recv(ctx, 1, 0, "streamed"); err != nil {
			return err
		}
		mbps = float64(streamBlocks*8*w.r*w.r) / time.Since(t0).Seconds() / 1e6
		tr.add(tr.newOp(), 0, "engine-net.stream", t0, time.Now())
		return nil
	})
	w.t.check(err)
	m["engine-net.pingpong_us"], m["engine-net.mb_per_s"] = pingUS, mbps
}

// traceModel puts the simulator's prediction for this run next to the
// measurement: the simulated makespan of the same kernel, distribution and
// flat broadcast, in seconds through a block-update calibration.
func (w *engineWL) traceModel(m map[string]float64, tr *tracer) {
	t0 := time.Now()
	rows, err := w.scenario.simulate(nil)
	m["sim.simulate_ms"] = 1e3 * time.Since(t0).Seconds() / 3 // three distributions
	tr.add(tr.newOp(), 0, "sim.simulate", t0, time.Now())
	if err != nil {
		w.t.check(err)
		return
	}
	cal, err := hetgrid.Calibrate(w.r, 0)
	if err != nil {
		w.t.check(err)
		return
	}
	res := rows[0].hetPanel
	// Simulated time is in units of the fastest processor's block update.
	m["sim.pred_wall_s"] = res.Makespan * cal.SecondsPerUpdate
	if k := m["engine.kernel_s"]; k > 0 {
		m["sim.pred_over_measured"] = m["sim.pred_wall_s"] / k
	}
	if kernelMsgs, err := w.kernelMessages(); err != nil {
		w.t.check(err)
	} else if res.Stats != nil && res.Stats.Messages == kernelMsgs {
		m["sim.msgs_match"] = 1
	}
}

// kernelMessages is the message count of the kernel alone on the flat
// broadcast: a body run's total minus a scatter-and-gather-only run's.
func (w *engineWL) kernelMessages() (int, error) {
	count := func(body func(c *engine.Comm) error) (int, error) {
		world, err := engine.RunOpts(gridRanks, engine.Options{Parallelism: 1, Numerics: w.numerics}, body)
		if err != nil {
			return 0, err
		}
		return world.Messages(), nil
	}
	with, err := count(func(c *engine.Comm) error {
		var bt bodyTimes
		var marks [4]time.Time
		return w.spmd(c, &bt, &marks)
	})
	if err != nil {
		return 0, err
	}
	without, err := count(func(c *engine.Comm) error {
		inputs := []*matrix.Dense{w.a}
		if w.kernel == hetgrid.MatMul {
			inputs = append(inputs, w.b)
		}
		var s *engine.BlockStore
		for _, in := range inputs {
			if c.Rank() != 0 {
				in = nil
			}
			var err error
			if s, err = engine.Scatter(c, w.dist, in, w.r); err != nil {
				return err
			}
		}
		_, err := engine.Gather(c, w.dist, s)
		return err
	})
	return with - without, err
}
