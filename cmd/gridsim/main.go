// Command gridsim simulates a dense linear algebra kernel on a
// heterogeneous network of workstations under a chosen data distribution,
// or — with -real — executes it for real on goroutine ranks exchanging
// messages, reporting the measured per-rank traffic.
//
// Examples:
//
//	gridsim -times 1,2,3,5 -p 2 -q 2 -nb 24 -kernel lu -dist panel -net bus
//	gridsim -real -kernel lu -dist all -nb 8 -r 8 -bcast tree -tracefile lu.json
package main

import (
	"flag"
	"fmt"
	"hetgrid"
	"hetgrid/internal/cliutil"
	"hetgrid/internal/matrix"
	"log"
	"math/rand"
	"os"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gridsim: ")
	var (
		timesFlag   = flag.String("times", "1,2,3,5", "comma-separated processor cycle-times (p*q values)")
		pFlag       = flag.Int("p", 2, "grid rows")
		qFlag       = flag.Int("q", 2, "grid columns")
		nbFlag      = flag.Int("nb", 24, "block matrix side (in blocks)")
		kernelFlag  = flag.String("kernel", "matmul", "kernel: matmul, lu, qr, cholesky")
		distFlag    = flag.String("dist", "panel", "distribution: uniform, kl, panel, all")
		netFlag     = flag.String("net", "switched", "network: switched, bus")
		latency     = flag.Float64("latency", 0.05, "per-message latency (block-update time units)")
		byteTime    = flag.Float64("bytetime", 1e-5, "per-byte transfer time")
		blockBytes  = flag.Float64("blockbytes", 8*32*32, "bytes per block message")
		syncSteps   = flag.Bool("sync", false, "barrier between outer-product steps")
		pivoting    = flag.Bool("pivot", false, "charge LU/QR for partial pivoting (search + worst-case row swap)")
		fullDuplex  = flag.Bool("fullduplex", false, "independent send/receive channels per node")
		gantt       = flag.Bool("gantt", false, "print a per-processor activity chart for each run")
		traceFile   = flag.String("tracefile", "", "write a Chrome-tracing JSON of the last run to this file")
		realFlag    = flag.Bool("real", false, "execute the kernel for real (goroutine ranks, measured traffic) instead of simulating")
		listenFlag  = flag.String("listen", "", "multi-process mode: coordinate a cluster at this address (e.g. 127.0.0.1:7001), distribute the plan and host the first rank chunk")
		procsFlag   = flag.Int("procs", 2, "multi-process mode: total process count the coordinator waits for (with -listen)")
		joinFlag    = flag.String("join", "", "multi-process mode: join the coordinator at this address and run the assigned rank chunk (all kernel flags come from the coordinator)")
		rFlag       = flag.Int("r", 8, "element block size for -real runs (matrix side = nb*r)")
		parallel    = flag.Int("parallel", 1, "goroutines per rank for -real block updates (bit-identical for any value)")
		numericsF   = flag.String("numerics", "strict", "floating-point contract for -real block computations: strict (bit-identical) or fast (FMA-fused, bounded error)")
		bcastFlag   = flag.String("bcast", "auto", "broadcast algorithm: auto, flat, ring, pipeline, tree")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus text metrics at /metrics and profiling at /debug/pprof on this address (e.g. :9090); gridsim keeps serving after the run until interrupted")

		faultCrash   = flag.String("faultcrash", "", "crash schedule rank@step[s],... — trailing s means a silent crash (failure detector exercised)")
		faultSlow    = flag.String("faultslow", "", "slowdown schedule rank@step*factor,... — the rank's compute takes factor× its natural time from that step on (results untouched)")
		faultRecover = flag.Bool("faultrecover", false, "recover from rank failures: replan the survivors and resume from the last checkpoint")
		ckptEvery    = flag.Int("ckpt", 1, "checkpoint the working matrix every so many kernel steps (with -faultrecover)")
		driftFlag    = flag.Bool("drift", false, "rebalance -real runs online under load drift: watch busy-time gauges, and when sustained drift beats the migration cost, checkpoint, replan and resume mid-kernel")
		driftPolicy  = flag.String("driftpolicy", "", "drift policy knobs as key=value,... (window, alpha, threshold, patience, hysteresis, max); empty selects the documented defaults")
	)
	flag.Parse()

	faultsOn := *faultCrash != "" || *faultSlow != "" || *faultRecover
	if faultsOn && !*realFlag {
		log.Fatal("-faultcrash, -faultslow and -faultrecover require -real (faults are injected into the real execution, not the simulator)")
	}
	if *driftFlag || *driftPolicy != "" {
		if !*realFlag {
			log.Fatal("-drift requires -real (the drift detector watches measured busy time, which the simulator does not produce)")
		}
		if *listenFlag != "" || *joinFlag != "" {
			log.Fatal("-drift requires the in-process fabric and cannot combine with -listen/-join")
		}
	}

	var metrics *hetgrid.Metrics
	if *metricsAddr != "" {
		metrics = hetgrid.NewMetrics()
		addr, _, err := metrics.Serve(*metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("serving metrics at http://%s/metrics (profiling at /debug/pprof)\n", addr)
	}

	if *joinFlag != "" {
		if err := runJoin(*joinFlag, metrics); err != nil {
			log.Fatal(err)
		}
		blockOnMetrics(metrics)
		return
	}

	times, err := cliutil.ParseTimes(*timesFlag)
	if err != nil {
		log.Fatal(err)
	}
	kernel, err := hetgrid.ParseKernel(*kernelFlag)
	if err != nil {
		log.Fatal(err)
	}
	bcast, err := hetgrid.ParseBroadcast(*bcastFlag)
	if err != nil {
		log.Fatal(err)
	}
	numerics, err := hetgrid.ParseNumerics(*numericsF)
	if err != nil {
		log.Fatal(err)
	}
	if *listenFlag != "" {
		if *distFlag == "all" {
			log.Fatal("-listen needs a single distribution (-dist uniform, kl or panel)")
		}
		pay := netPlan{
			Times: times, P: *pFlag, Q: *qFlag, NB: *nbFlag, R: *rFlag,
			Kernel: *kernelFlag, Dist: *distFlag, Bcast: *bcastFlag, Numerics: *numericsF, Seed: 1,
		}
		if err := runListen(*listenFlag, *procsFlag, pay, metrics); err != nil {
			log.Fatal(err)
		}
		blockOnMetrics(metrics)
		return
	}

	plan, _, err := hetgrid.SolvePlan(hetgrid.PlanRequest{Times: times, P: *pFlag, Q: *qFlag}, hetgrid.WithMetrics(metrics))
	if err != nil {
		log.Fatal(err)
	}
	opts := hetgrid.SimOptions{
		Latency:    *latency,
		ByteTime:   *byteTime,
		SharedBus:  *netFlag == "bus",
		FullDuplex: *fullDuplex,
		BlockBytes: *blockBytes,
		SyncSteps:  *syncSteps,
		Pivoting:   *pivoting,
		Broadcast:  bcast,
	}
	if *netFlag != "bus" && *netFlag != "switched" {
		log.Fatalf("unknown network %q (want switched or bus)", *netFlag)
	}

	dists, err := buildDistributions(*distFlag, plan, kernel, *nbFlag, *pFlag, *qFlag)
	if err != nil {
		log.Fatal(err)
	}

	var faults *hetgrid.FaultOptions
	if faultsOn {
		crashes, err := cliutil.ParseCrashSchedule(*faultCrash)
		if err != nil {
			log.Fatal(err)
		}
		slowdowns, err := cliutil.ParseSlowdownSchedule(*faultSlow)
		if err != nil {
			log.Fatal(err)
		}
		faults = &hetgrid.FaultOptions{
			Crashes:         crashes,
			Slowdowns:       slowdowns,
			Recover:         *faultRecover,
			CheckpointEvery: *ckptEvery,
			Times:           times,
		}
	}

	var drift *hetgrid.DriftPolicy
	if *driftFlag || *driftPolicy != "" {
		pol, err := hetgrid.ParseDriftPolicy(*driftPolicy)
		if err != nil {
			log.Fatal(err)
		}
		pol.Times = times
		drift = &pol
	}

	if *realFlag {
		if err := runReal(kernel, dists, *nbFlag, *rFlag, *parallel, bcast, numerics, faults, drift, *traceFile, metrics); err != nil {
			log.Fatal(err)
		}
		blockOnMetrics(metrics)
		return
	}
	if numerics != hetgrid.Strict {
		log.Fatal("-numerics fast requires -real (the simulator performs no floating-point kernel work)")
	}

	fmt.Printf("%-20s %12s %12s %8s %9s %12s\n", "distribution", "makespan", "comp bound", "eff", "msgs", "bytes")
	var uniform float64
	var lastRes *hetgrid.SimResult
	for _, dc := range dists {
		var res *hetgrid.SimResult
		var chart string
		var err error
		if *gantt || *traceFile != "" {
			res, chart, err = hetgrid.TraceSimulation(kernel, dc.d, plan, opts, 100)
			if !*gantt {
				chart = ""
			}
		} else {
			res, err = hetgrid.Simulate(kernel, dc.d, plan, opts)
		}
		if err != nil {
			log.Fatal(err)
		}
		if dc.name == "uniform" {
			uniform = res.Makespan
		}
		line := fmt.Sprintf("%-20s %12.2f %12.2f %8.3f %9d %12.0f",
			dc.name, res.Makespan, res.CompBound, res.Efficiency(), res.Stats.Messages, res.Stats.Bytes)
		if uniform > 0 && dc.name != "uniform" {
			line += fmt.Sprintf("   (%.2fx vs uniform)", uniform/res.Makespan)
		}
		fmt.Println(line)
		if chart != "" {
			fmt.Print(chart)
		}
		lastRes = res
	}
	if *traceFile != "" && lastRes != nil {
		if err := writeTrace(*traceFile, lastRes.Spans); err != nil {
			log.Fatal(err)
		}
	}
	blockOnMetrics(metrics)
}

// blockOnMetrics keeps the process alive once all runs finish so the final
// counter values stay scrapeable; a scraper polling /metrics would otherwise
// race the exit. No-op without -metrics-addr.
func blockOnMetrics(m *hetgrid.Metrics) {
	if m == nil {
		return
	}
	fmt.Println("runs complete; metrics server still serving, interrupt (Ctrl-C) to exit")
	select {}
}

// runReal executes the kernel with one goroutine per grid processor and
// reports the measured traffic: world totals plus the per-rank breakdown
// the engine's instrumented transport collects. With a trace file the last
// run's spans are written in Chrome-tracing format.
func runReal(kernel hetgrid.Kernel, dists []distCase, nb, r, parallel int, bcast hetgrid.BroadcastKind, numerics hetgrid.Numerics, faults *hetgrid.FaultOptions, drift *hetgrid.DriftPolicy, traceFile string, metrics *hetgrid.Metrics) error {
	if r <= 0 {
		return fmt.Errorf("block size -r must be positive, got %d", r)
	}
	n := nb * r
	rng := rand.New(rand.NewSource(1))
	fmt.Printf("real execution: %d×%d matrix (%d×%d blocks of %d), %s broadcast, %s numerics\n\n", n, n, nb, nb, r, bcast, numerics)

	var lastStats *hetgrid.ExecStats
	for _, dc := range dists {
		// A nil registry disables metrics.
		opts := []hetgrid.Option{hetgrid.WithBroadcast(bcast), hetgrid.WithParallelism(parallel), hetgrid.WithNumerics(numerics), hetgrid.WithMetrics(metrics)}
		if traceFile != "" {
			opts = append(opts, hetgrid.WithSpans())
		}
		if faults != nil {
			opts = append(opts, hetgrid.WithFaults(*faults))
		}
		if drift != nil {
			opts = append(opts, hetgrid.WithDriftRebalance(*drift))
		}
		a, b, err := randomInputs(kernel, n, rng)
		if err != nil {
			return err
		}
		_, stats, err := execute(kernel, dc.d, a, b, r, opts)
		if err != nil {
			return err
		}
		printStats(dc.name, stats)
		lastStats = stats
	}
	if traceFile != "" && lastStats != nil {
		return writeTrace(traceFile, lastStats.Spans)
	}
	return nil
}

// writeTrace writes the last run's spans — both callers record whenever a
// trace file is named — to path in Chrome-tracing format.
func writeTrace(path string, spans []hetgrid.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := hetgrid.WriteChromeTrace(f, spans); err != nil {
		return err
	}
	fmt.Printf("wrote Chrome trace of the last run to %s\n", path)
	return nil
}

// randomInputs draws the kernel's input matrices of order n: A and B for
// the multiplication, otherwise the one matrix to factor (well conditioned
// for the unpivoted LU, symmetric positive definite for Cholesky).
func randomInputs(kernel hetgrid.Kernel, n int, rng *rand.Rand) (a, b *matrix.Dense, err error) {
	switch kernel {
	case hetgrid.MatMul:
		return matrix.Random(n, n, rng), matrix.Random(n, n, rng), nil
	case hetgrid.LU:
		return matrix.RandomWellConditioned(n, rng), nil, nil
	case hetgrid.QR:
		return matrix.Random(n, n, rng), nil, nil
	case hetgrid.Cholesky:
		return matrix.RandomSPD(n, rng), nil, nil
	default:
		return nil, nil, fmt.Errorf("kernel %v has no real execution path", kernel)
	}
}

// execute runs the kernel on d through the library and returns the
// gathered result (the product, or the packed factors) with the run's
// statistics.
func execute(kernel hetgrid.Kernel, d hetgrid.Distribution, a, b *matrix.Dense, r int, opts []hetgrid.Option) (*matrix.Dense, *hetgrid.ExecStats, error) {
	if kernel == hetgrid.MatMul {
		return hetgrid.DistributedMultiply(d, a, b, r, opts...)
	}
	f, stats, err := hetgrid.DistributedFactor(kernel, d, a, r, opts...)
	if err != nil {
		return nil, nil, err
	}
	return f.Packed(), stats, nil
}

// printStats prints one run's measured traffic (world totals and the
// per-rank table) and its fault and drift lines.
func printStats(name string, stats *hetgrid.ExecStats) {
	fmt.Printf("%-20s %9d messages %12d bytes\n", name, stats.Messages, stats.Bytes)
	fmt.Printf("  %6s %22s %22s\n", "rank", "sent (msgs / bytes)", "recv (msgs / bytes)")
	for i, rs := range stats.Ranks {
		fmt.Printf("  %6d %10d / %9d %10d / %9d\n", i, rs.MsgsSent, rs.BytesSent, rs.MsgsRecv, rs.BytesRecv)
	}
	if fs := stats.Faults; fs != nil {
		fmt.Printf("  faults: %d attempt(s), %d recovery(ies), %d crash(es), %d slowdown(s), %d timeouts, %d checkpoint(s), %d step(s) resumed\n",
			fs.Attempts, fs.Recoveries, fs.Crashes, fs.Slowdowns, fs.Timeouts, fs.Checkpoints, fs.ResumedSteps)
	}
	if ds := stats.Drift; ds != nil {
		fmt.Printf("  drift: %d window(s), %d evaluation(s), %d migration(s), %d block(s) moved, %.3g predicted saving\n",
			ds.Windows, ds.Evaluations, ds.Migrations, ds.MovedBlocks, ds.PredictedSaving)
	}
	fmt.Println()
}

type distCase struct {
	name string
	d    hetgrid.Distribution
}

func buildDistributions(kind string, plan *hetgrid.Plan, kernel hetgrid.Kernel, nb, p, q int) ([]distCase, error) {
	names := []string{kind}
	if kind == "all" {
		names = []string{"uniform", "kl", "panel"}
	}
	var out []distCase
	for _, name := range names {
		var d hetgrid.Distribution
		var err error
		switch name {
		case "uniform":
			d, err = hetgrid.Uniform(p, q, nb, nb)
		case "kl":
			name = "kalinov-lastovetsky"
			d, err = hetgrid.KalinovLastovetsky(plan, nb, nb)
		case "panel":
			name = "het-panel"
			var layout *hetgrid.Layout
			if layout, err = plan.BestPanel(4*p, 4*q, kernel); err == nil {
				d, err = layout.Distribute(nb, nb)
			}
		default:
			err = fmt.Errorf("unknown distribution %q (want uniform, kl, panel or all)", name)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, distCase{name, d})
	}
	return out, nil
}
