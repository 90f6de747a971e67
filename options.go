package hetgrid

// Option configures a call to one of the package's variadic entry points
// (Balance, SolvePlan, the Distributed* executions, Multiply, Factor). One
// option vocabulary covers both planning and execution; options that do
// not apply to a given call are ignored, so a slice of options can be
// built once and passed everywhere.
type Option func(*callOptions)

// callOptions is the union of everything the variadic entry points accept.
type callOptions struct {
	exec    execOptions
	balance balanceOptions
}

// applyOptions folds a slice of options over defaults.
func applyOptions(opts []Option) callOptions {
	var co callOptions
	for _, o := range opts {
		if o != nil {
			o(&co)
		}
	}
	return co
}

// WithBroadcast selects the collective algorithm of a distributed
// execution (flat, ring, pipelined ring, binomial tree); without it the
// execution runs the flat broadcast, as SimOptions{} does.
func WithBroadcast(b BroadcastKind) Option {
	return func(co *callOptions) { co.exec.Broadcast = b }
}

// WithParallelism lets every rank use up to n goroutines for its own block
// computations. Results stay bit-identical to a serial run for any value.
func WithParallelism(n int) Option {
	return func(co *callOptions) { co.exec.Parallelism = n }
}

// WithNumerics selects the floating-point contract of the call's compute
// kernels: Strict (the default) keeps every result bit-identical across
// code paths; Fast unlocks the FMA-fused micro-kernel under the relaxed
// componentwise error bound documented on Numerics. Applies to Multiply,
// Factor and the Distributed* executions.
func WithNumerics(n Numerics) Option {
	return func(co *callOptions) { co.exec.Numerics = n }
}

// WithFaults enables deterministic fault injection (and, when
// f.Recover is set, checkpoint-based recovery) on a distributed execution.
func WithFaults(f FaultOptions) Option {
	return func(co *callOptions) { co.exec.Faults = &f }
}

// WithDriftRebalance enables online rebalancing under load drift on a
// distributed execution: the run watches per-rank busy-time gauges, and
// when sustained drift away from the planned shares is detected — and the
// projected saving beats the migration cost — it checkpoints, replans the
// same ranks for the estimated cycle-times, re-scatters and resumes
// mid-kernel. Results stay bit-identical to the undisturbed run; the
// decisions are reported in ExecStats.Drift. A migration is a second
// attempt, which a fixed fabric from WithTransport refuses.
func WithDriftRebalance(p DriftPolicy) Option {
	return func(co *callOptions) { co.exec.Drift = &p }
}

// WithSpans records the hierarchical span timeline of a distributed
// execution: per-rank kernel-step spans with their compute, phase and
// recv-wait children, plus per-message send spans. ExecStats.Spans,
// BusyTime and Imbalance are derived from it; WriteChromeTrace and Gantt
// render it.
func WithSpans() Option {
	return func(co *callOptions) { co.exec.Spans = true }
}

// WithMetrics mirrors the execution's counters and gauges into m as
// Prometheus series, live while it runs: transport traffic, receive
// timeouts, kernel steps, fault activity, and the measured
// load-imbalance gauge (max/mean per-rank busy time). On planning calls
// (Balance, SolvePlan) with the exact strategy, the solver's
// arrangement and spanning-tree pruning counters are published instead.
// Serve m with (*Metrics).ServeMux or gridsim -metrics-addr.
func WithMetrics(m *Metrics) Option {
	return func(co *callOptions) {
		co.exec.Metrics = m
		co.balance.Metrics = m
	}
}

// WithWorkers sets the worker-goroutine count of the exact strategy's
// search (0 selects GOMAXPROCS). The solution is
// bit-identical for every worker count.
func WithWorkers(n int) Option {
	return func(co *callOptions) { co.balance.Workers = n }
}
