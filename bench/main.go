// Command bench is hetgrid's one end-to-end benchmark: eight named
// workloads, six end-to-end metrics measured through the public facade
// with every recorder off, and per-layer numbers from a separate traced
// pass. See README.md in this directory for what each name means, and
// BENCHMARK.json at the repository root for the contract.
//
//	go run . [-workload a,b] [-seed n] [-seconds s] [-trace 0|1] [-aa] [-quick] [-out file] [-outdir dir]
//
// With one workload and one pass (-workload w -trace 0|1) the last line of
// standard output is the machine-readable result of that run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const defaultSeed = 20000501

type config struct {
	seed    int64
	seconds time.Duration
	quick   bool
	outdir  string
}

func newWorkload(name string) workload {
	for _, s := range engineSpecs {
		if s.name == name {
			return &engineWL{engineSpec: s}
		}
	}
	switch name {
	case "plan-hot":
		return &serviceWL{name: name, hot: true}
	case "plan-cold":
		return &serviceWL{name: name}
	case "sim-paper":
		return &simWL{}
	}
	return nil
}

// passResult is one workload's outcome of one pass.
type passResult struct {
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
}

// prepared is a workload with its inputs generated and its setup timed.
type prepared struct {
	name   string
	w      workload
	setups []float64
}

func prepareAll(names []string, cfg config, timeSetups bool) ([]*prepared, error) {
	var out []*prepared
	for _, name := range names {
		p := &prepared{name: name, w: newWorkload(name)}
		if err := p.w.prepare(cfg.seed); err != nil {
			return nil, fmt.Errorf("%s: prepare: %w", name, err)
		}
		var err error
		if timeSetups {
			p.setups, err = timeSetup(p.w, cfg.quick)
		} else {
			err = p.w.setup()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		out = append(out, p)
	}
	return out, nil
}

func closeAll(ps []*prepared) {
	for _, p := range ps {
		p.w.close()
	}
}

// endToEndPass measures every workload with all recorders off. With more
// than one workload the measuring time of each is split into two blocks
// separated by the other workloads (A B C … A B C …), so that a slow spell
// of the shared machine does not land on one workload only.
func endToEndPass(ps []*prepared, cfg config) map[string]*passResult {
	blocks := 1
	if len(ps) > 1 {
		blocks = 2
	}
	for b := 0; b < blocks; b++ {
		for _, p := range ps {
			p.w.measure(cfg.seconds/time.Duration(blocks), cfg.quick)
		}
	}
	out := map[string]*passResult{}
	for _, p := range ps {
		// A second burst of set-ups after the measurement: the two bursts
		// are the measuring time apart, so a short slow spell of the machine
		// cannot cover both.
		more, err := timeSetup(p.w, cfg.quick)
		p.w.tally().check(err)
		p.setups = append(p.setups, more...)
		e2e := p.w.report()
		e2e["setup_s"] = summarize(p.setups)
		out[p.name] = finish(p, &passResult{EndToEnd: e2e})
	}
	return out
}

func tracedPass(ps []*prepared, cfg config) (map[string]*passResult, error) {
	out := map[string]*passResult{}
	for _, p := range ps {
		tr := newTracer()
		layers := p.w.trace(cfg.seconds, cfg.quick, tr)
		for name := range layers {
			if unitOf(name) == "" {
				return nil, fmt.Errorf("%s: traced pass produced the undeclared metric %q", p.name, name)
			}
		}
		if err := tr.write(filepath.Join(cfg.outdir, "trace-"+p.name+".json")); err != nil {
			return nil, err
		}
		out[p.name] = finish(p, &passResult{PerLayer: layers})
	}
	return out, nil
}

func finish(p *prepared, r *passResult) *passResult {
	t := p.w.tally()
	r.Attempted, r.Failed, r.Failures = t.attempted, t.failed, t.failures
	return r
}

func printEndToEnd(name string, r *passResult) {
	for _, d := range endToEndDefs {
		s := r.EndToEnd[d.Name]
		fmt.Printf("%-10s %-26s %14.6g %-6s", name, d.Name, s.P50, d.Unit)
		if s.P75 > 0 {
			fmt.Printf("  p25 %.6g  p75 %.6g", s.P25, s.P75)
		}
		if s.N > 1 {
			fmt.Printf("  n %d", s.N)
		}
		fmt.Println()
	}
	printTally(name, r)
}

func printPerLayer(name string, r *passResult) {
	for _, d := range perLayerDefs {
		// 0 is a layer this workload does not exercise; the machine-readable
		// result still carries it.
		if v := r.PerLayer[d.Name]; v != 0 {
			fmt.Printf("%-10s %-30s %14.6g %s\n", name, d.Name, v, d.Unit)
		}
	}
	printTally(name, r)
}

func printTally(name string, r *passResult) {
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("%-10s %-26s %14.6g ratio   (%d failed of %d)\n", name, "fail_ratio", ratio, r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Printf("%-10s FAILED: %s\n", name, f)
	}
}

// contractLine is the machine-readable last line of a single-workload,
// single-pass run.
func contractLine(r *passResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if r.EndToEnd != nil {
		for _, d := range endToEndDefs {
			metrics[d.Name] = value{r.EndToEnd[d.Name].P50, d.Unit}
		}
	} else {
		for _, d := range perLayerDefs {
			metrics[d.Name] = value{r.PerLayer[d.Name], d.Unit}
		}
	}
	blob, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, metrics})
	return string(blob)
}

// compareAA prints both values of every workload × end-to-end metric with
// their relative difference and bound, and reports whether all agree.
func compareAA(names []string, first, second map[string]*passResult) bool {
	ok := true
	fmt.Printf("\n%-10s %-26s %14s %14s %9s %9s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, name := range names {
		for _, d := range endToEndDefs {
			a, b := first[name].EndToEnd[d.Name].P50, second[name].EndToEnd[d.Name].P50
			diff := math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
			verdict := ""
			if !(diff <= d.Bound) {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Printf("%-10s %-26s %14.6g %14.6g %8.2f%% %8.2f%%%s\n", name, d.Name, a, b, 100*diff, 100*d.Bound, verdict)
		}
		if first[name].Failed != 0 || second[name].Failed != 0 {
			fmt.Printf("%-10s failed operations: %d and %d\n", name, first[name].Failed, second[name].Failed)
			ok = false
		}
	}
	return ok
}

func run() error {
	var (
		workloads = flag.String("workload", "", "comma-separated workloads to run (default: all eight)")
		seed      = flag.Int64("seed", defaultSeed, "seed every generated input derives from")
		seconds   = flag.Float64("seconds", 10, "measuring time per workload and pass")
		trace     = flag.Int("trace", -1, "0: end-to-end pass only; 1: traced pass only; default both")
		aa        = flag.Bool("aa", false, "run the end-to-end pass twice and check that the two agree within the bounds")
		quick     = flag.Bool("quick", false, "smoke run: 3 operations / 1 s windows; the numbers are not comparable")
		out       = flag.String("out", "", "result file (default <outdir>/results.json)")
		outdir    = flag.String("outdir", "out", "directory for the result and trace files")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), quick: *quick, outdir: *outdir}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	names := workloadNames()
	if *workloads != "" {
		names = strings.Split(*workloads, ",")
		for _, n := range names {
			if newWorkload(n) == nil {
				return fmt.Errorf("unknown workload %q (have %s)", n, strings.Join(workloadNames(), ", "))
			}
		}
	}
	if *quick {
		fmt.Println("*** -quick: smoke run, these numbers are NOT comparable with a full run ***")
	}

	report := struct {
		Seed      int64                  `json:"seed"`
		Seconds   float64                `json:"seconds"`
		Quick     bool                   `json:"quick"`
		EndToEnd  map[string]*passResult `json:"end_to_end_pass,omitempty"`
		Second    map[string]*passResult `json:"second_end_to_end_pass,omitempty"`
		Traced    map[string]*passResult `json:"traced_pass,omitempty"`
		Generated string                 `json:"generated"`
	}{Seed: *seed, Seconds: *seconds, Quick: *quick, Generated: time.Now().UTC().Format(time.RFC3339)}

	ps, err := prepareAll(names, cfg, *trace != 1)
	if err != nil {
		return err
	}
	defer func() { closeAll(ps) }()

	var last *passResult
	agree := true
	if *trace != 1 {
		report.EndToEnd = endToEndPass(ps, cfg)
		for _, n := range names {
			printEndToEnd(n, report.EndToEnd[n])
			last = report.EndToEnd[n]
		}
		if *aa {
			// Fresh workloads for the second pass, with the first pass's
			// inputs released: they would grow the heap the second runs in.
			closeAll(ps)
			ps = nil
			runtime.GC()
			if ps, err = prepareAll(names, cfg, true); err != nil {
				return err
			}
			report.Second = endToEndPass(ps, cfg)
			agree = compareAA(names, report.EndToEnd, report.Second)
		}
	}
	if *trace != 0 {
		if report.Traced, err = tracedPass(ps, cfg); err != nil {
			return err
		}
		for _, n := range names {
			printPerLayer(n, report.Traced[n])
			last = report.Traced[n]
			if e2e := report.EndToEnd[n]; e2e != nil {
				plain, traced := e2e.EndToEnd["op_p50_ms"].P50, last.PerLayer["bench.traced_op_p50_ms"]
				fmt.Printf("%-10s %-30s %14.6g ratio  (op_p50_ms %.6g traced, %.6g end-to-end)\n",
					n, "tracing overhead", traced/plain-1, traced, plain)
			}
		}
	}

	file := *out
	if file == "" {
		file = filepath.Join(cfg.outdir, "results.json")
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(file, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", file)

	failed := 0
	for _, pass := range []map[string]*passResult{report.EndToEnd, report.Second, report.Traced} {
		for _, r := range pass {
			failed += r.Failed
		}
	}
	if len(names) == 1 && *trace >= 0 && !*aa {
		fmt.Println(contractLine(last))
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed verification", failed)
	}
	if !agree {
		return fmt.Errorf("-aa: the two end-to-end passes differ by more than a bound")
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, d := range workloadDefs {
		out = append(out, d.Name)
	}
	return out
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
