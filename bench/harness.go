package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// workload is one named set of inputs. The harness drives every workload
// through the same life cycle: prepare (inputs and oracles, the benchmark's
// own cost), setup repeated and timed, then either the end-to-end pass
// (measure, possibly in several blocks, then report) or the traced pass.
type workload interface {
	// prepare generates the inputs from the seed and computes the oracles.
	prepare(seed int64) error
	// setup does once what a user pays before the first operation, leaving
	// the workload ready to run. It is called several times; the last call's
	// state is the one the passes use.
	setup() error
	// measure runs operations through the public facade with every recorder
	// off for about d, adding to the samples of earlier calls. With quick
	// set it runs a token number of operations instead.
	measure(d time.Duration, quick bool)
	// report turns the samples into the end-to-end metrics (setup_s is
	// added by the harness).
	report() map[string]summary
	// trace runs the traced pass for about d and returns the per-layer
	// metrics it measured; absent names read 0.
	trace(d time.Duration, quick bool, tr *tracer) map[string]float64
	// tally returns the operations attempted and failed so far.
	tally() *tally
	// close releases servers and sockets.
	close()
}

// tally counts operations against the oracle; failures are listed, they do
// not abort the run.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

const maxListedFailures = 20

func (t *tally) ok(n int) {
	t.mu.Lock()
	t.attempted += n
	t.mu.Unlock()
}

func (t *tally) fail(n int, format string, args ...any) {
	t.mu.Lock()
	t.attempted += n
	t.failed += n
	if len(t.failures) < maxListedFailures {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// check counts one operation, failed when err is non-nil.
func (t *tally) check(err error) {
	if err != nil {
		t.fail(1, "%v", err)
		return
	}
	t.ok(1)
}

// span is one timed interval recorded by the harness around a call into a
// layer. Spans of one operation share Op; Parent links a phase to its
// operation (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps the traced pass's spans in memory; they are written out once
// when the pass ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allocates an operation id shared by the spans of one operation.
func (tr *tracer) newOp() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.ops++
	return tr.ops
}

// add records a finished span and returns its id.
func (tr *tracer) add(op, parent int, name string, start, end time.Time) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(tr.t0).Seconds(), End: end.Sub(tr.t0).Seconds()})
	return id
}

// end moves the end of a span recorded before its children.
func (tr *tracer) end(id int, end time.Time) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[id-1].End = end.Sub(tr.t0).Seconds()
}

func (tr *tracer) write(path string) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// timeSetup repeats the workload's setup and returns the walls. It repeats
// at least minSetupRepeats times and until setupBudget has gone by, because
// an engine workload's setup is a few hundred microseconds and a median of
// five of those does not repeat within its bound.
const (
	minSetupRepeats = 5
	maxSetupRepeats = 400
	setupBudget     = 400 * time.Millisecond
)

func timeSetup(w workload, quick bool) ([]float64, error) {
	var walls []float64
	begin := time.Now()
	for len(walls) < maxSetupRepeats {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		if len(walls) >= minSetupRepeats && (quick || time.Since(begin) >= setupBudget) {
			break
		}
	}
	return walls, nil
}

// timeLoop calls fn repeatedly for about d (at least minReps times; exactly
// quickReps times in quick mode), collecting garbage before each call
// outside the timed region, and returns fn's own walls. fn returns the wall
// it wants recorded so that verification can stay outside it.
const (
	minReps   = 3
	quickReps = 3
)

func timeLoop(d time.Duration, quick bool, fn func() float64) []float64 {
	var walls []float64
	begin := time.Now()
	for {
		runtime.GC()
		walls = append(walls, fn())
		if quick {
			if len(walls) >= quickReps {
				return walls
			}
			continue
		}
		if len(walls) >= minReps && time.Since(begin) >= d {
			return walls
		}
	}
}

// perCall times fn in a tight loop for about d and returns the mean seconds
// per call — for layer operations of microseconds, where one call is below
// the clock's useful resolution.
func perCall(d time.Duration, fn func()) float64 {
	fn() // warm
	calls := 0
	begin := time.Now()
	for {
		for i := 0; i < 8; i++ {
			fn()
		}
		calls += 8
		if el := time.Since(begin); el >= d {
			return el.Seconds() / float64(calls)
		}
	}
}
