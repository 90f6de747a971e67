// Package obs is the repo's zero-dependency observability layer: a
// Prometheus-text-format metrics registry (counters, gauges, histograms
// with atomic hot paths) and the one record of a run — Span, written by
// the engine through a hierarchical span store (span IDs, parent links,
// per-rank timelines) and by the simulator directly, with the one
// Gantt/chrome-trace exporter and busy-time sum over []Span
// (timeline.go). The engine's transport emits send/recv traffic and
// timeout metrics, the kernels open spans per panel step, the exact solver records
// arrangement/tree pruning counters, and the driver layer derives the
// paper's measured load-imbalance (max/mean per-rank busy time) from the
// raw spans.
//
// Design constraints:
//
//   - increments on the hot path are single atomic adds — no locks, no
//     allocations — so instrumented transports stay cheap;
//   - the disabled path is a pointer test and a property of the instrument:
//     a nil registry hands out nil counters, which count nothing, and a nil
//     span store records nothing;
//   - exposure is the Prometheus text format over HTTP plus pprof, so any
//     scraper or a plain curl can read it; nothing outside the standard
//     library is required.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric with an atomic hot path. A
// nil *Counter — what a nil Registry hands out — is the disabled
// instrument: Inc and Add on it count nothing and allocate nothing, so
// increment sites need no guard of their own.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as atomic float64
// bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed upper-bound buckets, keeping
// the Prometheus cumulative-bucket convention on export. Observe is
// lock-free: one atomic add into the bucket plus atomic sum/count updates.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; the +Inf bucket is implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// sum returns the sum of all observed values.
func (h *Histogram) sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DefBuckets is the default histogram bucketing: exponential from 1ms to
// ~16s, suited to span durations in seconds.
var DefBuckets = []float64{0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128, 0.256, 0.512, 1.024, 2.048, 4.096, 8.192, 16.384}

// metricKind tags a registered series for the # TYPE line.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// series is one registered time series: a metric name plus a fixed label
// set.
type series struct {
	name   string
	labels string // rendered {k="v",...} or ""
	kind   metricKind
	help   string

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	// fn, when non-nil, overrides the gauge's stored value at exposition
	// time (see FuncGauge). Guarded by the registry mutex.
	fn func() float64
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Lookup/registration takes a lock; the returned
// Counter/Gauge/Histogram handles are lock-free, so callers should hold on
// to them rather than re-looking them up per event.
type Registry struct {
	mu     sync.Mutex
	byKey  map[string]*series
	sorted []*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*series{}}
}

// Labels renders a label set deterministically (sorted by key) for series
// identity and exposition.
func Labels(kv ...string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: Labels needs key/value pairs")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].k < pairs[b].k })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.k)
		sb.WriteByte('=')
		sb.WriteString(strconv.Quote(p.v))
	}
	sb.WriteByte('}')
	return sb.String()
}

// lookup returns the series for name+labels, creating it with mk when new.
// A kind mismatch on an existing name panics: it is a programming error
// that would corrupt the exposition.
func (r *Registry) lookup(name, labels, help string, kind metricKind, mk func(*series)) *series {
	key := name + labels
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byKey[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different type", key))
		}
		return s
	}
	s := &series{name: name, labels: labels, kind: kind, help: help}
	mk(s)
	r.byKey[key] = s
	r.insertLocked(s)
	return s
}

// insertLocked adds s to the exposition order (by name, then label set)
// where it belongs, so a registration costs a search and a copy, not a
// sort of every series.
func (r *Registry) insertLocked(s *series) {
	i := sort.Search(len(r.sorted), func(i int) bool {
		o := r.sorted[i]
		return o.name > s.name || o.name == s.name && o.labels >= s.labels
	})
	r.sorted = slices.Insert(r.sorted, i, s)
}

// Counter returns (registering on first use) the counter name{labels}.
// Render labels with Labels; "" means no labels. A nil registry returns
// the nil (disabled) counter.
func (r *Registry) Counter(name, labels, help string) *Counter {
	if r == nil {
		return nil
	}
	s := r.lookup(name, labels, help, kindCounter, func(s *series) { s.counter = &Counter{} })
	return s.counter
}

// Gauge returns (registering on first use) the gauge name{labels}.
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	s := r.lookup(name, labels, help, kindGauge, func(s *series) { s.gauge = &Gauge{} })
	return s.gauge
}

// FuncGauge registers (or re-points) a callback-backed gauge name{labels}:
// the callback is evaluated at exposition time (WriteTo), so the series
// always reports live state — process-wide counters, pool occupancy —
// without anyone having to call Set on every change. The callback must be
// safe to call from any goroutine.
func (r *Registry) FuncGauge(name, labels, help string, fn func() float64) {
	key := name + labels
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byKey[key]; ok {
		if s.kind != kindGauge {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different type", key))
		}
		s.fn = fn
		return
	}
	s := &series{name: name, labels: labels, kind: kindGauge, help: help, gauge: &Gauge{}, fn: fn}
	r.byKey[key] = s
	r.insertLocked(s)
}

// Histogram returns (registering on first use) the histogram name{labels}
// with the given upper bounds (nil selects DefBuckets). Bounds are fixed at
// first registration.
func (r *Registry) Histogram(name, labels, help string, bounds []float64) *Histogram {
	s := r.lookup(name, labels, help, kindHistogram, func(s *series) {
		if bounds == nil {
			bounds = DefBuckets
		}
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		s.hist = &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
	})
	return s.hist
}

// fmtFloat renders a sample value the way Prometheus expects (no exponent
// for integral values).
func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WriteTo renders every registered series in the Prometheus text
// exposition format, sorted by name then label set, emitting one
// # HELP / # TYPE header per metric name.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	snapshot := append([]*series(nil), r.sorted...)
	fns := make([]func() float64, len(snapshot))
	for i, s := range snapshot {
		fns[i] = s.fn
	}
	r.mu.Unlock()

	var n int64
	emit := func(format string, args ...any) error {
		m, err := fmt.Fprintf(w, format, args...)
		n += int64(m)
		return err
	}
	lastName := ""
	for i, s := range snapshot {
		if s.name != lastName {
			lastName = s.name
			if s.help != "" {
				if err := emit("# HELP %s %s\n", s.name, s.help); err != nil {
					return n, err
				}
			}
			typ := [...]string{"counter", "gauge", "histogram"}[s.kind]
			if err := emit("# TYPE %s %s\n", s.name, typ); err != nil {
				return n, err
			}
		}
		switch s.kind {
		case kindCounter:
			if err := emit("%s%s %d\n", s.name, s.labels, s.counter.Value()); err != nil {
				return n, err
			}
		case kindGauge:
			v := s.gauge.Value()
			if fns[i] != nil {
				v = fns[i]()
			}
			if err := emit("%s%s %s\n", s.name, s.labels, fmtFloat(v)); err != nil {
				return n, err
			}
		case kindHistogram:
			h := s.hist
			cum := int64(0)
			for i, bound := range h.bounds {
				cum += h.buckets[i].Load()
				if err := emit("%s_bucket%s %d\n", s.name, mergeLabels(s.labels, "le", fmtFloat(bound)), cum); err != nil {
					return n, err
				}
			}
			cum += h.buckets[len(h.bounds)].Load()
			if err := emit("%s_bucket%s %d\n", s.name, mergeLabels(s.labels, "le", "+Inf"), cum); err != nil {
				return n, err
			}
			if err := emit("%s_sum%s %s\n", s.name, s.labels, fmtFloat(h.sum())); err != nil {
				return n, err
			}
			if err := emit("%s_count%s %d\n", s.name, s.labels, h.Count()); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// mergeLabels appends one extra label to an already-rendered label set.
func mergeLabels(labels, k, v string) string {
	extra := fmt.Sprintf("%s=%q", k, v)
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// Handler serves the registry in the Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}
