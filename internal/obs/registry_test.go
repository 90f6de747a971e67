package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("widgets_total", "", "widgets made")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("pressure", "", "current pressure")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
	// Re-lookup returns the same instrument.
	if r.Counter("widgets_total", "", "") != c {
		t.Fatal("re-registering a counter returned a new instrument")
	}
	// The disabled instrument: a nil registry hands out the nil counter,
	// which counts nothing and allocates nothing.
	off := (*Registry)(nil).Counter("widgets_total", "", "")
	if off != nil {
		t.Fatal("nil registry returned a live counter")
	}
	if allocs := testing.AllocsPerRun(100, func() { off.Inc(); off.Add(3) }); allocs != 0 {
		t.Fatalf("nil counter Inc/Add allocates %.1f times per run, want 0", allocs)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.sum(), 56.05; got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Cumulative buckets: ≤0.1 → 1, ≤1 → 3, ≤10 → 4, +Inf → 5.
	for _, line := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestWriteToPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("msgs_total", Labels("dir", "send"), "messages").Add(3)
	r.Counter("msgs_total", Labels("dir", "recv"), "messages").Add(2)
	r.Gauge("imbalance_ratio", "", "max/mean busy").Set(1.25)
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP imbalance_ratio max/mean busy
# TYPE imbalance_ratio gauge
imbalance_ratio 1.25
# HELP msgs_total messages
# TYPE msgs_total counter
msgs_total{dir="recv"} 2
msgs_total{dir="send"} 3
`
	if got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestLabelsSortedAndDeterministic(t *testing.T) {
	a := Labels("rank", "3", "dir", "send")
	b := Labels("dir", "send", "rank", "3")
	if a != b {
		t.Fatalf("label order not canonical: %s vs %s", a, b)
	}
	if a != `{dir="send",rank="3"}` {
		t.Fatalf("unexpected rendering %s", a)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n", "", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("lost increments: %d", c.Value())
	}
}

func TestHotPathDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n", "", "")
	g := r.Gauge("g", "", "")
	h := r.Histogram("h", "", "", nil)
	if avg := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(1)
		h.Observe(0.01)
	}); avg != 0 {
		t.Fatalf("instrument hot path allocates %.1f times per op", avg)
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x", "", "")
}
