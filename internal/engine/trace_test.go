package engine

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"hetgrid/internal/matrix"
	"hetgrid/internal/obs"
)

func TestRecordedTraceWritesChromeFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(331))
	const nb, r = 4, 2
	a := matrix.RandomWellConditioned(nb*r, rng)
	d := engineDistributions(t, nb)[0]
	w, err := RunOpts(4, Options{Record: true}, func(c *Comm) error {
		store, err := Scatter(c, d, pick(c.Rank() == 0, a), r)
		if err != nil {
			return err
		}
		return LU(c, d, store)
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := w.Spans()
	if len(spans) == 0 {
		t.Fatal("recording produced no spans")
	}
	sends, computes := 0, 0
	kinds := map[string]int{}
	for i, sp := range spans {
		kinds[sp.Kind.String()]++
		if sp.End < sp.Start {
			t.Fatalf("span %d ends before it starts", i)
		}
		switch sp.Kind {
		case obs.SpanSend:
			sends++
			if sp.Bytes <= 0 {
				t.Fatalf("send span %d has no bytes", i)
			}
		case obs.SpanCompute:
			computes++
			if sp.Name == "" {
				t.Fatalf("compute span %d unlabeled", i)
			}
		}
	}
	if sends != w.Messages() {
		t.Fatalf("%d send events for %d messages", sends, w.Messages())
	}
	if computes == 0 {
		t.Fatal("no compute spans recorded")
	}
	// The spans must serialize through the one chrome-trace writer — the
	// simulator's too — into valid JSON with the fields chrome://tracing
	// requires, one event per span of every kind, sorted by start time.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(events) != len(spans) {
		t.Fatalf("%d JSON events for %d spans", len(events), len(spans))
	}
	cats := map[string]int{}
	for i, ev := range events {
		for _, key := range []string{"name", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("chrome event missing %q: %v", key, ev)
			}
		}
		if i > 0 && ev["ts"].(float64) < events[i-1]["ts"].(float64) {
			t.Fatal("trace not sorted by start time")
		}
		cats[ev["cat"].(string)]++
	}
	for _, kind := range []obs.SpanKind{obs.SpanCompute, obs.SpanSend, obs.SpanStep, obs.SpanPhase, obs.SpanRecvWait} {
		if c := kind.String(); cats[c] == 0 || cats[c] != kinds[c] {
			t.Fatalf("%d %q events for %d such spans (categories %v)", cats[c], c, kinds[c], cats)
		}
	}
}

func TestTraceNilWithoutRecording(t *testing.T) {
	w, err := RunOpts(2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, "x", matrix.New(1, 1))
		} else {
			c.Recv(0, "x")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Spans() != nil {
		t.Fatal("spans exist without recording")
	}
}
