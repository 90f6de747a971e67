package engine

import (
	"context"
	"math/rand"
	"testing"

	"hetgrid/internal/matrix"
	"hetgrid/internal/obs"
)

// TestSpanHierarchy checks the structure of the span store: every compute
// span hangs off the step span of its rank, phases nest under steps, busy
// time is the sum of compute spans per rank, and every delivered message
// left one recv-wait span at its receiver — under the receiver's step, or
// under none before the first (the scatter) — naming the tag it came on.
func TestSpanHierarchy(t *testing.T) {
	rng := rand.New(rand.NewSource(412))
	const nb, r = 4, 2
	d := engineDistributions(t, nb)[0]
	a := matrix.RandomWellConditioned(nb*r, rng)
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
	byID := make(map[obs.SpanID]obs.Span, len(spans))
	sentTags := map[string]bool{}
	for _, sp := range spans {
		byID[sp.ID] = sp
		if sp.Kind == obs.SpanSend {
			sentTags[sp.Name] = true
		}
	}
	steps, computes, sends, waits := 0, 0, 0, 0
	busy := make([]float64, 4)
	for _, sp := range spans {
		if sp.End < sp.Start {
			t.Fatalf("span %d ends before it starts", sp.ID)
		}
		switch sp.Kind {
		case obs.SpanStep:
			steps++
			if sp.Parent != 0 {
				t.Fatalf("step span %d has a parent", sp.ID)
			}
		case obs.SpanCompute:
			computes++
			parent, ok := byID[sp.Parent]
			if !ok {
				t.Fatalf("compute span %d has dangling parent %d", sp.ID, sp.Parent)
			}
			if parent.Kind != obs.SpanStep {
				t.Fatalf("compute span %d parented to %v, want step", sp.ID, parent.Kind)
			}
			if parent.Rank != sp.Rank {
				t.Fatalf("compute span %d on rank %d has parent on rank %d", sp.ID, sp.Rank, parent.Rank)
			}
			busy[sp.Rank] += sp.End - sp.Start
		case obs.SpanSend:
			sends++
		case obs.SpanRecvWait:
			if parent := byID[sp.Parent]; sp.Parent != 0 && (parent.Kind != obs.SpanStep || parent.Rank != sp.Rank) {
				t.Fatalf("recv-wait span %d on rank %d parented to %+v, want its rank's step", sp.ID, sp.Rank, parent)
			}
			if sp.Peer == sp.Rank {
				continue // a rank taking its own local data
			}
			waits++
			if !sentTags[sp.Name] {
				t.Fatalf("recv-wait span %d names tag %q, which no send span carries", sp.ID, sp.Name)
			}
		}
	}
	received := 0
	for _, rs := range w.RankStats() {
		received += rs.MsgsRecv
	}
	if waits != received || received != w.Messages() {
		t.Fatalf("%d cross-rank recv-wait spans for %d received of %d sent messages", waits, received, w.Messages())
	}
	if steps == 0 || computes == 0 {
		t.Fatalf("run recorded %d step and %d compute spans", steps, computes)
	}
	if sends != w.Messages() {
		t.Fatalf("%d send spans for %d messages", sends, w.Messages())
	}
	got := w.BusyTimes()
	for i := range busy {
		if diff := got[i] - busy[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("rank %d BusyTimes %g, recomputed %g", i, got[i], busy[i])
		}
	}
}

// TestMeterDisabledPathDoesNotAllocate is the overhead budget of the
// refactor: with no span store and no registry attached, a Send/Recv round
// trip through the Meter must not allocate — the observability hooks reduce
// to nil pointer tests around the pre-existing atomic counters.
func TestMeterDisabledPathDoesNotAllocate(t *testing.T) {
	m := newMeter(NewMemTransport(2), 2, nil, nil)
	data := matrix.New(4, 4)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		m.Send(0, 1, "hot", data)
		if got, err := m.Recv(ctx, 0, 1, "hot"); err != nil || got == nil {
			t.Fatal("lost message")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled-observability Send/Recv allocates %.1f times per op, want 0", allocs)
	}
}
