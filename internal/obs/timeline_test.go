package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// oneOfEach is one rank-1 step enclosing a span of every other kind, and a
// rank-0 compute span, listed out of start order as a store would.
var oneOfEach = []Span{
	{ID: 2, Parent: 1, Rank: 1, Kind: SpanCompute, Name: "lu update k=0", Peer: -1, Start: 2, End: 4},
	{ID: 3, Parent: 1, Rank: 1, Kind: SpanRecvWait, Name: "L/0", Peer: 0, Start: 1, End: 2},
	{ID: 4, Rank: 0, Kind: SpanSend, Name: "L/0", Peer: 1, Bytes: 64, Start: 0.5, End: 2},
	{ID: 5, Parent: 1, Rank: 1, Kind: SpanPhase, Name: "bcast L/0", Peer: -1, Start: 1, End: 2},
	{ID: 1, Rank: 1, Kind: SpanStep, Name: "step 0", Peer: -1, Start: 0, End: 4},
	{ID: 6, Rank: 0, Kind: SpanCompute, Peer: -1, Start: 0, End: 1},
}

func TestWriteChromeTraceEveryKind(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spans []Span
		want  []string // "cat|name|tid" in output order
	}{
		{"empty", nil, []string{}},
		{"one of each", oneOfEach, []string{
			"step|step 0|1", // same start as the compute below: the longer span first
			"compute|compute|0",
			"send|send→1 (64B) L/0|0",
			"recv-wait|recv←0 L/0|1", // ties keep input order
			"phase|bcast L/0|1",
			"compute|lu update k=0|1",
		}},
	} {
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, tc.spans); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var events []struct {
			Name, Cat, Ph string
			TS, Dur       float64
			TID           int
		}
		if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
			t.Fatalf("%s: invalid JSON: %v\n%s", tc.name, err, buf.String())
		}
		got := []string{}
		for _, ev := range events {
			if ev.Ph != "X" {
				t.Fatalf("%s: event %+v is not a complete event", tc.name, ev)
			}
			got = append(got, fmt.Sprintf("%s|%s|%d", ev.Cat, ev.Name, ev.TID))
		}
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Fatalf("%s: events\n%s\nwant\n%s", tc.name, strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
		}
		if tc.spans == nil && strings.TrimSpace(buf.String()) != "[]" {
			t.Fatalf("empty trace output %q", buf.String())
		}
	}
	// Seconds map to microseconds.
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, oneOfEach[:1]); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ts":2000000,"dur":2000000`) {
		t.Fatalf("time scale: %s", buf.String())
	}
	if oneOfEach[0].ID != 2 {
		t.Fatal("WriteChromeTrace reordered its input")
	}
}

func TestGanttDrawsComputeOnly(t *testing.T) {
	if g := Gantt(nil, 2, 10); g != "" {
		t.Fatalf("empty timeline renders %q, want nothing", g)
	}
	// Rank 1 computes over the second half of the step's 4 s; its step,
	// phase and wait — and rank 0's send — draw nothing.
	want := "node  0 |##......\nnode  1 |....####\n"
	if g := Gantt(oneOfEach, 2, 8); g != want {
		t.Fatalf("gantt\n%swant\n%s", g, want)
	}
}

func TestBusyTimes(t *testing.T) {
	if busy := busyTimes(oneOfEach, 3); busy[0] != 1 || busy[1] != 2 || busy[2] != 0 {
		t.Fatalf("busy = %v, want [1 2 0]: compute spans only, ranks without spans idle", busy)
	}
}
