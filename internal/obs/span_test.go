package obs

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestSpanBeginEndHierarchy(t *testing.T) {
	s := NewSpanStore()
	root := s.Begin(0, SpanStep, "step 0", 0)
	child := s.Begin(0, SpanCompute, "update", root)
	s.End(child)
	s.End(root)
	spans := s.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	// Completion order: the child ends first.
	if spans[0].Name != "update" || spans[1].Name != "step 0" {
		t.Fatalf("unexpected completion order: %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatalf("child parent %d does not link to step span %d", spans[0].Parent, spans[1].ID)
	}
	for _, sp := range spans {
		if sp.End < sp.Start {
			t.Fatalf("span %q ends before it starts", sp.Name)
		}
	}
}

func TestSpanEndIsIdempotent(t *testing.T) {
	s := NewSpanStore()
	id := s.Begin(0, SpanCompute, "x", 0)
	s.End(id)
	s.End(id) // second end ignored
	s.End(0)  // zero ID ignored
	if s.Len() != 1 {
		t.Fatalf("%d spans after double end", s.Len())
	}
}

func TestCloseAllEndsOpenSpans(t *testing.T) {
	s := NewSpanStore()
	s.Begin(1, SpanStep, "step 3", 0)
	s.Begin(2, SpanPhase, "bcast", 0)
	s.CloseAll()
	if s.Len() != 2 {
		t.Fatalf("CloseAll left %d completed spans, want 2", s.Len())
	}
}

func TestBusyTimesAndImbalance(t *testing.T) {
	s := NewSpanStore()
	// Hand-built spans: rank 0 busy 3s, rank 1 busy 1s; sends don't count.
	s.Record(Span{Rank: 0, Kind: SpanCompute, Name: "a", Peer: -1, Start: 0, End: 2})
	s.Record(Span{Rank: 0, Kind: SpanCompute, Name: "b", Peer: -1, Start: 2, End: 3})
	s.Record(Span{Rank: 1, Kind: SpanCompute, Name: "c", Peer: -1, Start: 0, End: 1})
	s.Record(Span{Rank: 0, Kind: SpanSend, Name: "t", Peer: 1, Bytes: 64, Start: 0, End: 5})
	busy := s.BusyTimes(2)
	if busy[0] != 3 || busy[1] != 1 {
		t.Fatalf("busy = %v, want [3 1]", busy)
	}
	// max/mean = 3 / 2.
	if got := Imbalance(busy); math.Abs(got-1.5) > 1e-15 {
		t.Fatalf("imbalance = %g, want 1.5", got)
	}
	if Imbalance(nil) != 0 || Imbalance([]float64{0, 0}) != 0 {
		t.Fatal("degenerate imbalance should be 0")
	}
}

func TestServeMuxMetricsAndPprof(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "", "hits").Add(7)
	srv := httptest.NewServer(r.ServeMux())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if !strings.Contains(sb.String(), "hits_total 7") {
		t.Fatalf("/metrics missing counter:\n%s", sb.String())
	}

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}
}

func TestServeBindsAndShutsDown(t *testing.T) {
	r := NewRegistry()
	addr, stop, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	stop()
}
