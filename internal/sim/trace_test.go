package sim

import (
	"strings"
	"testing"

	"hetgrid/internal/obs"
)

func TestTraceRecordsOps(t *testing.T) {
	c, _ := NewCluster(2, Config{Latency: 1})
	c.EnableTrace()
	c.SetLabel("phase-1")
	c.Compute(0, 0, 3)
	c.Send(0, 1, 100, 0)
	spans := c.Spans()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	comp := spans[0]
	if comp.Kind != obs.SpanCompute || comp.Rank != 0 || comp.Start != 0 || comp.End != 3 || comp.Peer != -1 {
		t.Fatalf("compute span %+v", comp)
	}
	send := spans[1]
	if send.Kind != obs.SpanSend || send.Rank != 0 || send.Peer != 1 || send.Bytes != 100 {
		t.Fatalf("send span %+v", send)
	}
	if send.Name != "phase-1" {
		t.Fatalf("name %q", send.Name)
	}
	if comp.ID != 1 || send.ID != 2 {
		t.Fatalf("span ids %d, %d, want issue order 1, 2", comp.ID, send.ID)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	c, _ := NewCluster(2, Config{})
	c.Compute(0, 0, 1)
	c.Send(0, 1, 1, 0)
	// Nothing panics and no trace exists; enabling later starts fresh.
	if c.Spans() != nil {
		t.Fatal("spans recorded without tracing")
	}
	c.EnableTrace()
	if len(c.Spans()) != 0 {
		t.Fatal("trace not empty after late enable")
	}
}

func TestGantt(t *testing.T) {
	c, _ := NewCluster(2, Config{})
	c.EnableTrace()
	c.Compute(0, 0, 10)
	c.Compute(1, 5, 5)
	g := obs.Gantt(c.Spans(), 2, 10)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("gantt lines: %q", g)
	}
	if !strings.Contains(lines[0], "##########") {
		t.Fatalf("node 0 should be fully busy: %q", lines[0])
	}
	if !strings.Contains(lines[1], ".....") || !strings.Contains(lines[1], "#####") {
		t.Fatalf("node 1 should be idle then busy: %q", lines[1])
	}
}
