package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hetgrid/internal/obs"
)

func TestWriteChromeTrace(t *testing.T) {
	c, _ := NewCluster(2, Config{Latency: 1})
	c.EnableTrace()
	c.SetLabel("step 0")
	c.Compute(0, 0, 3)
	c.Send(0, 1, 64, 0)
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, c.Spans()); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(events) != 2 {
		t.Fatalf("%d events, want 2", len(events))
	}
	comp := events[0]
	if comp["ph"] != "X" || comp["cat"] != "compute" {
		t.Fatalf("compute event %v", comp)
	}
	if comp["dur"].(float64) != 3e6 {
		t.Fatalf("compute dur %v", comp["dur"])
	}
	if !strings.Contains(comp["name"].(string), "step 0") {
		t.Fatalf("label missing: %v", comp["name"])
	}
	send := events[1]
	if send["cat"] != "send" || !strings.Contains(send["name"].(string), "64B") {
		t.Fatalf("send event %v", send)
	}
	if int(send["tid"].(float64)) != 0 {
		t.Fatalf("send tid %v", send["tid"])
	}
}
