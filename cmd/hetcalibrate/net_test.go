package main

import (
	"encoding/json"
	"os"
	"testing"

	"hetgrid"
)

// TestNetCalibrateRows: one -net round over the loopback fabric reports the
// four broadcast kinds under their names, and each row's prediction is the
// facade's PredictBroadcast for that kind under the fitted α–β, bit for bit.
func TestNetCalibrateRows(t *testing.T) {
	out := t.TempDir() + "/net.json"
	if err := netCalibrate(1, out); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep netReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	want := []string{"flat", "ring", "pipeline", "tree"}
	if len(rep.Broadcast) != len(want) {
		t.Fatalf("%d broadcast rows, want %d", len(rep.Broadcast), len(want))
	}
	for i, row := range rep.Broadcast {
		if row.Kind != want[i] {
			t.Fatalf("row %d is %q, want %q", i, row.Kind, want[i])
		}
		kind, err := hetgrid.ParseBroadcast(row.Kind)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := hetgrid.PredictBroadcast(kind, netWorld, row.Bytes, rep.Alpha, rep.Beta)
		if err != nil {
			t.Fatal(err)
		}
		if row.Predicted != pred {
			t.Fatalf("%s: reported prediction %v, PredictBroadcast gives %v", row.Kind, row.Predicted, pred)
		}
		if row.Measured <= 0 {
			t.Fatalf("%s: measured %v", row.Kind, row.Measured)
		}
	}
}
