package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestOutIsGolden pins the committed out/ byte for byte: a default run
// writes exactly those files with exactly those contents, so `go run
// ./cmd/paperfigs` leaves the tree clean and any change to a solver, a
// distribution or the simulator that moves a paper number shows up here.
// After an intended change, regenerate with `go run ./cmd/paperfigs`.
func TestOutIsGolden(t *testing.T) {
	const golden = "../../out"
	dir := t.TempDir()
	if err := run(dir, defaults); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadDir(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("a default run wrote %d files, out/ holds %d", len(got), len(want))
	}
	for _, e := range want {
		w, err := os.ReadFile(filepath.Join(golden, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		g, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Errorf("out/%s: not regenerated: %v", e.Name(), err)
		} else if !bytes.Equal(g, w) {
			t.Errorf("out/%s: a default run writes different bytes", e.Name())
		}
	}
}
