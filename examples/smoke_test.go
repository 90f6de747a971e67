// Smoke coverage for the example programs: every directory under
// examples/ must build and run to completion with a zero exit status.
// The examples double as end-to-end tests of the public API surface —
// a signature change that breaks one of them breaks this test, not a
// user's first copy-paste.
package examples

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestExamplesBuildAndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("example programs take seconds each; skipped with -short")
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		ran++
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, "go", "run", "./examples/"+name)
			cmd.Dir = root
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("go run ./examples/%s: %v\n%s", name, err, out)
			}
			if len(out) == 0 {
				t.Fatalf("examples/%s produced no output", name)
			}
		})
	}
	if ran < 6 {
		t.Fatalf("found only %d example directories, expected at least 6", ran)
	}
}

// TestMultiuserDriftDriver pins the multi-tenant drift driver's contract:
// the drift-rebalanced runs must actually migrate, and every run must
// report bit-identity with the serial factorization (the driver exits
// non-zero otherwise).
func TestMultiuserDriftDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real factorizations; skipped with -short")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "run", "./examples/multiuser")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./examples/multiuser: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "migrations 1") {
		t.Fatalf("driver never migrated:\n%s", text)
	}
	if strings.Contains(text, "bit-identical false") {
		t.Fatalf("driver reported a divergent run:\n%s", text)
	}
	if !strings.Contains(text, "two concurrent tenants") {
		t.Fatalf("driver skipped the concurrent-tenant section:\n%s", text)
	}
}
