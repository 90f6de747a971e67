package hetgrid

import (
	"math/rand"
	"strings"
	"testing"

	"hetgrid/internal/matrix"
)

// The public numerics surface: ParseNumerics round-trips, Strict stays the
// default everywhere, WithNumerics(Fast) flows through Multiply, Factor
// and the Distributed* executions, and the metrics registry picks up the
// mode and pool series.

func TestParseNumerics(t *testing.T) {
	cases := []struct {
		in   string
		want Numerics
	}{
		{"strict", Strict}, {"fast", Fast}, {"STRICT", Strict}, {"Fast", Fast},
	}
	for _, c := range cases {
		got, err := ParseNumerics(c.in)
		if err != nil {
			t.Fatalf("ParseNumerics(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseNumerics(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, v := range []Numerics{Strict, Fast} {
		back, err := ParseNumerics(v.String())
		if err != nil || back != v {
			t.Fatalf("round trip of %v failed: got %v, err %v", v, back, err)
		}
	}
	if _, err := ParseNumerics("loose"); err == nil || !strings.Contains(err.Error(), "numerics") {
		t.Fatalf("rejection should name numerics, got %v", err)
	}
}

func TestWithNumericsStrictIsDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(611))
	d, err := Uniform(2, 2, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	n := 24
	a := matrix.Random(n, n, rng)
	b := matrix.Random(n, n, rng)
	plain, err := Multiply(d, a, b)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Multiply(d, a, b, WithNumerics(Strict))
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Equal(strict) {
		t.Fatal("Multiply with WithNumerics(Strict) differs from the default")
	}
	wc := matrix.RandomWellConditioned(n, rng)
	f1, err := Factor(LU, d, wc)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Factor(LU, d, wc, WithNumerics(Strict))
	if err != nil {
		t.Fatal(err)
	}
	if !f1.Packed().Equal(f2.Packed()) {
		t.Fatal("Factor with WithNumerics(Strict) differs from the default")
	}
}

func TestNumericsMetricsPublished(t *testing.T) {
	rng := rand.New(rand.NewSource(614))
	d, err := Uniform(2, 2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	const r = 4
	n := 16
	a := matrix.Random(n, n, rng)
	b := matrix.Random(n, n, rng)
	reg := NewMetrics()
	if _, _, err := DistributedMultiply(d, a, b, r, WithNumerics(Fast), WithParallelism(2), WithMetrics(reg)); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "hetgrid_numerics_mode 1") {
		t.Fatalf("numerics mode gauge missing or wrong:\n%s", out)
	}
	for _, name := range []string{"hetgrid_pool_workers", "hetgrid_pool_tasks_submitted", "hetgrid_pool_tasks_inline", "hetgrid_numerics_fast_dispatch"} {
		if !strings.Contains(out, name) {
			t.Fatalf("pool series %s missing from exposition", name)
		}
	}
}
