package hetgrid

import (
	"reflect"
	"strings"
	"testing"
)

// The enum parsers promise that every valid value v parses back from its
// name (v.String(), or string(v) for a PlanStrategy).
// The fuzz targets push arbitrary strings through each parser and check
// the contract from the other side: anything that parses must render to a
// canonical name that parses back to the same value, and rejections must
// name the offending input.

func FuzzParseBroadcast(f *testing.F) {
	for _, seed := range []string{"auto", "flat", "star", "ring", "pipeline", "segring", "tree", "TREE", " ring", "broadcast(7)", ""} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseBroadcast(s)
		if err != nil {
			if !strings.Contains(err.Error(), "broadcast") {
				t.Fatalf("rejection of %q does not say what was being parsed: %v", s, err)
			}
			return
		}
		name := v.String()
		back, err := ParseBroadcast(name)
		if err != nil {
			t.Fatalf("%q parsed to %v but its name %q does not parse: %v", s, v, name, err)
		}
		if back != v {
			t.Fatalf("%q parsed to %v, round-trips to %v", s, v, back)
		}
	})
}

func FuzzParseKernel(f *testing.F) {
	for _, seed := range []string{"matmul", "mm", "lu", "qr", "cholesky", "chol", "LU", "lu ", "kernel(9)", ""} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseKernel(s)
		if err != nil {
			if !strings.Contains(err.Error(), "kernel") {
				t.Fatalf("rejection of %q does not say what was being parsed: %v", s, err)
			}
			return
		}
		name := v.String()
		back, err := ParseKernel(name)
		if err != nil {
			t.Fatalf("%q parsed to %v but its name %q does not parse: %v", s, v, name, err)
		}
		if back != v {
			t.Fatalf("%q parsed to %v, round-trips to %v", s, v, back)
		}
	})
}

func FuzzParseNumerics(f *testing.F) {
	for _, seed := range []string{"strict", "fast", "FAST", "Strict", " fast", "loose", "numerics(2)", ""} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseNumerics(s)
		if err != nil {
			if !strings.Contains(err.Error(), "numerics") {
				t.Fatalf("rejection of %q does not say what was being parsed: %v", s, err)
			}
			return
		}
		name := v.String()
		back, err := ParseNumerics(name)
		if err != nil {
			t.Fatalf("%q parsed to %v but its name %q does not parse: %v", s, v, name, err)
		}
		if back != v {
			t.Fatalf("%q parsed to %v, round-trips to %v", s, v, back)
		}
	})
}

func FuzzParseStrategy(f *testing.F) {
	for _, seed := range []string{"auto", "heuristic", "exact", "EXACT", "greedy", "strategy(3)", ""} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseStrategy(s)
		if err != nil {
			if !strings.Contains(err.Error(), "strategy") {
				t.Fatalf("rejection of %q does not say what was being parsed: %v", s, err)
			}
			return
		}
		name := string(v)
		back, err := ParseStrategy(name)
		if err != nil {
			t.Fatalf("%q parsed to %v but its name %q does not parse: %v", s, v, name, err)
		}
		if back != v {
			t.Fatalf("%q parsed to %v, round-trips to %v", s, v, back)
		}
	})
}

// FuzzParseDriftPolicy checks the drift-policy grammar on arbitrary input:
// the parser must never panic, rejections must say they concern a drift
// policy, and every accepted policy must round-trip through its canonical
// String form bit for bit.
func FuzzParseDriftPolicy(f *testing.F) {
	for _, seed := range []string{
		"", "window=4", "alpha=0.5,threshold=0.25",
		"window=4,alpha=0.5,threshold=0.25,patience=2,hysteresis=1.2,max=2",
		" window = 8 , max = 1 ", "alpha=1", "alpha=1.5", "alpha=-0.1",
		"window=-1", "hysteresis=2e3", "threshold=NaN", "threshold=Inf",
		"bogus=1", "window", "window=", "=4", "window=4,,max=1",
		"WINDOW=4", "max=9999999999999999999",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseDriftPolicy(s)
		if err != nil {
			if !strings.Contains(err.Error(), "drift policy") {
				t.Fatalf("rejection of %q does not say what was being parsed: %v", s, err)
			}
			return
		}
		if p.Window < 0 || p.Patience < 0 || p.MaxMigrations < 0 {
			t.Fatalf("%q parsed to negative knobs: %+v", s, p)
		}
		if p.Alpha < 0 || p.Alpha > 1 || p.Threshold < 0 || p.Hysteresis < 0 {
			t.Fatalf("%q parsed outside the documented ranges: %+v", s, p)
		}
		back, err := ParseDriftPolicy(p.String())
		if err != nil {
			t.Fatalf("%q parsed to %+v but its canonical form %q does not parse: %v", s, p, p.String(), err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("%q: canonical round-trip %+v → %+v", s, p, back)
		}
	})
}
