package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// Every name the benchmark can print is well-formed, used once, and stated
// in BENCHMARK.json with the same unit, direction and bound.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("metric %q (unit %q) is not well-formed", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %q: better = %q", d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("metric %q declared twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	for _, w := range workloadDefs {
		if !nameRE.MatchString(w.Name) || seen[w.Name] || newWorkload(w.Name) == nil {
			t.Errorf("workload %q is malformed, duplicated or not constructible", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadDefs) || len(b.EndToEnd) != len(endToEndDefs) || len(b.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the catalog has %d, %d and %d",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer), len(workloadDefs), len(endToEndDefs), len(perLayerDefs))
	}
	for i, w := range workloadDefs {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the catalog %q (or their reasons differ)", i, b.Workloads[i].Name, w.Name)
		}
	}
	setup := false
	for i, d := range endToEndDefs {
		g := b.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the catalog %+v", i, g, d)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, d := range perLayerDefs {
		if g := b.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the catalog %+v", i, g, d)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
}
