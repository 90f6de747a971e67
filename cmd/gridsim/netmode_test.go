package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestDecodePlanRefusesHostilePayloads plays the coordinator's handshake
// payload at a joiner of a 4-rank world: a well-formed plan decodes, and
// every payload that could not run on the world is refused with an error
// naming the field.
func TestDecodePlanRefusesHostilePayloads(t *testing.T) {
	const world = 4
	valid := netPlan{Times: []float64{1, 2, 3, 5}, P: 2, Q: 2, NB: 8, R: 4,
		Kernel: "cholesky", Dist: "panel", Bcast: "tree", Numerics: "strict", Seed: 1}
	blob, err := json.Marshal(valid)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodePlan(blob, world)
	if err != nil {
		t.Fatalf("valid plan refused: %v", err)
	}
	if got.P != valid.P || got.Q != valid.Q || got.NB != valid.NB || got.R != valid.R || got.Bcast != valid.Bcast || len(got.Times) != world {
		t.Fatalf("decoded %+v, want %+v", got, valid)
	}

	// with returns the valid plan's JSON with one field replaced (or added).
	with := func(field, value string) string {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(blob, &m); err != nil {
			t.Fatal(err)
		}
		m[field] = json.RawMessage(value)
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, tc := range []struct {
		name, payload, field string
	}{
		{"unknown field", with("ranks", "[0,1]"), `"ranks"`},
		{"p zero", with("p", "0"), "p = 0"},
		{"q negative", with("q", "-2"), "q = -2"},
		{"p beyond the world", with("p", "4611686018427387904"), "p = 4611686018427387904"},
		{"grid not the world", with("q", "1"), "p×q = 2×1"},
		{"p not a number", with("p", `"2"`), "netPlan.p"},
		{"times short", with("times", "[1,2,3]"), "times has 3"},
		{"times zero", with("times", "[1,2,0,5]"), "times[2] = 0"},
		{"times negative", with("times", "[1,-2,3,5]"), "times[1] = -2"},
		{"times overflow", with("times", "[1,2,3,1e999]"), "netPlan.times"},
		{"nb zero", with("nb", "0"), "nb = 0"},
		{"r zero", with("r", "0"), "r = 0"},
		{"trailing data", string(blob) + "{}", "trailing data"},
		{"not an object", "[]", "malformed plan payload"},
	} {
		_, err := decodePlan([]byte(tc.payload), world)
		if err == nil {
			t.Errorf("%s: payload %s accepted", tc.name, tc.payload)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.field)
		}
	}
}
