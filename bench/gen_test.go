package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"hetgrid"
	"hetgrid/internal/plan"
)

// drawHot returns the first n batch bodies of one client's stream.
func drawHot(seed int64, client, n int) [][]byte {
	s := newHotStream(hotKeys(seed), seed, client)
	var out [][]byte
	for i := 0; i < n; i++ {
		out = append(out, bytes.Clone(s.next()))
	}
	return out
}

func drawCold(seed int64, client, n int) [][]byte {
	s := newColdStream(seed, client)
	var out [][]byte
	for i := 0; i < n; i++ {
		b, _ := s.next()
		out = append(out, bytes.Clone(b))
	}
	return out
}

func TestSameSeedSameRequestStreams(t *testing.T) {
	for name, draw := range map[string]func(int64, int, int) [][]byte{"plan-hot": drawHot, "plan-cold": drawCold} {
		a, b := draw(7, 0, 40), draw(7, 0, 40)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: body %d differs between two streams of the same seed", name, i)
			}
		}
		if other := draw(8, 0, 40); bytes.Equal(bytes.Join(a, nil), bytes.Join(other, nil)) {
			t.Errorf("%s: another seed produced the same stream", name)
		}
		if other := draw(7, 1, 40); bytes.Equal(bytes.Join(a, nil), bytes.Join(other, nil)) {
			t.Errorf("%s: the second client repeats the first client's stream", name)
		}
	}
}

// The generated bodies must be what the service accepts: a batch of
// hotBatch valid requests, and four valid single requests of the four
// classes, the first two sharing their cycle-times.
func TestGeneratedBodiesAreValidRequests(t *testing.T) {
	var batch []json.RawMessage
	if err := json.Unmarshal(drawHot(3, 0, 1)[0], &batch); err != nil || len(batch) != hotBatch {
		t.Fatalf("hot body: %d items, err %v", len(batch), err)
	}
	decode := func(raw []byte) plan.Request {
		var r plan.Request
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatalf("undecodable request %s: %v", raw, err)
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("invalid request %s: %v", raw, err)
		}
		return r
	}
	decode(batch[0])
	// One cycle holds each class once, in an order of its own.
	cold := make([]plan.Request, coldClasses)
	s := newColdStream(3, 0)
	for i := 0; i < coldClasses; i++ {
		b, class := s.next()
		if len(cold[class].Times) != 0 {
			t.Fatalf("class %d twice in one cycle", class)
		}
		cold[class] = decode(b)
	}
	if cold[coldExact3x3].Strategy != plan.StrategyExact || cold[coldHeur3x3].Strategy != plan.StrategyHeuristic {
		t.Errorf("3×3 pair has strategies %q and %q", cold[coldExact3x3].Strategy, cold[coldHeur3x3].Strategy)
	}
	for i, v := range cold[coldExact3x3].Times {
		if cold[coldHeur3x3].Times[i] != v {
			t.Fatal("the exact and heuristic 3×3 requests of one cycle must share their cycle-times")
		}
	}
	if cold[coldHeur4x4Panel].Panel == nil || cold[coldHeur4x4Panel].Kernel != plan.LU {
		t.Error("the 4×4 request lost its LU panel")
	}
	if cold[coldShape16].P != 0 || !cold[coldShape16].AllowSubset || len(cold[coldShape16].Times) != 16 {
		t.Error("the shape-search request must leave p×q free over 16 cycle-times")
	}
}

func TestSameSeedSameMatrices(t *testing.T) {
	for _, k := range []hetgrid.Kernel{hetgrid.MatMul, hetgrid.LU, hetgrid.QR, hetgrid.Cholesky} {
		a1, b1 := genMatrices(k, 48, 11)
		a2, b2 := genMatrices(k, 48, 11)
		if !a1.Equal(a2) || (b1 != nil && !b1.Equal(b2)) {
			t.Errorf("%v: the same seed generated different matrices", k)
		}
		if (k == hetgrid.MatMul) != (b1 != nil) {
			t.Errorf("%v: second input present = %v", k, b1 != nil)
		}
		if other, _ := genMatrices(k, 48, 12); other.Equal(a1) {
			t.Errorf("%v: another seed generated the same matrix", k)
		}
	}
}
