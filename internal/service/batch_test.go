package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func postBatch(t *testing.T, ts *httptest.Server, body string) (*http.Response, BatchResponse, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/plans", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var br BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(blob, &br); err != nil {
			t.Fatalf("bad batch envelope: %v\n%s", err, blob)
		}
	}
	return resp, br, blob
}

// TestBatchRoundTripAndDedup: a batch with a repeated item costs one solve;
// the duplicate is marked dedup and carries byte-identical plan JSON.
func TestBatchRoundTripAndDedup(t *testing.T) {
	s, ts := newTestServer(t)

	body := `[{"times":[1,2,3,5],"p":2,"q":2},` +
		`{"times":[1,2,3,4,5,6],"p":2,"q":3},` +
		`{"times":[1.0001,2.0002,2.9999,5.0001],"p":2,"q":2}]`
	resp, br, _ := postBatch(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(br.Results) != 3 {
		t.Fatalf("%d results, want 3", len(br.Results))
	}
	if br.Results[0].Cache != "miss" || br.Results[1].Cache != "miss" {
		t.Fatalf("first occurrences: %q, %q, want miss", br.Results[0].Cache, br.Results[1].Cache)
	}
	// Item 2 quantizes to item 0's key: intra-batch dedup.
	if br.Results[2].Cache != "dedup" {
		t.Fatalf("duplicate cache = %q, want dedup", br.Results[2].Cache)
	}
	if !bytes.Equal(br.Results[0].Plan, br.Results[2].Plan) {
		t.Fatalf("dedup plan differs:\n%s\n%s", br.Results[0].Plan, br.Results[2].Plan)
	}
	if got := resp.Header.Get("X-Batch-Dedup"); got != "1" {
		t.Fatalf("X-Batch-Dedup = %q, want 1", got)
	}
	if got := resp.Header.Get("X-Batch-Size"); got != "3" {
		t.Fatalf("X-Batch-Size = %q, want 3", got)
	}
	// One solve for the duplicated pair: the cache saw 2 unique keys.
	if st := s.Cache().Stats(); st.Misses != 2 {
		t.Fatalf("cache misses = %d, want 2 (dedup must not touch the cache)", st.Misses)
	}

	// The same batch again: everything a hit, still one entry per key.
	_, br2, _ := postBatch(t, ts, body)
	if br2.Results[0].Cache != "hit" || br2.Results[1].Cache != "hit" {
		t.Fatalf("repeat batch: %q, %q, want hit", br2.Results[0].Cache, br2.Results[1].Cache)
	}
}

// TestBatchParityWithSingle is the service-level golden parity check: for
// the same quantized key, the plan bytes inside a batch envelope must be
// byte-identical to the single-request response body.
func TestBatchParityWithSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var bodies []string
	for i := 0; i < 8; i++ {
		times := make([]float64, 6)
		for j := range times {
			times[j] = 0.25 + 3*rng.Float64()
		}
		strategy := "heuristic"
		if i%3 == 0 {
			strategy = "exact"
		}
		b, _ := json.Marshal(times)
		bodies = append(bodies, fmt.Sprintf(`{"times":%s,"p":2,"q":3,"strategy":%q}`, b, strategy))
	}

	// Single-endpoint answers from one fresh server...
	_, single := newTestServer(t)
	want := make([][]byte, len(bodies))
	for i, b := range bodies {
		resp, blob := postPlan(t, single, b)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("single %d: status %d: %s", i, resp.StatusCode, blob)
		}
		want[i] = bytes.TrimSuffix(blob, []byte("\n"))
	}

	// ...must match the batch answers from a second fresh server.
	_, ts := newTestServer(t)
	resp, br, blob := postBatch(t, ts, "["+strings.Join(bodies, ",")+"]")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, blob)
	}
	for i := range bodies {
		if br.Results[i].Status != http.StatusOK {
			t.Fatalf("item %d: status %d (%s)", i, br.Results[i].Status, br.Results[i].Error)
		}
		if !bytes.Equal(br.Results[i].Plan, want[i]) {
			t.Fatalf("item %d: batch plan differs from single response\nbatch:  %s\nsingle: %s",
				i, br.Results[i].Plan, want[i])
		}
	}
}

// TestBatchErrorPaths covers the envelope and per-item error space: empty
// batch, over-limit batch, mixed valid/invalid items (batch stays 200 with
// per-item 422), trailing garbage, non-array bodies, oversized bodies.
func TestBatchErrorPaths(t *testing.T) {
	_, ts := newTestServer(t)

	t.Run("empty batch", func(t *testing.T) {
		resp, _, blob := postBatch(t, ts, `[]`)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(blob), "empty batch") {
			t.Fatalf("status %d body %s", resp.StatusCode, blob)
		}
	})
	t.Run("over-limit batch", func(t *testing.T) {
		items := make([]string, defaultMaxBatchItems+1)
		for i := range items {
			items[i] = `{"times":[1,2],"p":1,"q":2}`
		}
		resp, _, blob := postBatch(t, ts, "["+strings.Join(items, ",")+"]")
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(blob), "limit") {
			t.Fatalf("status %d body %s", resp.StatusCode, blob)
		}
	})
	t.Run("not an array", func(t *testing.T) {
		resp, _, _ := postBatch(t, ts, `{"times":[1,2],"p":1,"q":2}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		resp, _, blob := postBatch(t, ts, `[{"times":[1,2],"p":1,"q":2}] extra`)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(blob), "trailing") {
			t.Fatalf("status %d body %s", resp.StatusCode, blob)
		}
	})
	t.Run("oversized body", func(t *testing.T) {
		// 413 depends on the body's length alone: the padding may sit
		// inside the array, after a complete one, or after a syntax error
		// the decoder stops at long before the limit.
		pad := strings.Repeat(" ", maxBatchBytes)
		for _, body := range []string{
			"[" + pad + `{"times":[1,2],"p":1,"q":2}]`,
			`[{"times":[1,2],"p":1,"q":2}]` + pad,
			`{"not":"an array"}` + pad,
			`[}` + pad,
		} {
			resp, _, blob := postBatch(t, ts, body)
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("body %.20q…: status %d, want 413: %s", body, resp.StatusCode, blob)
			}
		}
	})
	t.Run("mixed valid and invalid items", func(t *testing.T) {
		body := `[{"times":[1,2,3,5],"p":2,"q":2},` +
			`{"times":[1,-2],"p":1,"q":2},` + // invalid: negative time
			`{"times":[1,2],"p":1,"q":2,"stratgy":"exact"},` + // invalid: typo field
			`{"times":[1,2,3,5,7,11,13],"min_aspect":0.9},` + // valid but unsolvable
			`{"times":[1,2],"p":1,"q":2}]`
		resp, br, _ := postBatch(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mixed batch status %d, want 200", resp.StatusCode)
		}
		wantStatus := []int{200, 422, 422, 422, 200}
		for i, want := range wantStatus {
			if br.Results[i].Status != want {
				t.Errorf("item %d: status %d, want %d (error %q)", i, br.Results[i].Status, want, br.Results[i].Error)
			}
		}
		for _, i := range []int{1, 2, 3} {
			if br.Results[i].Error == "" || br.Results[i].Plan != nil {
				t.Errorf("failed item %d: error %q plan %v", i, br.Results[i].Error, br.Results[i].Plan != nil)
			}
		}
	})
	t.Run("method", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/plans")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET status %d, want 405", resp.StatusCode)
		}
	})
}

// TestSingleOversizedBodyIs413: the single endpoint maps over-limit bodies
// to 413, not the generic 400 — and not 200 when the excess is whitespace
// after a valid object, where the decoder has already succeeded.
func TestSingleOversizedBodyIs413(t *testing.T) {
	_, ts := newTestServer(t)
	pad := strings.Repeat(" ", maxRequestBytes)
	const req = `{"times":[1,2],"p":1,"q":2}`
	for _, body := range []string{pad + req, req + pad, req + pad + "x", "{{{{" + pad} {
		resp, blob := postPlan(t, ts, body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%.12q…%.12q: status %d, want 413: %s", body, body[len(body)-12:], resp.StatusCode, blob)
		}
	}
}

// TestDrainingReturns503: while draining, both plan endpoints answer 503
// with Retry-After so load balancers retarget before the listener closes.
func TestDrainingReturns503(t *testing.T) {
	s, ts := newTestServer(t)
	s.SetDraining(true)
	for _, path := range []string{"/v1/plan", "/v1/plans"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(`[{"times":[1],"p":1,"q":1}]`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: 503 without Retry-After", path)
		}
	}
	s.SetDraining(false)
	resp, _ := postPlan(t, ts, `{"times":[1,2,3,5],"p":2,"q":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after drain off: status %d", resp.StatusCode)
	}
}

// TestBatchMetrics: the batch path publishes its size histogram, its
// per-item outcome counters, and one observation of each stage per batch.
func TestBatchMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	postBatch(t, ts, `[{"times":[1,2,3,5],"p":2,"q":2},{"times":[1,2,3,5],"p":2,"q":2},{"times":[1,-2],"p":1,"q":2}]`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	page := string(blob)
	for _, want := range []string{
		`hetgrid_service_batch_requests_total{code="200"} 1`,
		`hetgrid_service_batch_items_total{result="miss"} 1`,
		`hetgrid_service_batch_items_total{result="dedup"} 1`,
		`hetgrid_service_batch_items_total{result="invalid"} 1`,
		"hetgrid_service_batch_size_count 1",
		"hetgrid_service_batch_seconds_count 1",
		`hetgrid_service_batch_stage_seconds_count{stage="decode"} 1`,
		`hetgrid_service_batch_stage_seconds_count{stage="key"} 1`,
		`hetgrid_service_batch_stage_seconds_count{stage="solve"} 1`,
		`hetgrid_service_batch_stage_seconds_count{stage="encode"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
