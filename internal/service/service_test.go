package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hetgrid/internal/plan"
	"hetgrid/internal/plancache"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Cache: plancache.New(plancache.Config{TTL: time.Minute})})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postPlan(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, blob
}

// TestPlanEndpointPaperGrid serves the paper's 2×2 grid [1,2,3,5] and
// checks the plan, the cache headers and the quantized provenance key.
func TestPlanEndpointPaperGrid(t *testing.T) {
	_, ts := newTestServer(t)

	resp, blob := postPlan(t, ts, `{"times":[1,2,3,5],"p":2,"q":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, blob)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}
	var p plan.Plan
	if err := json.Unmarshal(blob, &p); err != nil {
		t.Fatalf("bad plan JSON: %v\n%s", err, blob)
	}
	if p.P != 2 || p.Q != 2 || len(p.RowShares) != 2 || len(p.ColShares) != 2 {
		t.Fatalf("plan shape wrong: %+v", p)
	}
	if p.Objective <= 0 {
		t.Fatalf("objective %v, want positive", p.Objective)
	}
	if p.Provenance.Key == "" || !strings.Contains(p.Provenance.Key, "t=1,2,3,5") {
		t.Fatalf("provenance key %q", p.Provenance.Key)
	}

	// The same grid again: cache hit, byte-identical plan.
	resp2, blob2 := postPlan(t, ts, `{"times":[1,2,3,5],"p":2,"q":2}`)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat request X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatalf("cached response differs:\n%s\n%s", blob, blob2)
	}

	// Within one quantum (3 significant digits): same cache entry.
	resp3, _ := postPlan(t, ts, `{"times":[1.0002,2.0001,2.9999,5.0004],"p":2,"q":2}`)
	if got := resp3.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("quantized-equal request X-Cache = %q, want hit", got)
	}
}

// TestPlanEndpointShapeSearch exercises the free-shape mode with a panel,
// as the survivor replanner would over HTTP.
func TestPlanEndpointShapeSearch(t *testing.T) {
	_, ts := newTestServer(t)
	resp, blob := postPlan(t, ts,
		`{"times":[1,2,3,4,5,6],"kernel":"lu","allow_subset":true,"panel":{"max_bp":8,"max_bq":8}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, blob)
	}
	var p plan.Plan
	if err := json.Unmarshal(blob, &p); err != nil {
		t.Fatal(err)
	}
	if p.P*p.Q > 6 || p.P < 1 {
		t.Fatalf("shape %d×%d for 6 processors", p.P, p.Q)
	}
	if p.Panel == nil || p.Panel.Bp < 1 {
		t.Fatalf("panel missing: %+v", p.Panel)
	}
	if p.Kernel != plan.LU {
		t.Fatalf("kernel %q, want lu", p.Kernel)
	}
	if p.Provenance.Mode != "shape" {
		t.Fatalf("mode %q, want shape", p.Provenance.Mode)
	}
}

func TestPlanEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t)

	cases := []struct {
		name string
		body string
		code int
	}{
		{"malformed JSON", `{"times":`, http.StatusBadRequest},
		{"unknown field", `{"times":[1,2],"p":1,"q":2,"stratgy":"exact"}`, http.StatusBadRequest},
		{"trailing garbage", `{"times":[1,2],"p":1,"q":2} extra`, http.StatusBadRequest},
		{"negative time", `{"times":[1,-2],"p":1,"q":2}`, http.StatusBadRequest},
		{"shape mismatch", `{"times":[1,2,3],"p":2,"q":2}`, http.StatusBadRequest},
		{"bad strategy", `{"times":[1,2],"p":1,"q":2,"strategy":"magic"}`, http.StatusBadRequest},
		{"removed panel ordering", `{"times":[1,2],"p":1,"q":2,"panel":{"row_ordering":"interleaved"}}`, http.StatusBadRequest},
		{"unsolvable", `{"times":[1,2,3,5,7,11,13],"min_aspect":0.9}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		resp, blob := postPlan(t, ts, tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.code, blob)
		}
		var e errorBody
		if err := json.Unmarshal(blob, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q", tc.name, blob)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", resp.StatusCode)
	}
}

// TestExactAdmissionLimit: an exact request over 12 processors is refused
// with 422 before any search starts, alone and as batch items beside a
// valid one, for free and fixed arrangements. A 3×4 exact request still
// plans. The refusals must come back within a second: the search they would
// start runs for minutes.
func TestExactAdmissionLimit(t *testing.T) {
	_, ts := newTestServer(t)
	client := &http.Client{Timeout: time.Second}
	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, blob
	}
	const times4x5 = `[1.3,2.9,4.1,1.7,3.3,2.2,5.9,1.1,4.7,3.8,2.6,6.4,1.9,5.2,3.1,7.3,2.4,4.4,6.1,1.5]`
	free := `{"times":` + times4x5 + `,"p":4,"q":5,"strategy":"exact"}`
	fixed := `{"times":` + times4x5 + `,"p":4,"q":5,"fixed":true,"strategy":"exact"}`

	if code, blob := post("/v1/plan", free); code != http.StatusUnprocessableEntity ||
		!strings.Contains(string(blob), "limited to 12 processors") {
		t.Fatalf("4×5 exact: status %d: %s", code, blob)
	}
	code, blob := post("/v1/plans", `[`+free+`,{"times":[1,2,3,5],"p":2,"q":2},`+fixed+`]`)
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, blob)
	}
	var br BatchResponse
	if err := json.Unmarshal(blob, &br); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{http.StatusUnprocessableEntity, http.StatusOK, http.StatusUnprocessableEntity} {
		if got := br.Results[i].Status; got != want {
			t.Fatalf("batch item %d: status %d, want %d (%s)", i, got, want, blob)
		}
	}

	resp, blob := postPlan(t, ts, `{"times":[1.3,2.9,4.1,1.7,3.3,2.2,5.9,1.1,4.7,3.8,2.6,6.4],"p":3,"q":4,"strategy":"exact"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("3×4 exact: status %d: %s", resp.StatusCode, blob)
	}
}

// TestMetricsAndHealth scrapes /metrics after traffic and checks the
// request, latency and cache series are present, plus /healthz.
func TestMetricsAndHealth(t *testing.T) {
	s, ts := newTestServer(t)

	postPlan(t, ts, `{"times":[1,2,3,5],"p":2,"q":2}`)
	postPlan(t, ts, `{"times":[1,2,3,5],"p":2,"q":2}`)
	postPlan(t, ts, `{"times":[bad`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	page := string(blob)
	for _, want := range []string{
		`hetgrid_service_requests_total{code="200"} 2`,
		`hetgrid_service_requests_total{code="400"} 1`,
		"hetgrid_service_plan_seconds_count 3",
		"hetgrid_plancache_hits 1",
		"hetgrid_plancache_misses 1",
		"hetgrid_plancache_entries 1",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	st := s.Cache().Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats %+v", st)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hblob, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || string(hblob) != "ok\n" {
		t.Fatalf("/healthz: %d %q", hresp.StatusCode, hblob)
	}
}

// TestServiceMatchesLibrary pins the wire plan to the library's solve of
// the quantized request: the service must be a thin adapter, not a fork.
func TestServiceMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"times":[1.04,2.11,2.97,5.02,1.5,3.33],"p":2,"q":3,"strategy":"heuristic"}`
	resp, blob := postPlan(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, blob)
	}
	var got plan.Plan
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}

	req := plan.Request{
		Times: []float64{1.04, 2.11, 2.97, 5.02, 1.5, 3.33},
		P:     2, Q: 3,
		Strategy: plan.StrategyHeuristic,
	}
	res, err := plan.Solve(req.Quantized(plan.DefaultQuantDigits))
	if err != nil {
		t.Fatal(err)
	}
	want := res.Plan
	if got.Objective != want.Objective {
		t.Fatalf("objective %v vs library %v", got.Objective, want.Objective)
	}
	for i := range want.RowShares {
		if got.RowShares[i] != want.RowShares[i] {
			t.Fatalf("row share %d: %v vs %v", i, got.RowShares[i], want.RowShares[i])
		}
	}
}
