package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hetgrid/internal/plancache"
)

// serveBatch answers one POST /v1/plans with body through h.
func serveBatch(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plans", bytes.NewReader(body)))
	return rec
}

// checkMemoInvisible posts body twice to a server S1 and once to a server
// S2 built on S1's cache after S1's first post: S1's second answer comes
// through its item memo, S2's through fresh decodes, and the two must be
// byte-identical, status and headers included. The cache neither evicts
// nor expires between the posts, and batches may hold more items than
// memoCap. Then it checks the memo's bounds (checkMemoBounds).
func checkMemoInvisible(t *testing.T, body []byte) {
	t.Helper()
	cfg := Config{
		Cache:         plancache.New(plancache.Config{MaxEntries: 4 * memoCap, TTL: time.Hour}),
		MaxBatchItems: 2 * memoCap,
	}
	s1 := New(cfg)
	h1 := s1.Handler()
	serveBatch(h1, body)
	s2 := New(Config{Cache: s1.Cache(), MaxBatchItems: cfg.MaxBatchItems})
	again, fresh := serveBatch(h1, body), serveBatch(s2.Handler(), body)
	if again.Code != fresh.Code || !reflect.DeepEqual(again.Header(), fresh.Header()) ||
		!bytes.Equal(again.Body.Bytes(), fresh.Body.Bytes()) {
		t.Fatalf("the item memo changed the answer:\nmemo:  %d %v\n%.600s\nfresh: %d %v\n%.600s",
			again.Code, again.Header(), again.Body, fresh.Code, fresh.Header(), fresh.Body)
	}
	checkMemoBounds(t, s1)
}

// checkMemoBounds: the item memo holds at most memoCap items and memoBytes
// bytes, none over maxMemoItem bytes, and only items whose bytes decode
// and validate to exactly the request and key it holds for them.
func checkMemoBounds(t *testing.T, s *Server) {
	t.Helper()
	m := s.items.items
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.m) > memoCap || m.bytes > memoBytes {
		t.Fatalf("item memo holds %d items in %d bytes, bounds %d and %d", len(m.m), m.bytes, memoCap, memoBytes)
	}
	for _, it := range m.m {
		if len(it.raw) > maxMemoItem {
			t.Fatalf("item memo holds a %d-byte item, cap %d", len(it.raw), maxMemoItem)
		}
		req, err := decodeBatchItem(it.raw)
		if err != nil {
			t.Fatalf("item memo holds an item that fails: %v\n%s", err, it.raw)
		}
		if qreq, key := s.quantize(req); key != it.key || !reflect.DeepEqual(qreq, it.req) {
			t.Fatalf("item memo holds %q → %+v %q, decode gives %+v %q", it.raw, it.req, it.key, qreq, key)
		}
	}
}

// overMemoCap is a batch of memoCap+100 distinct items, 42 distinct
// quantized keys among them.
func overMemoCap() []byte {
	items := make([]string, memoCap+100)
	for i := range items {
		items[i] = `{"times":[` + strconv.Itoa(10000+i) + `]}`
	}
	return []byte("[" + strings.Join(items, ",") + "]")
}

// TestItemMemoIsInvisible: answering from the server-wide item memo is
// byte-identical to decoding afresh, for valid, invalid and repeated
// items, near-duplicates in one quantum, items too large to be stored, and
// more distinct items than one memo generation holds.
func TestItemMemoIsInvisible(t *testing.T) {
	big := `{"times":[1.25,2.5,3.75,5],"p":2,"q":2` + strings.Repeat(" ", maxMemoItem) + `}`
	for name, body := range map[string]string{
		"valid, invalid and duplicates": `[{"times":[1,2,3,5],"p":2,"q":2},{"times":[1,-2],"p":1,"q":2},` +
			`{"times":[1,2,3,5],"p":2,"q":2},{"times":[1,-2],"p":1,"q":2},` +
			`{"times":[1,2],"p":1,"q":2,"stratgy":"exact"},{"times":[1,2,3,5,7,11,13],"min_aspect":0.9}]`,
		"one quantum": `[{"times":[1,2,3,5],"p":2,"q":2},{"times":[1.0001,2.0002,2.9999,5.0001],"p":2,"q":2},` +
			`{"times":[1.0004,2,3,5],"p":2,"q":2}]`,
		"over the item size cap": "[" + big + `,{"times":[1.25,2.5,3.75,5],"p":2,"q":2},` + big + "]",
		"over memoCap":           string(overMemoCap()),
		"bad envelope":           `[{"times":[1,2],"p":1,"q":2}] extra`,
	} {
		t.Run(name, func(t *testing.T) { checkMemoInvisible(t, []byte(body)) })
	}
}

// FuzzBatchMemo is TestItemMemoIsInvisible over arbitrary bodies (seed
// corpus: testdata/fuzz/FuzzBatchMemo, its cases as committed files).
func FuzzBatchMemo(f *testing.F) {
	f.Fuzz(checkMemoInvisible)
}

// TestItemMemoConcurrent: batches answered at once by one server, while
// they push its item memo through generations, get the plans a server
// answering them one at a time gives. Run it under -race.
func TestItemMemoConcurrent(t *testing.T) {
	body := overMemoCap()
	body = append(body[:len(body)-1], `,{"times":[1,2,3,4,5,6],"p":2,"q":3},{"times":[1,-2],"p":1,"q":2}]`...)
	var want BatchResponse
	if err := json.Unmarshal(serveBatch(New(Config{MaxBatchItems: 2 * memoCap}).Handler(), body).Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	h := New(Config{MaxBatchItems: 2 * memoCap}).Handler()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 2; n++ {
				var got BatchResponse
				if err := json.Unmarshal(serveBatch(h, body).Body.Bytes(), &got); err != nil {
					t.Error(err)
					return
				}
				for i, it := range got.Results {
					if it.Status != want.Results[i].Status || !bytes.Equal(it.Plan, want.Results[i].Plan) {
						t.Errorf("item %d: %d %s, want %d %s", i, it.Status, it.Plan, want.Results[i].Status, want.Results[i].Plan)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, so measuring the handler measures no recorder.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// batchHitAllocsBound is the allocation budget of answering a warmed
// 32-item batch whose every item is a cache hit. With the item memo it is
// about 140 (Go 1.24, linux/amd64); the same handler decoding each item
// once per batch takes about 1,110, and the handler before the memo about
// 1,400.
const batchHitAllocsBound = 250

// TestBatchHitAllocs is the allocation witness of the batch path: allocations
// per POST /v1/plans of a fixed all-hit 32-item batch on a warmed server,
// of which an item memo hit takes none. AllocsPerRun runs at GOMAXPROCS 1,
// so batchSolve starts one worker.
func TestBatchHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	items := make([]string, 32)
	for i := range items {
		items[i] = fmt.Sprintf(`{"times":[1,%d.5,2,3,4,5],"p":2,"q":3,"strategy":"heuristic"}`, i+1)
	}
	body := []byte("[" + strings.Join(items, ",") + "]")
	s := New(Config{})
	h := s.Handler()
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/plans", rd)
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		rd.Reset(body)
		clear(w.h)
		h.ServeHTTP(w, req)
	}
	serve() // misses: fills the cache and both memos
	serve()
	if w.code != http.StatusOK || w.h.Get("X-Batch-Hits") != "32" {
		t.Fatalf("warm batch: status %d, headers %v; want 200 and 32 hits", w.code, w.h)
	}
	raw := []byte(items[0])
	if allocs := testing.AllocsPerRun(100, func() { s.items.get(raw) }); allocs != 0 || s.items.get(raw) == nil {
		t.Fatalf("an item memo hit allocates %.0f times (want 0), or misses", allocs)
	}
	allocs := testing.AllocsPerRun(50, serve)
	t.Logf("%.0f allocations per all-hit 32-item batch (bound %d)", allocs, batchHitAllocsBound)
	if allocs > batchHitAllocsBound {
		t.Fatalf("%.0f allocations per all-hit 32-item batch, bound %d", allocs, batchHitAllocsBound)
	}
}

// planHitAllocsBound is the allocation budget of answering a warmed POST
// /v1/plan whose plan is a cache hit: about 32 (Go 1.24, linux/amd64),
// nearly all of them the strict decode, the quantization and the key.
// Re-marshaling the plan through a json.Encoder took as many, from pooled
// buffers; what the memo saves there is the reflective encode's time.
const planHitAllocsBound = 48

// TestPlanHitAllocs is the allocation witness of the single endpoint, and
// pins that it answers from the plan-bytes memo the batch path fills: after
// a miss the memo holds exactly the body, less its newline, and a warmed
// hit takes at most planHitAllocsBound allocations.
func TestPlanHitAllocs(t *testing.T) {
	body := []byte(`{"times":[1,1.5,2,3,4,5],"p":2,"q":3,"strategy":"heuristic"}`)
	s := New(Config{})
	h := s.Handler()
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", rd)
	miss := httptest.NewRecorder()
	h.ServeHTTP(miss, req)
	if miss.Code != http.StatusOK || miss.Header().Get("X-Cache") != "miss" {
		t.Fatalf("cold request: status %d, headers %v; want 200 and a miss", miss.Code, miss.Header())
	}
	var memoised []string
	s.plans.mu.RLock()
	for _, raw := range s.plans.m {
		memoised = append(memoised, string(raw))
	}
	s.plans.mu.RUnlock()
	if len(memoised) != 1 || memoised[0]+"\n" != miss.Body.String() {
		t.Fatalf("plan-bytes memo holds %q after one /v1/plan, want the body %q", memoised, miss.Body)
	}
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		rd.Reset(body)
		clear(w.h)
		h.ServeHTTP(w, req)
	}
	serve()
	if w.code != http.StatusOK || w.h.Get("X-Cache") != "hit" {
		t.Fatalf("warm request: status %d, headers %v; want 200 and a hit", w.code, w.h)
	}
	allocs := testing.AllocsPerRun(100, serve)
	t.Logf("%.0f allocations per /v1/plan cache hit (bound %d)", allocs, planHitAllocsBound)
	if allocs > planHitAllocsBound {
		t.Fatalf("%.0f allocations per /v1/plan cache hit, bound %d", allocs, planHitAllocsBound)
	}
}
