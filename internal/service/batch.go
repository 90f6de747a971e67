package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hetgrid/internal/obs"
	"hetgrid/internal/plan"
)

// POST /v1/plans: the batch endpoint. The service's natural traffic shape
// is many small planning problems per caller (per-tenant grids, survivor
// replans), and at the measured per-request cost the HTTP round-trip
// dominates the solve for cached and heuristic plans — so the batch path
// amortizes one round-trip, one decode and one response flush over up to
// MaxBatchItems problems. Items fail individually (per-item status in the
// envelope; one bad item never fails the batch), identical quantized keys
// inside a batch collapse to one solve (dedup), and the unique keys fan
// out over a bounded worker set.

// BatchItem is one per-item result in the /v1/plans response envelope.
// Exactly one of Plan and Error is set; Status mirrors what the single
// endpoint would have answered for the item alone (200, 400 body shapes
// map to 422 here because the envelope itself was well-formed).
type BatchItem struct {
	// Status is the per-item HTTP-equivalent status: 200, or 422 for
	// items that failed validation or were unsolvable.
	Status int `json:"status"`
	// Cache is "hit", "miss" or "dedup" (served by another item's solve
	// in this same batch).
	Cache string `json:"cache,omitempty"`
	// Error describes a failed item.
	Error string `json:"error,omitempty"`
	// Plan is the canonical plan, byte-identical to the single-request
	// response for the same quantized key.
	Plan json.RawMessage `json:"plan,omitempty"`
}

// BatchResponse is the /v1/plans response envelope.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// encode writes the envelope without going through encoding/json at the
// top level: each item's Plan is already canonical compact JSON (the exact
// bytes json.Marshal produced), and the generic encoder would re-scan and
// re-compact every one of them. Hand-assembling skips that second pass
// over what is by far the bulk of the response.
func (br BatchResponse) encode(buf *bytes.Buffer) {
	buf.WriteString(`{"results":[`)
	for i, it := range br.Results {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(`{"status":`)
		buf.WriteString(strconv.Itoa(it.Status))
		if it.Cache != "" { // fixed tokens ("hit"/"miss"/"dedup"): no escaping needed
			buf.WriteString(`,"cache":"`)
			buf.WriteString(it.Cache)
			buf.WriteByte('"')
		}
		if it.Error != "" {
			buf.WriteString(`,"error":`)
			quoted, _ := json.Marshal(it.Error)
			buf.Write(quoted)
		}
		if it.Plan != nil {
			buf.WriteString(`,"plan":`)
			buf.Write(it.Plan)
		}
		buf.WriteByte('}')
	}
	buf.WriteString("]}\n")
}

// DecodeBatch parses a /v1/plans body: a JSON array of raw items, bounded
// in bytes (ErrTooLarge beyond 4MB, whatever the bytes hold) and count.
// Items are returned raw and validated individually by the caller so one
// malformed item cannot fail its neighbors — only envelope-level problems
// (not an array, trailing garbage, empty, over limit) are errors here.
func DecodeBatch(r io.Reader, maxItems int) ([]json.RawMessage, error) {
	var items []json.RawMessage
	if err := decodeBody(r, maxBatchBytes, &items, "batch body (want a JSON array of plan requests)"); err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("service: empty batch")
	}
	if len(items) > maxItems {
		return nil, fmt.Errorf("service: batch of %d items exceeds the %d-item limit", len(items), maxItems)
	}
	return items, nil
}

// decodeBatchItem strictly decodes and validates one raw batch item, with
// the same rules as the single endpoint (unknown fields are errors).
func decodeBatchItem(raw json.RawMessage) (plan.Request, error) {
	var req plan.Request
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return plan.Request{}, fmt.Errorf("service: bad batch item: %w", err)
	}
	if err := req.Validate(); err != nil {
		return plan.Request{}, err
	}
	return req, nil
}

// planMemo caches the marshaled bytes of cached plans, keyed by pointer
// identity: a cache hit returns the same immutable *plan.Plan, so its
// canonical JSON never changes and re-marshaling it per batch is pure
// waste. The memo is generational — when it reaches memoCap entries the
// whole map is swapped for an empty one — so it stays bounded without
// tracking cache evictions (a stale pointer just re-marshals once into
// the new generation).
type planMemo struct {
	m atomic.Pointer[sync.Map]
	n atomic.Int64
}

const memoCap = 4096

func newPlanMemo() *planMemo {
	pm := &planMemo{}
	pm.m.Store(&sync.Map{})
	return pm
}

func (pm *planMemo) marshal(p *plan.Plan) (json.RawMessage, error) {
	gen := pm.m.Load()
	if raw, ok := gen.Load(p); ok {
		return raw.(json.RawMessage), nil
	}
	raw, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	if pm.n.Add(1) > memoCap {
		pm.n.Store(0)
		gen = &sync.Map{}
		pm.m.Store(gen)
	}
	gen.Store(p, json.RawMessage(raw))
	return raw, nil
}

// batchSolve resolves decoded batch items: dedup by quantized key, then a
// bounded parallel fan-out over the unique keys. Duplicate items reuse the
// first occurrence's solve (and its marshaled bytes) without touching the
// cache again. Returns the per-item results plus the dedup count.
func (s *Server) batchSolve(reqs []plan.Request, valid []bool, keys []string) ([]BatchItem, int) {
	type slot struct {
		plan *plan.Plan
		raw  json.RawMessage
		hit  bool
		err  error
	}
	items := make([]BatchItem, len(reqs))
	primary := map[string]*slot{} // quantized key → first occurrence's result
	var uniq []string
	reqFor := make(map[string]plan.Request)
	for i, req := range reqs {
		if !valid[i] {
			continue
		}
		if _, ok := primary[keys[i]]; !ok {
			primary[keys[i]] = &slot{}
			reqFor[keys[i]] = req
			uniq = append(uniq, keys[i])
		}
	}

	// Fan the unique keys out over a bounded worker set. The cache's
	// single-flight already dedups across batches; this loop dedups inside
	// one and keeps the goroutine count independent of batch size.
	workers := runtime.GOMAXPROCS(0)
	if workers > len(uniq) {
		workers = len(uniq)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	work := make(chan string)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				sl := primary[k]
				sl.plan, sl.hit, sl.err = s.solveKeyed(reqFor[k], k)
				if sl.err == nil {
					sl.raw, sl.err = s.memo.marshal(sl.plan)
				}
			}
		}()
	}
	for _, k := range uniq {
		work <- k
	}
	close(work)
	wg.Wait()

	dedup := 0
	served := map[string]bool{}
	for i := range reqs {
		if !valid[i] {
			continue // already filled by the caller
		}
		sl := primary[keys[i]]
		if sl.err != nil {
			items[i] = BatchItem{Status: http.StatusUnprocessableEntity, Error: sl.err.Error()}
			continue
		}
		cache := "miss"
		switch {
		case served[keys[i]]:
			cache = "dedup"
			dedup++
		case sl.hit:
			cache = "hit"
		}
		served[keys[i]] = true
		items[i] = BatchItem{Status: http.StatusOK, Cache: cache, Plan: sl.raw}
	}
	return items, dedup
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code := http.StatusOK
	defer func() {
		s.batchLatency.Observe(time.Since(start).Seconds())
		s.registry.Counter("hetgrid_service_batch_requests_total",
			obs.Labels("code", strconv.Itoa(code)),
			"Batch plan requests by HTTP status.").Inc()
	}()

	if r.Method != http.MethodPost {
		code = http.StatusMethodNotAllowed
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, code, errorBody{"POST only"})
		return
	}
	if s.rejectDraining(w) {
		code = http.StatusServiceUnavailable
		return
	}
	raws, err := DecodeBatch(r.Body, s.maxBatch)
	if err != nil {
		code = http.StatusBadRequest
		if errors.Is(err, ErrTooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, errorBody{err.Error()})
		return
	}
	s.batchSize.Observe(float64(len(raws)))

	// Byte-identical raw items decode (and quantize) identically, so the
	// strict decode and key derivation run once per distinct body — in a
	// duplicate-heavy batch that is most of the handler's CPU.
	type decoded struct {
		req plan.Request
		key string
		err error
	}
	reqs := make([]plan.Request, len(raws))
	valid := make([]bool, len(raws))
	keys := make([]string, len(raws))
	items := make([]BatchItem, len(raws))
	invalid := 0
	seen := make(map[string]*decoded, len(raws))
	for i, raw := range raws {
		d, ok := seen[string(raw)]
		if !ok {
			d = &decoded{}
			d.req, d.err = decodeBatchItem(raw)
			if d.err == nil {
				d.req = d.req.Quantized(s.digits)
				d.key = d.req.Key(s.digits)
			}
			seen[string(raw)] = d
		}
		if d.err != nil {
			items[i] = BatchItem{Status: http.StatusUnprocessableEntity, Error: d.err.Error()}
			invalid++
			continue
		}
		reqs[i], keys[i], valid[i] = d.req, d.key, true
	}

	solved, dedup := s.batchSolve(reqs, valid, keys)
	for i := range items {
		if valid[i] {
			items[i] = solved[i]
		}
	}

	itemCounter := func(result string) *obs.Counter {
		return s.registry.Counter("hetgrid_service_batch_items_total",
			obs.Labels("result", result), "Batch items by per-item outcome.")
	}
	hits, misses, failed := 0, 0, 0
	for _, it := range items {
		switch {
		case it.Status != http.StatusOK:
			failed++
		case it.Cache == "hit":
			hits++
		case it.Cache == "miss":
			misses++
		}
	}
	itemCounter("hit").Add(int64(hits))
	itemCounter("miss").Add(int64(misses))
	itemCounter("dedup").Add(int64(dedup))
	itemCounter("invalid").Add(int64(invalid))
	itemCounter("failed").Add(int64(failed - invalid))

	// Outcome counts ride in headers so callers that only need the tallies
	// (monitors, load shedders, benchmarks) can skip parsing the envelope,
	// the same way X-Cache serves the single endpoint.
	w.Header().Set("X-Batch-Size", strconv.Itoa(len(items)))
	w.Header().Set("X-Batch-Dedup", strconv.Itoa(dedup))
	w.Header().Set("X-Batch-Hits", strconv.Itoa(hits))
	w.Header().Set("X-Batch-Failed", strconv.Itoa(failed))
	var buf bytes.Buffer
	buf.Grow(1024 * len(items))
	BatchResponse{Results: items}.encode(&buf)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}
