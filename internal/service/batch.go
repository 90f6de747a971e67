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
	"time"

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

// resolve looks each raw item up in the item memo and decodes, validates,
// quantizes, keys and stores the ones it does not hold. A failed item
// leaves nil in its slot and its 422 in out. It returns the items, the
// number that failed, and the time spent deriving keys.
func (s *Server) resolve(raws []json.RawMessage, out []BatchItem) ([]*item, int, time.Duration) {
	its := make([]*item, len(raws))
	invalid := 0
	var keying time.Duration
	for i, raw := range raws {
		if its[i] = s.items.get(raw); its[i] != nil {
			continue
		}
		req, err := decodeBatchItem(raw)
		if err != nil {
			out[i] = BatchItem{Status: http.StatusUnprocessableEntity, Error: err.Error()}
			invalid++
			continue
		}
		t := time.Now()
		it := &item{raw: raw}
		it.req, it.key = s.quantize(req)
		s.items.put(it)
		keying += time.Since(t)
		its[i] = it
	}
	return its, invalid, keying
}

// batchSolve answers the resolved items into out: dedup by quantized key,
// then a bounded parallel fan-out over the unique keys. Duplicate items
// reuse the first occurrence's solve (and its marshaled bytes) without
// touching the cache again. Failed items (nil) are left as they are.
// Returns the dedup count.
func (s *Server) batchSolve(its []*item, out []BatchItem) int {
	type slot struct {
		it     *item
		raw    json.RawMessage
		hit    bool
		err    error
		served bool // an earlier item of the batch was answered from it
	}
	slots := map[string]*slot{} // quantized key → first occurrence's result
	var uniq []*slot
	for _, it := range its {
		if it != nil && slots[it.key] == nil {
			sl := &slot{it: it}
			slots[it.key] = sl
			uniq = append(uniq, sl)
		}
	}

	// Fan the unique keys out over a bounded worker set. The cache's
	// single-flight already dedups across batches; this loop dedups inside
	// one and keeps the goroutine count independent of batch size.
	workers := min(runtime.GOMAXPROCS(0), len(uniq))
	var wg sync.WaitGroup
	work := make(chan *slot)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sl := range work {
				var p *plan.Plan
				p, sl.hit, sl.err = s.solveKeyed(sl.it.req, sl.it.key)
				if sl.err == nil {
					sl.raw, sl.err = s.marshal(p)
				}
			}
		}()
	}
	for _, sl := range uniq {
		work <- sl
	}
	close(work)
	wg.Wait()

	dedup := 0
	for i, it := range its {
		if it == nil {
			continue
		}
		sl := slots[it.key]
		if sl.err != nil {
			out[i] = BatchItem{Status: http.StatusUnprocessableEntity, Error: sl.err.Error()}
			continue
		}
		cache := "miss"
		switch {
		case sl.served:
			cache = "dedup"
			dedup++
		case sl.hit:
			cache = "hit"
		}
		sl.served = true
		out[i] = BatchItem{Status: http.StatusOK, Cache: cache, Plan: sl.raw}
	}
	return dedup
}

// bufPool holds response buffers between batches. A buffer an unusually
// large response grew past maxPooledBuffer is left to the collector
// rather than kept.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuffer = 1 << 20

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code := http.StatusOK
	defer func() {
		s.batchLatency.Observe(time.Since(start).Seconds())
		s.batchRequests[code].Inc()
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

	items := make([]BatchItem, len(raws))
	its, invalid, keying := s.resolve(raws, items)
	resolved := time.Now()
	s.stages.decode.Observe((resolved.Sub(start) - keying).Seconds())
	s.stages.key.Observe(keying.Seconds())
	dedup := s.batchSolve(its, items)
	solved := time.Now()
	s.stages.solve.Observe(solved.Sub(resolved).Seconds())

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
	s.batchItems.hit.Add(int64(hits))
	s.batchItems.miss.Add(int64(misses))
	s.batchItems.dedup.Add(int64(dedup))
	s.batchItems.invalid.Add(int64(invalid))
	s.batchItems.failed.Add(int64(failed - invalid))

	// Outcome counts ride in headers so callers that only need the tallies
	// (monitors, load shedders, benchmarks) can skip parsing the envelope,
	// the same way X-Cache serves the single endpoint.
	w.Header().Set("X-Batch-Size", strconv.Itoa(len(items)))
	w.Header().Set("X-Batch-Dedup", strconv.Itoa(dedup))
	w.Header().Set("X-Batch-Hits", strconv.Itoa(hits))
	w.Header().Set("X-Batch-Failed", strconv.Itoa(failed))
	buf := bufPool.Get().(*bytes.Buffer)
	BatchResponse{Results: items}.encode(buf)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledBuffer {
		buf.Reset()
		bufPool.Put(buf)
	}
	s.stages.encode.Observe(time.Since(solved).Seconds())
}
