// Package service is the HTTP face of the planning pipeline: hetgridd's
// POST /v1/plan accepts a plan.Request as JSON, quantizes the cycle-times,
// and answers with the canonical plan — cached, single-flighted and
// TTL-bounded by internal/plancache. POST /v1/plans accepts an array of
// requests and amortizes the HTTP round-trip over the whole batch:
// per-item validation (one bad item never fails the batch), intra-batch
// dedup by quantized key, and a bounded parallel fan-out over the unique
// keys. The observability mux (Prometheus /metrics, pprof) comes from
// internal/obs; the cache and batch counters publish there.
//
// The service plans the *quantized* request: the cache key and the plan it
// stores are derived from the same rounded cycle-times, so every request
// inside one quantum receives the identical (byte-identical, given the
// stable Plan JSON) response — whether it arrived alone or in a batch.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"hetgrid/internal/obs"
	"hetgrid/internal/plan"
	"hetgrid/internal/plancache"
)

// Config assembles a Server. The zero value works: default cache,
// default quantization, fresh registry, batching on.
type Config struct {
	// Cache holds solved plans (nil = plancache.New with defaults).
	Cache *plancache.Cache
	// QuantDigits is the cycle-time quantization in significant digits
	// (0 = plan.DefaultQuantDigits, negative = no quantization).
	QuantDigits int
	// Workers caps the exact solver's parallelism per request (0 =
	// GOMAXPROCS).
	Workers int
	// MaxBatchItems bounds the number of requests in one POST /v1/plans
	// body (0 = 256).
	MaxBatchItems int
	// Registry receives the request and cache metrics (nil = new one).
	Registry *obs.Registry
}

// Server handles plan requests. Safe for concurrent use.
type Server struct {
	cache    *plancache.Cache
	digits   int
	workers  int
	registry *obs.Registry

	maxBatch int
	plans    *memo[*plan.Plan, json.RawMessage]
	items    *itemMemo
	draining atomic.Bool

	latency       *obs.Histogram
	batchLatency  *obs.Histogram
	batchSize     *obs.Histogram
	requests      map[int]*obs.Counter // by the status handlePlan answered
	batchRequests map[int]*obs.Counter // by the status handleBatch answered
	batchItems    struct{ hit, miss, dedup, invalid, failed *obs.Counter }
	stages        struct{ decode, key, solve, encode *obs.Histogram }
}

// New builds a Server from cfg and publishes its metrics. Every series a
// request updates is resolved here, so serving one looks nothing up.
func New(cfg Config) *Server {
	s := &Server{
		cache:    cfg.Cache,
		digits:   cfg.QuantDigits,
		workers:  cfg.Workers,
		registry: cfg.Registry,
		maxBatch: cfg.MaxBatchItems,
		plans:    newMemo[*plan.Plan, json.RawMessage](),
		items:    newItemMemo(),
	}
	if s.cache == nil {
		s.cache = plancache.New(plancache.Config{})
	}
	if s.digits == 0 {
		s.digits = plan.DefaultQuantDigits
	}
	if s.registry == nil {
		s.registry = obs.NewRegistry()
	}
	if s.maxBatch <= 0 {
		s.maxBatch = defaultMaxBatchItems
	}
	s.cache.Publish(s.registry)
	s.latency = s.registry.Histogram("hetgrid_service_plan_seconds", "",
		"POST /v1/plan latency.", nil)
	s.batchLatency = s.registry.Histogram("hetgrid_service_batch_seconds", "",
		"POST /v1/plans latency (whole batch).", nil)
	s.batchSize = s.registry.Histogram("hetgrid_service_batch_size", "",
		"Items per POST /v1/plans request.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	s.requests = codeCounters(s.registry, "hetgrid_service_requests_total",
		"Plan requests by HTTP status.",
		http.StatusOK, http.StatusBadRequest, http.StatusMethodNotAllowed,
		http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity, http.StatusServiceUnavailable)
	s.batchRequests = codeCounters(s.registry, "hetgrid_service_batch_requests_total",
		"Batch plan requests by HTTP status.",
		http.StatusOK, http.StatusBadRequest, http.StatusMethodNotAllowed,
		http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable)
	itemCounter := func(result string) *obs.Counter {
		return s.registry.Counter("hetgrid_service_batch_items_total",
			obs.Labels("result", result), "Batch items by per-item outcome.")
	}
	s.batchItems.hit, s.batchItems.miss = itemCounter("hit"), itemCounter("miss")
	s.batchItems.dedup, s.batchItems.invalid = itemCounter("dedup"), itemCounter("invalid")
	s.batchItems.failed = itemCounter("failed")
	stage := func(name string) *obs.Histogram {
		return s.registry.Histogram("hetgrid_service_batch_stage_seconds", obs.Labels("stage", name),
			"Time one answered POST /v1/plans spent in each stage: decode (envelope and "+
				"items), key, solve (the fan-out, cache included) and encode.", stageBuckets)
	}
	s.stages.decode, s.stages.key = stage("decode"), stage("key")
	s.stages.solve, s.stages.encode = stage("solve"), stage("encode")
	return s
}

// stageBuckets spans 10 µs to 0.16 s: a batch stage ranges from a few
// memo lookups to a cold exact solve.
var stageBuckets = []float64{1e-5, 2e-5, 4e-5, 8e-5, 1.6e-4, 3.2e-4, 6.4e-4, 1.28e-3,
	2.56e-3, 5.12e-3, 1.024e-2, 2.048e-2, 4.096e-2, 8.192e-2, 0.16384}

// codeCounters resolves the counter name{code} for each status a handler
// can answer.
func codeCounters(reg *obs.Registry, name, help string, codes ...int) map[int]*obs.Counter {
	m := make(map[int]*obs.Counter, len(codes))
	for _, code := range codes {
		m[code] = reg.Counter(name, obs.Labels("code", strconv.Itoa(code)), help)
	}
	return m
}

// Registry returns the registry the server publishes to.
func (s *Server) Registry() *obs.Registry { return s.registry }

// Cache returns the server's plan cache.
func (s *Server) Cache() *plancache.Cache { return s.cache }

// SetDraining flips the server into (or out of) drain mode: while
// draining, plan endpoints answer 503 with a Retry-After header so load
// balancers move traffic before the listener closes.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Handler returns the full service mux: /v1/plan, /v1/plans, /healthz,
// plus the observability endpoints (/metrics, /debug/pprof) from the
// registry.
func (s *Server) Handler() http.Handler {
	mux := s.registry.ServeMux()
	mux.HandleFunc("/v1/plan", s.handlePlan)
	mux.HandleFunc("/v1/plans", s.handleBatch)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	return mux
}

// maxRequestBytes bounds a single request body; a plan request is a few KB
// even for hundreds of processors. maxBatchBytes bounds a whole batch.
const (
	maxRequestBytes = 1 << 20
	maxBatchBytes   = 4 << 20
)

// defaultMaxBatchItems bounds a batch when the config does not.
const defaultMaxBatchItems = 256

// ErrTooLarge marks a request body that exceeded its byte limit; the HTTP
// layer maps it to 413 instead of the generic 400.
var ErrTooLarge = errors.New("request body too large")

// limitedReader counts what it reads so oversized bodies are
// distinguishable from malformed ones after a decode error.
type limitedReader struct {
	r io.Reader
	n int64
}

func (l *limitedReader) Read(p []byte) (int, error) {
	n, err := l.r.Read(p)
	l.n += int64(n)
	return n, err
}

// decodeBody decodes the one JSON value a body holds into v, strictly
// (unknown fields are errors); what names the body in errors. A body of
// more than limit bytes is ErrTooLarge whatever it holds, which takes one
// check after both decodes: a valid value padded past the limit with
// whitespace ends the second in io.EOF at the limit.
func decodeBody(r io.Reader, limit int64, v any, what string) error {
	lr := &limitedReader{r: io.LimitReader(r, limit+1)}
	dec := json.NewDecoder(lr)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err != nil {
		err = fmt.Errorf("service: bad %s: %w", what, err)
	} else if terr := dec.Decode(&struct{}{}); !errors.Is(terr, io.EOF) {
		err = fmt.Errorf("service: trailing data after %s", what)
	}
	if err != nil {
		// The decoder stopped where the body went wrong; read the rest
		// (bounded by the limit) so lr.n tells an oversized body from a
		// malformed one. A read error here leaves the decode error standing.
		_, _ = io.Copy(io.Discard, lr)
	}
	if lr.n > limit {
		return fmt.Errorf("service: %w (limit %d bytes)", ErrTooLarge, limit)
	}
	return err
}

// DecodeRequest parses a plan request from JSON, strictly (unknown fields
// are errors, so typos like "stratgy" fail loudly instead of planning with
// defaults) and validates it. Bodies beyond the 1MB limit return an error
// wrapping ErrTooLarge.
func DecodeRequest(r io.Reader) (plan.Request, error) {
	var req plan.Request
	if err := decodeBody(r, maxRequestBytes, &req, "request body"); err != nil {
		return plan.Request{}, err
	}
	if err := req.Validate(); err != nil {
		return plan.Request{}, err
	}
	return req, nil
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// quantize returns the request the server plans for req, its cycle-times
// quantized, and that request's cache key. The key renders the quantized
// times as they are (Key(0)), so each is rounded once; it equals
// req.Key(s.digits), which FuzzRequestKey pins.
func (s *Server) quantize(req plan.Request) (plan.Request, string) {
	q := req.Quantized(s.digits)
	return q, q.Key(0)
}

// maxExactProcessors is the largest grid, in processors, the service runs
// the exact search for. The search is exponential and cannot be cancelled:
// on two cores a 4×4 takes seconds and a 4×5 more than a minute.
const maxExactProcessors = 12

// solveKeyed runs the cached solve for a quantized request and its cache
// key: cache (single-flight), planner on a miss. Both endpoints go through
// it and answer with s.marshal's bytes of the plan it returns, which is
// what keeps their responses byte-identical for the same quantized key. An
// exact request over maxExactProcessors is refused before the cache.
func (s *Server) solveKeyed(qreq plan.Request, key string) (*plan.Plan, bool, error) {
	if qreq.Strategy == plan.StrategyExact && qreq.P*qreq.Q > maxExactProcessors {
		return nil, false, fmt.Errorf("service: exact strategy is limited to %d processors, got %d×%d",
			maxExactProcessors, qreq.P, qreq.Q)
	}
	qreq.Workers = s.workers
	return s.cache.GetOrCompute(key, func() (*plan.Plan, error) {
		res, err := plan.Solve(qreq)
		if err != nil {
			return nil, err
		}
		res.Plan.Provenance.Key = key
		return res.Plan, nil
	})
}

// rejectDraining answers 503 + Retry-After while the server drains.
// Reports whether the request was rejected.
func (s *Server) rejectDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, errorBody{"draining: retry against another replica"})
	return true
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code := http.StatusOK
	defer func() {
		s.latency.Observe(time.Since(start).Seconds())
		s.requests[code].Inc()
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
	req, err := DecodeRequest(r.Body)
	if err != nil {
		code = http.StatusBadRequest
		if errors.Is(err, ErrTooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, errorBody{err.Error()})
		return
	}

	p, hit, err := s.solveKeyed(s.quantize(req))
	var raw json.RawMessage
	if err == nil {
		raw, err = s.marshal(p)
	}
	if err != nil {
		// The request was well-formed but unsolvable (e.g. an aspect
		// constraint no shape satisfies).
		code = http.StatusUnprocessableEntity
		writeJSON(w, code, errorBody{err.Error()})
		return
	}
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	// The memoised bytes and a newline are what writeJSON's encoder writes
	// for p: json.Marshal and json.Encoder escape HTML alike.
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(raw)
	w.Write(newline)
}

var newline = []byte("\n")

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
