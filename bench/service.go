package main

// The two service workloads: hetgridd's handler (internal/service) behind a
// real loopback HTTP server, driven by two closed-loop clients — each sends
// its next request when the previous response has been read.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"hetgrid"
	"hetgrid/internal/plan"
	"hetgrid/internal/service"
)

const (
	serviceClients = 2
	coldCycles     = 8 // cycles of the four classes per plan-cold operation
	windowSeconds  = 1.0
	feasibilityTol = 1e-9
	// Of plan-hot's responses one in hotVerifyStride is decoded and its 32
	// plans checked (every response is still checked for status, batch size
	// and the server's per-item failure count): decoding all of them would
	// cost the two clients more CPU than the server spends answering.
	// plan-cold decodes every response. Decoding happens in the loop, after
	// the latency is taken, not after the run: responses kept for later
	// grow the live heap of the process the server shares, the collector
	// runs less and less often, and the server speeds up as the run goes on.
	hotVerifyStride = 16
	hotWarmKeys     = 1024 // the cache's capacity: one pass over the most popular keys
	probeGrids      = 32
	probeSeed       = 20000501 // fixed: the quality probes do not depend on the run seed
	probeNB         = 24
	quickWindow     = time.Second
	serviceWarmup   = 3 * time.Second
)

type serviceWL struct {
	name string
	hot  bool
	t    tally

	keys    [][]byte // plan-hot's key space
	hotGens []*hotStream
	colds   []*coldStream
	probes  []*modelScenario

	srv    *service.Server
	ts     *httptest.Server
	client *http.Client

	warmed bool
	latMS  []float64 // per operation
}

func (w *serviceWL) tally() *tally { return &w.t }

func (w *serviceWL) close() {
	if w.ts != nil {
		w.client.CloseIdleConnections()
		w.ts.Close()
		w.ts = nil
	}
}

func (w *serviceWL) prepare(seed int64) error {
	// One stream per client, and one more for the traced pass's direct
	// handler calls.
	for c := 0; c <= serviceClients; c++ {
		if w.hot {
			if w.keys == nil {
				w.keys = hotKeys(seed)
			}
			w.hotGens = append(w.hotGens, newHotStream(w.keys, seed, c))
		} else {
			w.colds = append(w.colds, newColdStream(seed, c))
		}
	}
	// The quality probes: fixed grids of the workload's shape, cycle-times
	// already on the service's three-digit quantum so that the service and
	// the facade plan the identical problem.
	p, q := 3, 3
	if w.hot {
		p, q = 2, 3
	}
	rng := rand.New(rand.NewSource(probeSeed))
	for i := 0; i < probeGrids; i++ {
		times := make([]float64, p*q)
		for j := range times {
			times[j] = float64(25+rng.Intn(200)) / 100
		}
		s, err := buildScenario(modelCase{
			req:    hetgrid.PlanRequest{Times: times, P: p, Q: q, Strategy: hetgrid.PlanHeuristic},
			kernel: hetgrid.MatMul, nb: probeNB, r: 32, maxPanel: 4 * q,
			broadcasts: []hetgrid.BroadcastKind{hetgrid.FlatBroadcast},
		})
		if err != nil {
			return err
		}
		w.probes = append(w.probes, s)
	}
	return nil
}

// setup is what an operator pays before the first request is served: the
// server with its default cache, a listening socket, and on plan-hot one
// warming pass over the most popular keys.
func (w *serviceWL) setup() error {
	w.close()
	w.srv = service.New(service.Config{})
	w.ts = httptest.NewServer(w.srv.Handler())
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}}
	if !w.hot {
		resp, err := w.client.Get(w.ts.URL + "/healthz")
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return err
	}
	var body []byte
	for lo := 0; lo < hotWarmKeys; lo += hotBatch {
		body = append(body[:0], '[')
		body = append(body, bytes.Join(w.keys[lo:lo+hotBatch], []byte{','})...)
		body = append(body, ']')
		if _, _, err := w.post("/v1/plans", body); err != nil {
			return err
		}
	}
	return nil
}

// post sends one request and reads the whole response.
func (w *serviceWL) post(path string, body []byte) ([]byte, http.Header, error) {
	resp, err := w.client.Post(w.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("%s: HTTP %d: %.200s", path, resp.StatusCode, raw)
	}
	return raw, resp.Header, nil
}

// exchange is one operation as a client saw it: 32 plans either way. On
// plan-hot that is one batch POST. On plan-cold it is coldCycles cycles of
// the four request classes, 32 POSTs back to back: a single POST's latency
// there has four modes a factor of a hundred apart, and even one cycle's has
// two (1.35 ms or 2.2 ms, by whether the other client's exact solve ran at
// the same time), so the median of either sits on a cliff and moves by a
// third between identical runs. The sum over eight cycles has one mode.
type exchange struct {
	done    float64 // seconds since the loop began
	latency float64 // seconds, verification excluded
	items   int
	dedup   int // items served by another item of the same batch
	err     error
}

// loop runs the closed loop for d and returns every exchange, per client.
// When tr is non-nil each POST is recorded as a span.
func (w *serviceWL) loop(d time.Duration, tr *tracer) [][]exchange {
	out := make([][]exchange, serviceClients)
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; time.Since(begin) < d; n++ {
				var ex exchange
				if w.hot {
					ex = w.hotOp(c, n%hotVerifyStride == 0, tr)
				} else {
					ex = w.coldOp(c, tr)
				}
				ex.done = time.Since(begin).Seconds()
				out[c] = append(out[c], ex)
			}
		}()
	}
	wg.Wait()
	return out
}

// hotOp is plan-hot's operation: one POST of the client's next batch.
func (w *serviceWL) hotOp(client int, verify bool, tr *tracer) exchange {
	ex := exchange{items: hotBatch}
	t0 := time.Now()
	raw, hdr, err := w.post("/v1/plans", w.hotGens[client].next())
	t1 := time.Now()
	ex.latency = t1.Sub(t0).Seconds()
	if tr != nil {
		tr.add(tr.newOp(), 0, "POST /v1/plans", t0, t1)
	}
	if ex.err = err; err == nil {
		ex.err = checkHeaders(hdr, &ex)
	}
	if verify && ex.err == nil {
		ex.err = w.verifyBody(raw)
	}
	return ex
}

// coldOp is plan-cold's operation: the client's next coldCycles cycles of
// the four request classes. A failed POST does not cut it short, so an
// operation is always whole cycles of the stream.
func (w *serviceWL) coldOp(client int, tr *tracer) exchange {
	ex := exchange{items: coldCycles * coldClasses}
	t0 := time.Now()
	op, root := 0, 0
	if tr != nil {
		op = tr.newOp()
		root = tr.add(op, 0, "plan-cold operation", t0, t0) // ended below
	}
	for i := 0; i < ex.items; i++ {
		body, class := w.colds[client].next()
		p0 := time.Now()
		raw, _, err := w.post("/v1/plan", body)
		p1 := time.Now()
		ex.latency += p1.Sub(p0).Seconds()
		if tr != nil {
			tr.add(op, root, "POST /v1/plan class "+strconv.Itoa(class), p0, p1)
		}
		if err == nil {
			err = w.verifyBody(raw)
		}
		if err != nil && ex.err == nil {
			ex.err = err
		}
	}
	if tr != nil {
		tr.end(root, time.Now())
	}
	return ex
}

// checkHeaders reads the outcome counts a batch response states in its
// headers.
func checkHeaders(h http.Header, ex *exchange) error {
	size, _ := strconv.Atoi(h.Get("X-Batch-Size"))
	failed, _ := strconv.Atoi(h.Get("X-Batch-Failed"))
	dedup, _ := strconv.Atoi(h.Get("X-Batch-Dedup"))
	ex.dedup += dedup
	if size != hotBatch || failed != 0 {
		return fmt.Errorf("batch of %d answered with %d results, %d failed", hotBatch, size, failed)
	}
	return nil
}

// settle counts the exchanges of one loop.
func (w *serviceWL) settle(exs [][]exchange) {
	for _, client := range exs {
		for _, ex := range client {
			if ex.err != nil {
				w.t.fail(ex.items, "%s: %v", w.name, ex.err)
			} else {
				w.t.ok(ex.items)
			}
		}
	}
}

// verifyBody decodes one response and checks every plan in it.
func (w *serviceWL) verifyBody(raw []byte) error {
	if !w.hot {
		_, err := decodePlan(raw)
		return err
	}
	var resp service.BatchResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("undecodable batch response: %w", err)
	}
	if len(resp.Results) != hotBatch {
		return fmt.Errorf("%d results for a batch of %d", len(resp.Results), hotBatch)
	}
	for i, it := range resp.Results {
		if it.Status != http.StatusOK {
			return fmt.Errorf("item %d: status %d: %s", i, it.Status, it.Error)
		}
		if _, err := decodePlan(it.Plan); err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
	}
	return nil
}

// decodePlan decodes a served plan and checks it is feasible:
// r_i·t_ij·c_j ≤ 1 for every processor.
func decodePlan(raw []byte) (*plan.Plan, error) {
	var p plan.Plan
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("undecodable plan: %w", err)
	}
	if len(p.Arrangement) != p.P || len(p.RowShares) != p.P || len(p.ColShares) != p.Q || p.P == 0 {
		return nil, fmt.Errorf("plan shape %d×%d does not match its shares", p.P, p.Q)
	}
	for i, row := range p.Arrangement {
		if len(row) != p.Q {
			return nil, fmt.Errorf("arrangement row %d has %d entries, want %d", i, len(row), p.Q)
		}
		for j, t := range row {
			if load := p.RowShares[i] * t * p.ColShares[j]; !(load <= 1+feasibilityTol) {
				return nil, fmt.Errorf("processor (%d,%d) is loaded %.12g > 1", i, j, load)
			}
		}
	}
	return &p, nil
}

func (w *serviceWL) measure(d time.Duration, quick bool) {
	if quick {
		d = quickWindow
	} else if !w.warmed {
		// The first seconds against a fresh server (connections, heap and
		// scheduler settling) are run but not recorded, as the engine
		// workloads' warm-up operations are.
		w.settle(w.loop(serviceWarmup, nil))
		w.warmed = true
	}
	exs := w.loop(d, nil)
	for _, client := range exs {
		for _, ex := range client {
			w.latMS = append(w.latMS, ex.latency*1e3)
		}
	}
	w.settle(exs)
}

func (w *serviceWL) report() map[string]summary {
	out := map[string]summary{"op_p50_ms": summarize(w.latMS)}
	w.t.check(w.probe(out))
	return out
}

// probe asks the server for the heuristic and the exact plan of every probe
// grid and fills the deterministic ratios: plan_quality from the served
// objectives, the simulation ratios from the facade's plan of the same
// request, which must be the plan the service served.
func (w *serviceWL) probe(out map[string]summary) error {
	var quality []float64
	var ratios modelRatios
	for _, s := range w.probes {
		var served [2]*plan.Plan
		for i, strategy := range []string{"heuristic", "exact"} {
			body := append([]byte{'{'}, appendTimes(nil, s.req.Times)...)
			body = append(body, fmt.Sprintf(`,"p":%d,"q":%d,"strategy":%q}`, s.req.P, s.req.Q, strategy)...)
			raw, _, err := w.post("/v1/plan", body)
			if err != nil {
				return err
			}
			if served[i], err = decodePlan(raw); err != nil {
				return err
			}
		}
		if served[0].Objective != s.plan.Objective() {
			return fmt.Errorf("%s: served objective %v differs from the facade's %v for times %v",
				w.name, served[0].Objective, s.plan.Objective(), s.req.Times)
		}
		quality = append(quality, served[0].Objective/served[1].Objective)
		rows, err := s.simulate(nil)
		if err != nil {
			return err
		}
		ratios.add(rows)
	}
	out["plan_quality"] = summary{P50: mean(quality), N: len(quality)}
	ratios.into(out)
	return nil
}
