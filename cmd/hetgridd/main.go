// Command hetgridd serves the planning pipeline over HTTP: POST a JSON
// plan request to /v1/plan (or an array of them to /v1/plans) and get back
// the canonical plan (arrangement, shares, panel, provenance), cached
// under the quantized cycle-times. Prometheus metrics live at /metrics,
// profiling at /debug/pprof, and /healthz answers readiness probes.
//
// Example:
//
//	hetgridd -addr :8080 -cache-entries 4096 &
//	curl -s localhost:8080/v1/plan -d '{"times":[1,2,3,5],"p":2,"q":2}'
//	curl -s localhost:8080/v1/plans -d '[{"times":[1,2,3,5],"p":2,"q":2},{"times":[1,2,3,4,5,6],"p":2,"q":3}]'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"hetgrid/internal/obs"
	"hetgrid/internal/plancache"
	"hetgrid/internal/service"
)

// options holds the parsed command line.
type options struct {
	addr     string
	entries  int
	ttl      time.Duration
	quant    int
	workers  int
	batchMax int
	drainFor time.Duration
}

// registerFlags defines hetgridd's flags on fs; README.md's flag list is
// checked against this set (main_test.go).
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.entries, "cache-entries", 1024, "maximum cached plans")
	fs.DurationVar(&o.ttl, "cache-ttl", 10*time.Minute, "how long a cached plan stays valid (0 = forever)")
	fs.IntVar(&o.quant, "quant", 0, "cycle-time quantization in significant digits (0 = default 3, negative = off)")
	fs.IntVar(&o.workers, "workers", 0, "exact-solver goroutines per request (0 = GOMAXPROCS)")
	fs.IntVar(&o.batchMax, "batch-max", 256, "maximum items per /v1/plans batch")
	fs.DurationVar(&o.drainFor, "drain", 5*time.Second, "graceful-shutdown drain window")
	return o
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hetgridd: ")
	o := registerFlags(flag.CommandLine)
	flag.Parse()

	cache := plancache.New(plancache.Config{
		MaxEntries: o.entries,
		TTL:        o.ttl,
	})
	srv := service.New(service.Config{
		Cache:         cache,
		QuantDigits:   o.quant,
		Workers:       o.workers,
		MaxBatchItems: o.batchMax,
	})

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := obs.NewServer(srv.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Printf("hetgridd serving on http://%s (plan: POST /v1/plan, batch: POST /v1/plans, metrics: /metrics, health: /healthz)\n",
		ln.Addr())

	select {
	case <-ctx.Done():
		log.Print("signal received, draining")
		// New plan requests get 503 + Retry-After while in-flight ones
		// finish inside the drain window.
		srv.SetDraining(true)
		shutCtx, cancel := context.WithTimeout(context.Background(), o.drainFor)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Printf("drain incomplete: %v", err)
		}
		st := cache.Stats()
		log.Printf("final cache stats: %d gets, %d hits, %d misses, %d shared, %d evictions",
			st.Gets, st.Hits, st.Misses, st.Shared, st.Evictions)
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}
}
