package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Limits on how long a client may take to send a request, so a socket
// that is opened and then stalls cannot hold a goroutine and a descriptor
// forever. There is deliberately no WriteTimeout: an exact solve and
// /debug/pprof/profile?seconds=30 legitimately outlast any fixed one, and
// bounding the response waits for a per-request solve deadline.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second // whole request; bodies are capped at 4 MB
	idleTimeout       = 2 * time.Minute  // keep-alive connection between requests
)

// NewServer returns an http.Server for h with the read and idle timeouts
// above; both HTTP listeners in the tree (hetgridd, Registry.Serve) are
// built here.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// ServeMux returns an HTTP mux exposing the registry at /metrics and the
// standard pprof endpoints under /debug/pprof/ — the page a scraper (or a
// plain curl) reads and the profiler attaches to. The mux is independent
// of http.DefaultServeMux, so importing this package never pollutes the
// global mux.
func (r *Registry) ServeMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve listens on addr (e.g. ":9090" or "127.0.0.1:0") and serves the
// registry's mux in a background goroutine, returning the bound address
// and a shutdown func. Errors binding the listener are returned; errors
// after that (server teardown) are swallowed — observability must never
// take down the workload it observes.
func (r *Registry) Serve(addr string) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := NewServer(r.ServeMux())
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}
