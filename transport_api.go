package hetgrid

import (
	"hetgrid/internal/engine"
	"hetgrid/internal/run"
)

// Transport is the engine's point-to-point message fabric — the interface
// a custom fabric must satisfy to carry a distributed execution's traffic
// (see WithTransport). It is the redesigned v2 surface: Send never blocks,
// Recv takes a context and returns an error (a closed fabric surfaces as
// ErrTransportClosed, a remote failure as a *RemoteAbort naming the rank),
// and Close(ctx) tears the fabric down, unblocking every pending Recv
// locally and remotely.
type Transport = engine.Transport

// RemoteAbort is the Recv error a fabric delivers when the run was aborted
// elsewhere with blame attached: Rank names the failing rank (-1 unknown).
// It unwraps to ErrTransportClosed.
type RemoteAbort = engine.RemoteAbort

// ErrTransportClosed is returned by Transport.Recv once the fabric has
// been closed.
var ErrTransportClosed = engine.ErrClosed

// NewMemTransport returns the in-process mailbox fabric for n ranks — the
// default fabric of every distributed execution, exported so callers can
// compose it (or compare a custom fabric against it) via WithTransport.
func NewMemTransport(n int) Transport { return engine.NewMemTransport(n) }

// WithTransport injects a custom message fabric into a distributed
// execution: real sockets (a TCP fabric), an instrumented wrapper, or a
// test double. The fabric must span exactly p·q ranks. If it exposes
// LocalRanks() []int (a multi-process fabric hosting only a rank subset),
// the execution spawns goroutines for those ranks alone and relies on the
// fabric to reach the rest.
//
// A fixed instance serves exactly one world: combine fault recovery or
// drift migrations (each a second attempt) with WithTransportFactory.
func WithTransport(t Transport) Option {
	return func(o *callOptions) { o.exec.TransportFactory = run.OneShot(t) }
}

// WithTransportFactory injects a fabric builder invoked once per execution
// attempt with the attempt's rank count — the recovery-compatible form of
// WithTransport: after a rank failure the surviving world is replanned
// smaller and gets a fresh fabric. A fabric hosting a rank subset gets one
// attempt: a failure or migration verdict on it is returned as the error.
func WithTransportFactory(f func(ranks int) (Transport, error)) Option {
	return func(o *callOptions) { o.exec.TransportFactory = f }
}
