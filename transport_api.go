package hetgrid

import "hetgrid/internal/engine"

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

// WithTransport injects a custom message fabric into a distributed
// execution: real sockets (a TCP fabric), an instrumented wrapper, or a
// test double. The fabric must span exactly p·q ranks. If it exposes
// LocalRanks() []int (a multi-process fabric hosting only a rank subset),
// the execution spawns goroutines for those ranks alone and relies on the
// fabric to reach the rest.
//
// The fabric serves exactly one world: a rank failure or a drift
// migration verdict on it is returned as the error instead of recovering
// or migrating, since either needs a second world on a fresh fabric.
// Without WithTransport every attempt gets fresh in-process mailboxes.
func WithTransport(t Transport) Option {
	return func(o *callOptions) { o.exec.Transport = t }
}
