package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hetgrid/internal/matrix"
	"hetgrid/internal/obs"
)

// Transport is the bottom layer of the engine: a point-to-point message
// fabric between n ranks. Send must never block (the SPMD kernels rely on
// unbounded buffering to stay deadlock-free); Recv blocks until a message
// with the tag arrives from src, the context expires, or the fabric is
// closed. Close tears the fabric down and unblocks every pending Recv with
// ErrClosed — so a failing rank (local or remote) cannot leave its peers
// deadlocked.
//
// This is the v2 interface: Recv carries a context and returns an error
// (remote failures surface as *RemoteAbort values instead of hangs), and
// the old fire-and-forget Abort() became Close(ctx) error. The collectives
// and kernels above are written purely against this interface, so swapping
// the in-process mailbox fabric for sockets (see internal/engine/net)
// touches nothing else.
type Transport interface {
	// Send enqueues data from src to dst under tag without blocking. The
	// payload is owned by the transport after the call.
	Send(src, dst int, tag string, data *matrix.Dense)
	// Recv blocks until a message from src for dst under tag arrives and
	// returns its payload. It returns ctx.Err() when the context expires or
	// is canceled first, and ErrClosed (possibly wrapped in a *RemoteAbort
	// naming the failing rank) once the fabric is closed.
	Recv(ctx context.Context, src, dst int, tag string) (*matrix.Dense, error)
	// Close tears down the fabric: every pending and future Recv returns
	// ErrClosed, and network-backed fabrics propagate the abort to remote
	// processes before releasing their resources. Close is idempotent.
	Close(ctx context.Context) error
}

// CauseCloser is implemented by fabrics that can attach a cause to their
// teardown — the network fabric forwards it to remote processes so their
// blocked Recvs fail with a *RemoteAbort naming the dead rank instead of a
// bare ErrClosed.
type CauseCloser interface {
	CloseCause(ctx context.Context, cause error) error
}

// ErrClosed is returned by Recv once the fabric has been closed (a local or
// remote failure aborted the run, or the owner tore the fabric down).
var ErrClosed = errors.New("engine: transport closed")

// RemoteAbort is the Recv error delivered when a remote process closed the
// fabric with a cause: Rank names the failing rank (-1 when unknown). It
// unwraps to ErrClosed so generic teardown paths treat it as a closure.
type RemoteAbort struct {
	Rank   int
	Reason string
}

func (e *RemoteAbort) Error() string {
	if e.Rank >= 0 {
		return fmt.Sprintf("engine: remote abort: rank %d failed: %s", e.Rank, e.Reason)
	}
	return fmt.Sprintf("engine: remote abort: %s", e.Reason)
}

// Unwrap makes errors.Is(err, ErrClosed) hold for remote aborts.
func (e *RemoteAbort) Unwrap() error { return ErrClosed }

// message is one tagged payload in flight.
type message struct {
	tag  string
	data *matrix.Dense
}

// mailbox is an unbounded queue of messages between one ordered pair of
// ranks, with tag-selective receive.
type mailbox struct {
	mu      sync.Mutex
	queue   []message
	wake    chan struct{} // closed by the next put or abort; nil while nobody waits
	aborted bool
	cause   error // non-nil refinement of ErrClosed (a *RemoteAbort)
}

func (m *mailbox) put(tag string, data *matrix.Dense) {
	m.mu.Lock()
	m.queue = append(m.queue, message{tag: tag, data: data})
	m.wakeLocked()
	m.mu.Unlock()
}

// wakeLocked sends every waiting take back to rescan the mailbox.
func (m *mailbox) wakeLocked() {
	if m.wake != nil {
		close(m.wake)
		m.wake = nil
	}
}

// abort unblocks any waiting take with ErrClosed (or the given cause) so a
// failing rank cannot leave its peers deadlocked in Recv.
func (m *mailbox) abort(cause error) {
	m.mu.Lock()
	if !m.aborted {
		m.aborted = true
		m.cause = cause
	}
	m.wakeLocked()
	m.mu.Unlock()
}

// take waits for a message with the tag: (data, nil) on delivery, the
// closure error after an abort, ctx.Err() when the context ends first.
func (m *mailbox) take(ctx context.Context, tag string) (*matrix.Dense, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i, msg := range m.queue {
			if msg.tag == tag {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				return msg.data, nil
			}
		}
		if m.aborted {
			if m.cause != nil {
				return nil, m.cause
			}
			return nil, ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if m.wake == nil {
			m.wake = make(chan struct{})
		}
		wake := m.wake
		m.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
		}
		m.mu.Lock()
	}
}

// errAborted is the panic payload delivered to ranks blocked in Recv when
// another rank fails; the run loop treats it as a secondary failure.
var errAborted = fmt.Errorf("engine: run aborted by a failing rank")

// MemTransport is the in-process Transport: one unbounded mailbox per
// ordered rank pair.
type MemTransport struct {
	boxes [][]*mailbox // boxes[src][dst]
}

// NewMemTransport returns an in-process fabric for n ranks.
func NewMemTransport(n int) *MemTransport {
	t := &MemTransport{boxes: make([][]*mailbox, n)}
	for i := range t.boxes {
		t.boxes[i] = make([]*mailbox, n)
		for j := range t.boxes[i] {
			t.boxes[i][j] = &mailbox{}
		}
	}
	return t
}

// Send enqueues data without blocking.
func (t *MemTransport) Send(src, dst int, tag string, data *matrix.Dense) {
	t.boxes[src][dst].put(tag, data)
}

// Recv blocks until a matching message arrives, the context ends, or the
// fabric is closed.
func (t *MemTransport) Recv(ctx context.Context, src, dst int, tag string) (*matrix.Dense, error) {
	return t.boxes[src][dst].take(ctx, tag)
}

// Close unblocks every pending Recv in the fabric with ErrClosed.
func (t *MemTransport) Close(ctx context.Context) error {
	return t.CloseCause(ctx, nil)
}

// CloseCause closes the fabric delivering cause to blocked receivers.
func (t *MemTransport) CloseCause(_ context.Context, cause error) error {
	for _, row := range t.boxes {
		for _, box := range row {
			box.abort(cause)
		}
	}
	return nil
}

// RankStats aggregates one rank's cross-rank traffic. Sends are counted at
// the sender when the message enters the fabric; receives at the receiver
// when the message is taken out, so in an aborted run ΣRecv may lag ΣSent.
type RankStats struct {
	MsgsSent, MsgsRecv   int
	BytesSent, BytesRecv int
}

// PairStats is the traffic of one ordered (src,dst) rank pair.
type PairStats struct {
	Messages, Bytes int
}

// rankCounters is the mutable per-rank tally behind RankStats — plain
// atomics so the transport hot loop takes no locks and allocates nothing.
type rankCounters struct {
	msgsSent, msgsRecv   atomic.Int64
	bytesSent, bytesRecv atomic.Int64
}

// transportMetrics is the transport layer's registry view: aggregate
// send/recv counters every Meter increment mirrors into — nil counters,
// which count nothing, when no registry is attached.
type transportMetrics struct {
	sentMsgs, recvMsgs   *obs.Counter
	sentBytes, recvBytes *obs.Counter
}

func newTransportMetrics(reg *obs.Registry) transportMetrics {
	return transportMetrics{
		sentMsgs:  reg.Counter("hetgrid_transport_messages_total", obs.Labels("dir", "send"), "cross-rank messages through the transport"),
		recvMsgs:  reg.Counter("hetgrid_transport_messages_total", obs.Labels("dir", "recv"), "cross-rank messages through the transport"),
		sentBytes: reg.Counter("hetgrid_transport_bytes_total", obs.Labels("dir", "send"), "cross-rank bytes through the transport"),
		recvBytes: reg.Counter("hetgrid_transport_bytes_total", obs.Labels("dir", "recv"), "cross-rank bytes through the transport"),
	}
}

// Meter wraps any Transport with per-rank and per-pair message/byte
// counters, mirrors them into an optional obs.Registry, and — when a span
// store is attached — records every cross-rank message as a send span
// (enqueue → delivery) in the store: the record a simulated run writes
// too, so real executions are cross-checked against the analytic
// communication volumes and inspected in chrome://tracing exactly like
// simulated ones.
//
// Self-sends (src == dst) pass through uncounted: they are local data, not
// network traffic, matching both the simulator and the analytic model.
type Meter struct {
	inner Transport
	n     int

	ranks   []rankCounters
	metrics transportMetrics // nil counters unless a registry is attached
	spans   *obs.SpanStore   // nil unless recording

	mu      sync.Mutex
	pairs   [][]PairStats
	inQueue map[pairTag][]float64 // enqueue times of in-flight messages
}

// pairTag keys in-flight messages by their (src,dst,tag) delivery channel,
// which the mailbox serves FIFO per tag.
type pairTag struct {
	src, dst int
	tag      string
}

// newMeter instruments inner for n ranks. A non-nil span store makes every
// cross-rank message a timestamped send span (enqueue → delivery); a
// non-nil registry mirrors the traffic counters into scrapeable metrics.
func newMeter(inner Transport, n int, spans *obs.SpanStore, reg *obs.Registry) *Meter {
	m := &Meter{inner: inner, n: n, ranks: make([]rankCounters, n), spans: spans, metrics: newTransportMetrics(reg)}
	m.pairs = make([][]PairStats, n)
	for i := range m.pairs {
		m.pairs[i] = make([]PairStats, n)
	}
	if spans != nil {
		m.inQueue = make(map[pairTag][]float64)
	}
	return m
}

// Send counts the message at the sender and forwards it to the fabric.
func (m *Meter) Send(src, dst int, tag string, data *matrix.Dense) {
	if src != dst {
		r, c := data.Dims()
		bytes := 8 * r * c
		rc := &m.ranks[src]
		rc.msgsSent.Add(1)
		rc.bytesSent.Add(int64(bytes))
		m.metrics.sentMsgs.Inc()
		m.metrics.sentBytes.Add(int64(bytes))
		m.mu.Lock()
		m.pairs[src][dst].Messages++
		m.pairs[src][dst].Bytes += bytes
		if m.spans != nil {
			key := pairTag{src, dst, tag}
			m.inQueue[key] = append(m.inQueue[key], m.spans.Now())
		}
		m.mu.Unlock()
	}
	m.inner.Send(src, dst, tag, data)
}

// Recv forwards to the fabric and counts the delivery at the receiver.
func (m *Meter) Recv(ctx context.Context, src, dst int, tag string) (*matrix.Dense, error) {
	data, err := m.inner.Recv(ctx, src, dst, tag)
	if err != nil {
		return nil, err
	}
	m.countRecv(src, dst, tag, data)
	return data, nil
}

// countRecv tallies one delivered cross-rank message at the receiver and,
// when recording, closes the message's send span (enqueue → delivery).
func (m *Meter) countRecv(src, dst int, tag string, data *matrix.Dense) {
	if src == dst {
		return
	}
	r, c := data.Dims()
	bytes := 8 * r * c
	rc := &m.ranks[dst]
	rc.msgsRecv.Add(1)
	rc.bytesRecv.Add(int64(bytes))
	m.metrics.recvMsgs.Inc()
	m.metrics.recvBytes.Add(int64(bytes))
	if m.spans != nil {
		end := m.spans.Now()
		key := pairTag{src, dst, tag}
		m.mu.Lock()
		ts := m.inQueue[key]
		var start float64
		ok := len(ts) > 0
		if ok {
			start = ts[0]
			m.inQueue[key] = ts[1:]
		}
		m.mu.Unlock()
		if ok {
			m.spans.Record(obs.Span{
				Rank: src, Kind: obs.SpanSend, Name: tag, Peer: dst,
				Bytes: float64(bytes), Start: start, End: end,
			})
		}
	}
}

// Close forwards to the fabric.
func (m *Meter) Close(ctx context.Context) error { return m.inner.Close(ctx) }

// CloseCause forwards a caused closure, falling back to a plain Close for
// fabrics that do not distinguish.
func (m *Meter) CloseCause(ctx context.Context, cause error) error {
	if cc, ok := m.inner.(CauseCloser); ok {
		return cc.CloseCause(ctx, cause)
	}
	return m.inner.Close(ctx)
}

// RankStats returns a snapshot of the per-rank counters.
func (m *Meter) RankStats() []RankStats {
	out := make([]RankStats, m.n)
	for i := range m.ranks {
		rc := &m.ranks[i]
		out[i] = RankStats{
			MsgsSent: int(rc.msgsSent.Load()), MsgsRecv: int(rc.msgsRecv.Load()),
			BytesSent: int(rc.bytesSent.Load()), BytesRecv: int(rc.bytesRecv.Load()),
		}
	}
	return out
}

// PairStats returns a snapshot of the per-pair counters, indexed
// [src][dst].
func (m *Meter) PairStats() [][]PairStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([][]PairStats, m.n)
	for i := range m.pairs {
		out[i] = append([]PairStats(nil), m.pairs[i]...)
	}
	return out
}

// Messages returns the total cross-rank message count.
func (m *Meter) Messages() int {
	total := int64(0)
	for i := range m.ranks {
		total += m.ranks[i].msgsSent.Load()
	}
	return int(total)
}

// Bytes returns the total cross-rank bytes sent.
func (m *Meter) Bytes() int {
	total := int64(0)
	for i := range m.ranks {
		total += m.ranks[i].bytesSent.Load()
	}
	return int(total)
}

// closeTimeout bounds the teardown of a failing world's fabric: network
// fabrics flush an abort frame to their peers within this budget.
const closeTimeout = 2 * time.Second
