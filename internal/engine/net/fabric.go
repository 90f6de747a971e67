package net

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	stdnet "net"
	"sync"
	"sync/atomic"
	"time"

	"hetgrid/internal/engine"
	"hetgrid/internal/matrix"
	"hetgrid/internal/obs"
)

// Fabric is the TCP-backed engine.Transport of one process in a
// multi-process world. Locally hosted channels deliver through in-process
// mailboxes (an embedded MemTransport is the delivery substrate for every
// channel, including remote senders — a reader goroutine feeds incoming
// data frames into it); remote sends are framed and queued to a per-peer
// writer goroutine, so Send keeps the never-blocks contract the kernels
// rely on. Closing the fabric flushes an abort frame to every peer before
// tearing the connections down, which unblocks remote Recvs with a
// *RemoteAbort — the cross-process half of the engine's abort protocol.
type Fabric struct {
	world    int
	procID   int
	rankProc []int // rank -> hosting process

	mem *engine.MemTransport // delivery substrate, all (src,dst) channels

	writers map[int]*peerWriter // by peer process id
	readers sync.WaitGroup
	peers   map[int]*peerCounters

	mu       sync.Mutex
	closed   bool
	closeErr error

	metrics netMetrics // nil counters (counting nothing) without a registry
}

// NetStats is a snapshot of one peer connection's wire traffic. Frames
// count every frame type (data, abort); bytes count full frames
// including the 6-byte header, i.e. what actually crossed the socket.
type NetStats struct {
	FramesSent, FramesRecv int
	BytesSent, BytesRecv   int
}

type peerCounters struct {
	framesSent, framesRecv atomic.Int64
	bytesSent, bytesRecv   atomic.Int64
}

// netMetrics mirrors the fabric's wire counters into an obs.Registry.
type netMetrics struct {
	sentFrames, recvFrames *obs.Counter
	sentBytes, recvBytes   *obs.Counter
}

func newNetMetrics(reg *obs.Registry) netMetrics {
	return netMetrics{
		sentFrames: reg.Counter("hetgrid_net_frames_total", obs.Labels("dir", "send"), "frames written to peer processes"),
		recvFrames: reg.Counter("hetgrid_net_frames_total", obs.Labels("dir", "recv"), "frames read from peer processes"),
		sentBytes:  reg.Counter("hetgrid_net_bytes_total", obs.Labels("dir", "send"), "bytes written to peer processes (incl. frame headers)"),
		recvBytes:  reg.Counter("hetgrid_net_bytes_total", obs.Labels("dir", "recv"), "bytes read from peer processes (incl. frame headers)"),
	}
}

// RanksOf returns the contiguous rank chunk process proc hosts in a world
// of the given size split across procs processes — the same assignment the
// cluster handshake distributes, exported so drivers can size their local
// work without a topology in hand.
func RanksOf(world, procs, proc int) []int {
	lo, hi := proc*world/procs, (proc+1)*world/procs
	out := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		out = append(out, r)
	}
	return out
}

// rankProcs is RanksOf inverted: the hosting process of every rank.
func rankProcs(world, procs int) []int {
	out := make([]int, world)
	for p := 0; p < procs; p++ {
		for _, r := range RanksOf(world, procs, p) {
			out[r] = p
		}
	}
	return out
}

// newFabric wires up a fabric over established, handshake-complete
// connections (conns[peerProc], one per other process of the cluster) and
// starts its reader/writer goroutines.
func newFabric(world, procID int, conns map[int]stdnet.Conn, reg *obs.Registry) *Fabric {
	f := &Fabric{
		world:    world,
		procID:   procID,
		rankProc: rankProcs(world, len(conns)+1),
		mem:      engine.NewMemTransport(world),
		writers:  make(map[int]*peerWriter, len(conns)),
		peers:    make(map[int]*peerCounters, len(conns)),
		metrics:  newNetMetrics(reg),
	}
	for proc, conn := range conns {
		conn.SetDeadline(time.Time{})
		f.peers[proc] = &peerCounters{}
		f.writers[proc] = newPeerWriter(conn)
		f.readers.Add(1)
		go f.readLoop(proc, conn)
	}
	return f
}

// World returns the total rank count.
func (f *Fabric) World() int { return f.world }

// ProcID returns this process's identity in the cluster (0 is the
// coordinator).
func (f *Fabric) ProcID() int { return f.procID }

// Procs returns the number of processes in the cluster (the peers plus
// this one).
func (f *Fabric) Procs() int { return len(f.writers) + 1 }

// LocalRanks returns the ranks this process hosts — what drivers pass as
// engine Options.LocalRanks.
func (f *Fabric) LocalRanks() []int {
	var out []int
	for r, p := range f.rankProc {
		if p == f.procID {
			out = append(out, r)
		}
	}
	return out
}

// Send delivers locally hosted destinations through the mailbox substrate
// and frames everything else to the destination's process. Send never
// blocks: remote frames enter an unbounded writer queue. Sends on a closed
// fabric are dropped — the world is aborting and nobody will receive them.
func (f *Fabric) Send(src, dst int, tag string, data *matrix.Dense) {
	if f.rankProc[dst] == f.procID {
		f.mem.Send(src, dst, tag, data)
		return
	}
	f.sendFrame(f.rankProc[dst], frameData, encodeData(src, dst, tag, data))
}

// Recv takes from the delivery substrate: local sends and remote data
// frames meet in the same per-channel mailbox, so ordering per
// (src,dst,tag) channel follows the sender's program order (writer queues
// and TCP both preserve FIFO).
func (f *Fabric) Recv(ctx context.Context, src, dst int, tag string) (*matrix.Dense, error) {
	return f.mem.Recv(ctx, src, dst, tag)
}

// sendFrame queues one frame to a peer writer, counting the wire traffic.
func (f *Fabric) sendFrame(proc int, ftype byte, body []byte) {
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return
	}
	w, ok := f.writers[proc]
	if !ok {
		return
	}
	if pc := f.peers[proc]; pc != nil {
		pc.framesSent.Add(1)
		pc.bytesSent.Add(int64(len(body) + 6))
	}
	f.metrics.sentFrames.Inc()
	f.metrics.sentBytes.Add(int64(len(body) + 6))
	w.enqueue(ftype, body)
}

// Close tears the fabric down: an abort frame is flushed to every peer
// (bounded by ctx), the connections close, and every local pending Recv
// returns ErrClosed.
func (f *Fabric) Close(ctx context.Context) error { return f.CloseCause(ctx, nil) }

// CloseCause closes the fabric propagating cause: peers' pending Recvs
// fail with a *RemoteAbort carrying the failing rank, which their engines
// convert into detected *RankFailure errors. Idempotent; the first closure
// wins.
func (f *Fabric) CloseCause(ctx context.Context, cause error) error {
	f.mu.Lock()
	if f.closed {
		err := f.closeErr
		f.mu.Unlock()
		return err
	}
	f.closed = true
	f.mu.Unlock()

	rank, reason := -1, "transport closed"
	var ra *engine.RemoteAbort
	if errors.As(cause, &ra) {
		rank, reason = ra.Rank, ra.Reason
	} else if cause != nil {
		reason = cause.Error()
	}
	body := encodeAbort(rank, reason)
	for proc, w := range f.writers {
		if pc := f.peers[proc]; pc != nil {
			pc.framesSent.Add(1)
			pc.bytesSent.Add(int64(len(body) + 6))
		}
		f.metrics.sentFrames.Inc()
		f.metrics.sentBytes.Add(int64(len(body) + 6))
		w.enqueue(frameAbort, body)
		w.shutdown()
	}
	var err error
	for _, w := range f.writers {
		if werr := w.wait(ctx); werr != nil && err == nil {
			err = werr
		}
	}
	// Closing the conns unblocks the reader goroutines; they see f.closed
	// and exit quietly.
	for _, w := range f.writers {
		w.conn.Close()
	}
	f.mem.CloseCause(ctx, cause)
	f.readers.Wait()
	f.mu.Lock()
	f.closeErr = err
	f.mu.Unlock()
	return err
}

// isClosed reports whether the fabric has been torn down.
func (f *Fabric) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// lowestRankOf names a process by its first hosted rank — the rank a lost
// connection gets blamed on when no abort frame assigned blame.
func (f *Fabric) lowestRankOf(proc int) int {
	for r, p := range f.rankProc {
		if p == proc {
			return r
		}
	}
	return -1
}

// checkRanks rejects a frame header naming a rank outside the world: the
// two index rankProc and the mailboxes, and they are the peer's word.
func (f *Fabric) checkRanks(src, dst int) error {
	if src < 0 || src >= f.world || dst < 0 || dst >= f.world {
		return fmt.Errorf("net: channel %d→%d outside the world of %d ranks", src, dst, f.world)
	}
	return nil
}

// closeFrom closes the fabric from a reader goroutine. CloseCause waits
// for the readers to exit, so it must run off theirs.
func (f *Fabric) closeFrom(cause error) {
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		f.CloseCause(ctx, cause)
	}()
}

// readLoop drains one peer connection, dispatching frames: data into the
// delivery substrate, abort into a local caused closure. A connection
// failure on a live fabric is a process death — the local world closes
// with a *RemoteAbort blaming the peer's first rank, so this process's
// ranks fail fast instead of waiting out the failure detector — and so is
// a frame of any other type, or a data frame that does not decode or names
// a rank outside the world: the peer's stream is not the protocol any
// more, and skipping the frame would leave its receiver waiting out its
// deadline. (No handshake frame follows start on a connection, so the
// data plane sees only these two types from a peer of this version.)
func (f *Fabric) readLoop(proc int, conn stdnet.Conn) {
	defer f.readers.Done()
	blame := func(format string, args ...any) {
		f.closeFrom(&engine.RemoteAbort{Rank: f.lowestRankOf(proc), Reason: fmt.Sprintf(format, args...)})
	}
	br := bufio.NewReaderSize(conn, 1<<16)
	for {
		ftype, body, err := readFrame(br, maxFrameSize)
		if err != nil {
			if !f.isClosed() {
				blame("connection to process %d lost: %v", proc, err)
			}
			return
		}
		if pc := f.peers[proc]; pc != nil {
			pc.framesRecv.Add(1)
			pc.bytesRecv.Add(int64(len(body) + 6))
		}
		f.metrics.recvFrames.Inc()
		f.metrics.recvBytes.Add(int64(len(body) + 6))
		switch ftype {
		case frameData:
			src, dst, tag, m, derr := decodeData(body)
			if derr == nil {
				derr = f.checkRanks(src, dst)
			}
			if derr != nil {
				blame("bad data frame from process %d: %v", proc, derr)
				return
			}
			if f.rankProc[dst] == f.procID {
				f.mem.Send(src, dst, tag, m)
			}
		case frameAbort:
			rank, reason, derr := decodeAbort(body)
			if derr != nil {
				rank, reason = -1, "malformed abort frame"
			}
			var cause error
			if rank >= 0 || reason != "transport closed" {
				cause = &engine.RemoteAbort{Rank: rank, Reason: reason}
			}
			f.closeFrom(cause)
			return
		default:
			blame("frame of unknown type %d from process %d", ftype, proc)
			return
		}
	}
}

// peerStats snapshots per-peer wire traffic, keyed by peer process id.
func (f *Fabric) peerStats() map[int]NetStats {
	out := make(map[int]NetStats, len(f.peers))
	for proc, pc := range f.peers {
		out[proc] = NetStats{
			FramesSent: int(pc.framesSent.Load()), FramesRecv: int(pc.framesRecv.Load()),
			BytesSent: int(pc.bytesSent.Load()), BytesRecv: int(pc.bytesRecv.Load()),
		}
	}
	return out
}

// WireStats sums peerStats across all peers — the process's total socket
// traffic.
func (f *Fabric) WireStats() NetStats {
	var total NetStats
	for _, s := range f.peerStats() {
		total.FramesSent += s.FramesSent
		total.FramesRecv += s.FramesRecv
		total.BytesSent += s.BytesSent
		total.BytesRecv += s.BytesRecv
	}
	return total
}

// peerWriter owns one connection's outbound half: an unbounded FIFO of
// frames drained by a single goroutine, so Send never blocks on the
// socket and frame order per connection matches enqueue order.
type peerWriter struct {
	conn stdnet.Conn

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []outFrame
	closing bool

	done    chan struct{}
	wrErr   error
	flushed bool
}

type outFrame struct {
	ftype byte
	body  []byte
}

func newPeerWriter(conn stdnet.Conn) *peerWriter {
	w := &peerWriter{conn: conn, done: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	go w.loop()
	return w
}

// enqueue appends one frame; a no-op once the writer saw a write error
// (the read side handles the connection loss).
func (w *peerWriter) enqueue(ftype byte, body []byte) {
	w.mu.Lock()
	w.queue = append(w.queue, outFrame{ftype, body})
	w.mu.Unlock()
	w.cond.Signal()
}

// shutdown asks the writer to exit once its queue drains.
func (w *peerWriter) shutdown() {
	w.mu.Lock()
	w.closing = true
	w.mu.Unlock()
	w.cond.Signal()
}

// wait blocks until the writer flushed and exited, or ctx expires — the
// bound that keeps a wedged peer from stalling an abort.
func (w *peerWriter) wait(ctx context.Context) error {
	select {
	case <-w.done:
		return w.wrErr
	case <-ctx.Done():
		// Force the writer out: killing the conn fails its pending write.
		w.conn.Close()
		<-w.done
		return ctx.Err()
	}
}

func (w *peerWriter) loop() {
	defer close(w.done)
	bw := bufio.NewWriterSize(w.conn, 1<<16)
	for {
		w.mu.Lock()
		for len(w.queue) == 0 && !w.closing {
			w.cond.Wait()
		}
		batch := w.queue
		w.queue = nil
		closing := w.closing
		w.mu.Unlock()
		for _, fr := range batch {
			if err := writeFrame(bw, fr.ftype, fr.body); err != nil {
				w.wrErr = err
				return
			}
		}
		if err := bw.Flush(); err != nil {
			w.wrErr = err
			return
		}
		if closing {
			w.mu.Lock()
			empty := len(w.queue) == 0
			w.mu.Unlock()
			if empty {
				return
			}
		}
	}
}
