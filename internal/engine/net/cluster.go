package net

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	stdnet "net"
	"sync"
	"time"

	"hetgrid/internal/obs"
)

// Cluster handshake. One process is the coordinator (process 0): it binds
// a listener, waits for procs-1 joiners, assigns process identities in
// arrival order, and distributes the topology — world size and process
// count (which fix the rank→process map: contiguous chunks, see RanksOf),
// every process's mesh address, and an opaque payload (the plan, in
// gridsim's multi-process mode). The connection each joiner dialed the
// coordinator on stays open as the 0↔i mesh connection; joiner pairs then
// mesh directly (higher process ids dial lower ones, a total order that
// cannot deadlock), and a ready/start barrier over the coordinator links
// releases every process into its fabric at once. All handshake traffic
// uses the same framed format as the data plane, so the version byte is
// checked on the very first frame of every connection.

// helloMsg is a joiner's first frame to the coordinator: where its own
// mesh listener accepts connections from higher-numbered joiners.
type helloMsg struct {
	Addr string `json:"addr"`
}

// topologyMsg is the coordinator's welcome: everything a joiner needs to
// mesh and run. Which process hosts which rank is not in it: both sides
// derive that from World and Procs (RanksOf), so a welcome cannot name a
// host that does not exist.
type topologyMsg struct {
	World   int      `json:"world"`
	Procs   int      `json:"procs"`
	ProcID  int      `json:"proc_id"`
	Addrs   []string `json:"addrs"` // mesh listeners; index 0 unused
	Payload []byte   `json:"payload,omitempty"`
}

// maxWorld caps the rank count of a cluster. A fabric allocates world²
// mailboxes before any rank runs, so the size a welcome announces is
// bounded like every other length read from a socket; 256 ranks is a 16×16
// grid, an order of magnitude beyond any this repository plans.
const maxWorld = 256

// validate checks a welcome read from the socket before anything is
// allocated or dialed on its word: 2 ≤ procs ≤ world ≤ maxWorld (so every
// process hosts a rank), the receiver is one of the joiners, and there is a
// dialable mesh address for each of them.
func (t *topologyMsg) validate() error {
	if t.Procs < 2 || t.World < t.Procs || t.World > maxWorld {
		return fmt.Errorf("net: malformed topology: %d processes for %d ranks (need 2 ≤ procs ≤ world ≤ %d)", t.Procs, t.World, maxWorld)
	}
	if t.ProcID < 1 || t.ProcID >= t.Procs {
		return fmt.Errorf("net: malformed topology: process id %d of %d", t.ProcID, t.Procs)
	}
	if len(t.Addrs) != t.Procs {
		return fmt.Errorf("net: malformed topology: %d mesh addresses for %d processes", len(t.Addrs), t.Procs)
	}
	for p, addr := range t.Addrs[1:] {
		if _, _, err := stdnet.SplitHostPort(addr); err != nil {
			return fmt.Errorf("net: malformed topology: mesh address of process %d: %w", p+1, err)
		}
	}
	return nil
}

// meshHelloMsg identifies the dialing process on a joiner↔joiner
// connection.
type meshHelloMsg struct {
	Proc int `json:"proc"`
}

// Coordinator is the listening side of the cluster handshake.
type Coordinator struct {
	ln stdnet.Listener
}

// NewCoordinator binds the coordinator's listener (addr like
// "127.0.0.1:7001", or ":0" for an ephemeral port — see Addr).
func NewCoordinator(addr string) (*Coordinator, error) {
	ln, err := stdnet.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("net: coordinator listen: %w", err)
	}
	return &Coordinator{ln: ln}, nil
}

// Addr returns the bound listen address joiners should dial.
func (co *Coordinator) Addr() string { return co.ln.Addr().String() }

// Close releases the listener (Establish closes it itself on success).
func (co *Coordinator) Close() error { return co.ln.Close() }

// Establish runs the coordinator's half of the handshake: accept procs-1
// joiners, assign identities, distribute the topology and payload, wait
// for the ready barrier, release everyone with start, and return this
// process's fabric (process 0, hosting RanksOf(world, procs, 0)). ctx
// bounds the whole handshake.
func (co *Coordinator) Establish(ctx context.Context, world, procs int, payload []byte, reg *obs.Registry) (*Fabric, error) {
	if procs < 1 || world < procs || world > maxWorld {
		return nil, fmt.Errorf("net: %d processes for %d ranks (need 1 ≤ procs ≤ world ≤ %d)", procs, world, maxWorld)
	}
	if procs == 1 {
		co.ln.Close()
		return newFabric(world, 0, nil, reg), nil
	}
	if tl, ok := co.ln.(*stdnet.TCPListener); ok {
		applyDeadline(ctx, tl)
	}
	conns := make(map[int]stdnet.Conn, procs-1)
	addrs := make([]string, procs)
	ok := false
	defer func() {
		if !ok {
			for _, c := range conns {
				c.Close()
			}
		}
	}()
	for i := 1; i < procs; i++ {
		conn, err := co.ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("net: accepting joiner %d/%d: %w", i, procs-1, err)
		}
		applyDeadline(ctx, conn)
		// A joiner's mesh address goes into every welcome: one validate
		// would refuse is refused here, by name, before any is written.
		var hello helloMsg
		err = readJSONFrame(conn, frameHello, &hello)
		if err == nil {
			_, _, err = stdnet.SplitHostPort(hello.Addr)
		}
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("net: hello from joiner %d: %w", i, err)
		}
		conns[i] = conn
		addrs[i] = hello.Addr
	}
	co.ln.Close()
	for i := 1; i < procs; i++ {
		topo := topologyMsg{World: world, Procs: procs, ProcID: i, Addrs: addrs, Payload: payload}
		if err := writeJSONFrame(conns[i], frameWelcome, &topo); err != nil {
			return nil, fmt.Errorf("net: welcome to process %d: %w", i, err)
		}
	}
	for i := 1; i < procs; i++ {
		if err := readJSONFrame(conns[i], frameReady, &struct{}{}); err != nil {
			return nil, fmt.Errorf("net: ready from process %d: %w", i, err)
		}
	}
	for i := 1; i < procs; i++ {
		if err := writeJSONFrame(conns[i], frameStart, &struct{}{}); err != nil {
			return nil, fmt.Errorf("net: start to process %d: %w", i, err)
		}
	}
	ok = true
	return newFabric(world, 0, conns, reg), nil
}

// Join runs a joiner's half of the handshake against a coordinator at
// coordAddr (dial retried until ctx expires, so joiners may start before
// the coordinator). It returns the process's fabric and the payload the
// coordinator distributed.
func Join(ctx context.Context, coordAddr string, reg *obs.Registry) (*Fabric, []byte, error) {
	conn, err := dialRetry(ctx, coordAddr)
	if err != nil {
		return nil, nil, fmt.Errorf("net: dialing coordinator %s: %w", coordAddr, err)
	}
	ok := false
	defer func() {
		if !ok {
			conn.Close()
		}
	}()
	applyDeadline(ctx, conn)

	// Bind the mesh listener on an ephemeral port, advertised at the host
	// this process reaches the coordinator from — the address peers on the
	// coordinator's network can dial back.
	ln, err := stdnet.Listen("tcp", ":0")
	if err != nil {
		return nil, nil, fmt.Errorf("net: mesh listen: %w", err)
	}
	defer ln.Close()
	host, _, err := stdnet.SplitHostPort(conn.LocalAddr().String())
	if err != nil {
		return nil, nil, err
	}
	_, port, err := stdnet.SplitHostPort(ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	if err := writeJSONFrame(conn, frameHello, &helloMsg{Addr: stdnet.JoinHostPort(host, port)}); err != nil {
		return nil, nil, fmt.Errorf("net: hello: %w", err)
	}
	var topo topologyMsg
	if err := readJSONFrame(conn, frameWelcome, &topo); err != nil {
		return nil, nil, fmt.Errorf("net: welcome: %w", err)
	}
	if err := topo.validate(); err != nil {
		return nil, nil, err
	}

	conns := map[int]stdnet.Conn{0: conn}
	defer func() {
		if !ok {
			for p, c := range conns {
				if p != 0 {
					c.Close()
				}
			}
		}
	}()
	// Mesh: dial every lower joiner, then accept every higher one. The
	// dial-low/accept-high order is a total order, so the mesh cannot
	// deadlock however the processes interleave.
	for p := 1; p < topo.ProcID; p++ {
		mc, err := dialRetry(ctx, topo.Addrs[p])
		if err != nil {
			return nil, nil, fmt.Errorf("net: dialing process %d at %s: %w", p, topo.Addrs[p], err)
		}
		applyDeadline(ctx, mc)
		if err := writeJSONFrame(mc, frameMeshHello, &meshHelloMsg{Proc: topo.ProcID}); err != nil {
			mc.Close()
			return nil, nil, fmt.Errorf("net: mesh hello to process %d: %w", p, err)
		}
		conns[p] = mc
	}
	if tl, ok := ln.(*stdnet.TCPListener); ok {
		applyDeadline(ctx, tl)
	}
	for n := topo.ProcID + 1; n < topo.Procs; n++ {
		mc, err := ln.Accept()
		if err != nil {
			return nil, nil, fmt.Errorf("net: accepting mesh peer: %w", err)
		}
		applyDeadline(ctx, mc)
		var mh meshHelloMsg
		if err := readJSONFrame(mc, frameMeshHello, &mh); err != nil {
			mc.Close()
			return nil, nil, fmt.Errorf("net: mesh hello: %w", err)
		}
		if mh.Proc <= topo.ProcID || mh.Proc >= topo.Procs || conns[mh.Proc] != nil {
			mc.Close()
			return nil, nil, fmt.Errorf("net: unexpected mesh peer %d", mh.Proc)
		}
		conns[mh.Proc] = mc
	}
	if err := writeJSONFrame(conn, frameReady, &struct{}{}); err != nil {
		return nil, nil, fmt.Errorf("net: ready: %w", err)
	}
	if err := readJSONFrame(conn, frameStart, &struct{}{}); err != nil {
		return nil, nil, fmt.Errorf("net: start: %w", err)
	}
	ok = true
	return newFabric(topo.World, topo.ProcID, conns, reg), topo.Payload, nil
}

// Loopback establishes a cluster of procs processes hosting world ranks
// inside this one, over real TCP sockets on the loopback interface: a
// coordinator and procs-1 joiners run their halves of the handshake
// concurrently. It returns the fabrics indexed by process id and the
// payload the joiners received. ctx bounds the handshake; on an error the
// coordinator and every fabric already established are closed.
func Loopback(ctx context.Context, world, procs int, payload []byte) ([]*Fabric, []byte, error) {
	co, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fabs := make([]*Fabric, procs)
	errs := make([]error, procs)
	var joined []byte
	var wg sync.WaitGroup
	wg.Add(procs)
	for i := range procs {
		go func() {
			defer wg.Done()
			var f *Fabric
			var pay []byte
			if i == 0 {
				f, errs[0] = co.Establish(ctx, world, procs, payload, nil)
			} else {
				f, pay, errs[i] = Join(ctx, co.Addr(), nil)
			}
			if errs[i] != nil {
				// Nobody waits for a process that failed: a joiner still
				// dialing gives up, a coordinator still accepting returns.
				cancel()
				co.Close()
				return
			}
			fabs[f.ProcID()] = f
			if i == 1 {
				joined = pay
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, f := range fabs {
			if f != nil {
				f.Close(ctx)
			}
		}
		return nil, nil, fmt.Errorf("net: loopback cluster: %w", err)
	}
	return fabs, joined, nil
}

// dialRetry dials addr until it succeeds or ctx expires, so cluster
// members can start in any order.
func dialRetry(ctx context.Context, addr string) (stdnet.Conn, error) {
	d := stdnet.Dialer{}
	for {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// applyDeadline bounds a handshake connection's reads and writes, or a
// listener's accepts, by ctx; newFabric clears a connection's deadline
// once the handshake completes.
func applyDeadline(ctx context.Context, c interface{ SetDeadline(time.Time) error }) {
	if dl, ok := ctx.Deadline(); ok {
		c.SetDeadline(dl)
	}
}

// writeJSONFrame emits one handshake frame with a JSON body, refusing one
// the reader's cap would refuse.
func writeJSONFrame(conn stdnet.Conn, ftype byte, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(body)+2 > maxHandshakeFrame {
		return fmt.Errorf("net: handshake frame of %d bytes exceeds the %d-byte cap", len(body)+2, maxHandshakeFrame)
	}
	return writeFrame(conn, ftype, body)
}

// readJSONFrame reads one handshake frame of at most maxHandshakeFrame
// bytes, requiring the expected type.
func readJSONFrame(conn stdnet.Conn, want byte, v any) error {
	ftype, body, err := readFrame(conn, maxHandshakeFrame)
	if err != nil {
		return err
	}
	if ftype != want {
		return fmt.Errorf("net: frame type %d, want %d", ftype, want)
	}
	return decodeHandshake(body, v)
}

// decodeHandshake parses a handshake frame's JSON body. A field this
// version does not define is an error, not something to skip: the peer is
// speaking another protocol, and what it meant by the field is unknown.
func decodeHandshake(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
