package net

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	stdnet "net"
	"os"
	"strings"
	"testing"
	"time"

	"hetgrid/internal/engine"
	"hetgrid/internal/matrix"
)

// The seed corpora are in testdata/fuzz/<target> (FuzzDecodeTopology's is
// the hostileWelcomes table) and run in tier-1. The one to keep is
// FuzzDecodeData/seed-dims-overflow: 21 bytes claiming a 2³¹×2³⁰ payload,
// whose byte count wraps to the 0 bytes that are there.

// FuzzDecodeData throws arbitrary bodies at the data-frame decoder: it
// must never panic (a hostile header must not reach matrix.New), and a
// body it accepts is exactly what encodeData writes for the result.
func FuzzDecodeData(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		src, dst, tag, m, err := decodeData(body) // must not panic
		if err != nil {
			return
		}
		if again := encodeData(src, dst, tag, m); !bytes.Equal(again, body) {
			t.Fatalf("accepted body is not canonical:\n got %x\nwant %x", again, body)
		}
	})
}

// FuzzReadFrame throws arbitrary streams at the frame reader under a small
// limit: it must never panic; a length prefix over the limit is an error
// raised on the header alone (nothing after it is read, so nothing was
// allocated for it); an accepted frame's body is within the limit and
// writeFrame reproduces the bytes consumed.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte, limit16 uint16) {
		limit := uint32(limit16) // ≤ 64 KiB: the fuzzer may not allocate more per frame
		r := bytes.NewReader(stream)
		ftype, body, err := readFrame(r, limit) // must not panic
		if len(stream) >= 6 {
			if n := binary.BigEndian.Uint32(stream); n > limit && (err == nil || r.Len() != len(stream)-6) {
				t.Fatalf("length prefix %d over the limit %d: err = %v with %d of %d bytes consumed, want an error on the header alone",
					n, limit, err, len(stream)-r.Len(), len(stream))
			}
		}
		if err != nil {
			return
		}
		if uint32(len(body))+2 > limit {
			t.Fatalf("accepted a %d-byte body under the limit %d", len(body), limit)
		}
		var again bytes.Buffer
		if err := writeFrame(&again, ftype, body); err != nil {
			t.Fatal(err)
		}
		if consumed := stream[:len(stream)-r.Len()]; !bytes.Equal(again.Bytes(), consumed) {
			t.Fatalf("accepted frame is not canonical:\n got %x\nwant %x", again.Bytes(), consumed)
		}
	})
}

// FuzzDecodeAbort throws arbitrary bodies at the abort decoder: it must
// never panic, and a body it accepts is exactly what encodeAbort writes for
// the result.
func FuzzDecodeAbort(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		if rank, reason, err := decodeAbort(body); err == nil {
			if again := encodeAbort(rank, reason); !bytes.Equal(again, body) {
				t.Fatalf("abort body is not canonical:\n got %x\nwant %x", again, body)
			}
		}
	})
}

// hostileWelcomes are welcome bodies a joiner must refuse: each is inside
// the handshake frame cap and well-formed JSON.
var hostileWelcomes = map[string]string{
	// The welcome's form before the rank map was derived: the parent's Join
	// accepted this one, and its fabric then found no writer for "process
	// 7" and silently dropped every message addressed to rank 1.
	"old form, rank hosted by no process": `{"world":2,"procs":2,"proc_id":1,"addrs":["","127.0.0.1:1"],"rank_proc":[0,7]}`,
	// world² mailboxes: 4·10¹⁰ of them.
	"huge world":            `{"world":200000,"procs":2,"proc_id":1,"addrs":["","127.0.0.1:1"]}`,
	"more procs than ranks": `{"world":2,"procs":3,"proc_id":1,"addrs":["","127.0.0.1:1","127.0.0.1:2"]}`,
	"not a joiner's id":     `{"world":4,"procs":2,"proc_id":0,"addrs":["","127.0.0.1:1"]}`,
	"ragged addrs":          `{"world":4,"procs":3,"proc_id":2,"addrs":["","127.0.0.1:1"]}`,
	"undialable addr":       `{"world":4,"procs":3,"proc_id":2,"addrs":["","no port","127.0.0.1:2"]}`,
}

// FuzzDecodeTopology throws arbitrary bodies at the welcome decoder: it must
// never panic, and a welcome that validates has the sizes a joiner goes on
// to allocate and index by — a bounded world, an id among the joiners, a
// dialable address per joiner — and yields a rank map in which every
// process hosts at least one rank and no rank has a host outside the
// cluster.
func FuzzDecodeTopology(f *testing.F) {
	f.Add([]byte(`{"world":6,"procs":3,"proc_id":2,"addrs":["","10.0.0.1:7002","10.0.0.2:7003"],"payload":"cGxhbg=="}`))
	for _, body := range hostileWelcomes {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var topo topologyMsg
		if decodeHandshake(body, &topo) != nil || topo.validate() != nil { // must not panic
			return
		}
		if topo.Procs > topo.World || topo.World > maxWorld {
			t.Fatalf("accepted %d processes for %d ranks", topo.Procs, topo.World)
		}
		if topo.ProcID < 1 || topo.ProcID >= topo.Procs {
			t.Fatalf("accepted process id %d of %d", topo.ProcID, topo.Procs)
		}
		if len(topo.Addrs) != topo.Procs {
			t.Fatalf("accepted %d addresses for %d processes", len(topo.Addrs), topo.Procs)
		}
		for _, addr := range topo.Addrs[1:] {
			if _, _, err := stdnet.SplitHostPort(addr); err != nil {
				t.Fatalf("accepted mesh address %q: %v", addr, err)
			}
		}
		hosted := make([]int, topo.Procs)
		for _, p := range rankProcs(topo.World, topo.Procs) {
			hosted[p]++ // an index out of range here is a rank with no host
		}
		for p, n := range hosted {
			if n == 0 {
				t.Fatalf("process %d of %d hosts none of %d ranks", p, topo.Procs, topo.World)
			}
		}
	})
}

// TestJoinRefusesHostileWelcome plays a coordinator that answers a joiner's
// hello with each hostile welcome and then says nothing more: Join must
// return an error on the welcome's content — not mesh, allocate a fabric
// and wait out its deadline for a start.
func TestJoinRefusesHostileWelcome(t *testing.T) {
	for name, welcome := range hostileWelcomes {
		ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			if readJSONFrame(conn, frameHello, &helloMsg{}) == nil && writeFrame(conn, frameWelcome, []byte(welcome)) == nil {
				io.Copy(io.Discard, conn) // until the joiner hangs up
			}
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		fab, _, err := Join(ctx, ln.Addr().String(), nil)
		if err == nil {
			fab.Close(ctx)
			t.Errorf("%s: Join accepted the welcome", name)
		} else if errors.Is(err, os.ErrDeadlineExceeded) || ctx.Err() != nil {
			t.Errorf("%s: Join sat out its deadline instead of refusing the welcome: %v", name, err)
		}
		cancel()
		ln.Close()
	}
}

// TestReaderBlamesPeerForOutOfRangeRank feeds a fabric's reader, over
// net.Pipe, a well-formed data frame naming a rank outside the world, or a
// frame of a type the data plane does not carry. The first indexed rankProc
// unchecked and panicked the reader goroutine; the second was skipped, and
// the Recv waited out its deadline. Now the fabric closes as it does on a
// lost connection, with a *RemoteAbort blaming the peer's first rank.
func TestReaderBlamesPeerForOutOfRangeRank(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ftype byte
		body  []byte
	}{
		{"data dst", frameData, encodeData(1, 7, "x", matrix.New(1, 1))},
		{"data src", frameData, encodeData(1<<31, 0, "x", matrix.New(1, 1))},
		// Version 1's retransmission request for channel 1→0, tag "x".
		{"unknown type", 3, []byte{0, 0, 0, 1, 0, 0, 0, 0, 'x'}},
	} {
		local, peer := stdnet.Pipe()
		// Process 0 hosts rank 0, the peer (process 1) rank 1.
		f := newFabric(2, 0, map[int]stdnet.Conn{1: local}, nil)
		go io.Copy(io.Discard, peer) // the closing fabric's abort frame
		if err := writeFrame(peer, tc.ftype, tc.body); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err := f.Recv(ctx, 1, 0, "never sent")
		cancel()
		var ra *engine.RemoteAbort
		if !errors.As(err, &ra) || ra.Rank != 1 {
			t.Fatalf("%s: Recv error %v, want a *RemoteAbort blaming rank 1", tc.name, err)
		}
		peer.Close()
	}
}

// TestOversizedHelloRefusedOnItsHeader: anyone can dial the coordinator, so
// a hello may claim no more than maxHandshakeFrame. The dialer sends the
// header of a larger one and then nothing: a reader that allocated the body
// and waited for it would sit out the handshake deadline.
func TestOversizedHelloRefusedOnItsHeader(t *testing.T) {
	co, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	conn, err := stdnet.Dial("tcp", co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hdr := []byte{0, 0, 0, 0, frameVersion, frameHello}
	binary.BigEndian.PutUint32(hdr, maxHandshakeFrame+1)
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := co.Establish(ctx, 2, 2, nil, nil); err == nil || !strings.Contains(err.Error(), "frame length") {
		t.Fatalf("Establish = %v, want the hello refused for its length", err)
	}
}

// TestMalformedHelloAddrBlamesItsJoiner: a hello whose mesh address cannot
// be dialed is refused where it arrives, naming its joiner, before any
// welcome is written. Forwarded, it made every honest joiner refuse its
// welcome as a malformed topology, while the coordinator waited out the
// handshake for the bad joiner's ready.
func TestMalformedHelloAddrBlamesItsJoiner(t *testing.T) {
	co, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	raw, err := stdnet.Dial("tcp", co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := writeFrame(raw, frameHello, []byte(`{"addr":"no-port"}`)); err != nil {
		t.Fatal(err)
	}
	joined := make(chan error, 1)
	go func() {
		// The honest joiner waits for a welcome that must not come; its
		// deadline ends the wait.
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		defer cancel()
		fab, _, err := Join(ctx, co.Addr(), nil)
		if err == nil {
			fab.Close(ctx)
		}
		joined <- err
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = co.Establish(ctx, 3, 3, nil, nil)
	if err == nil || ctx.Err() != nil || !strings.Contains(err.Error(), "joiner 1") || !strings.Contains(err.Error(), "no-port") {
		t.Errorf("Establish = %v, want joiner 1's hello refused at once for its address no-port", err)
	}
	if err := <-joined; err == nil || strings.Contains(err.Error(), "malformed topology") {
		t.Errorf("honest Join = %v, want it to get no welcome", err)
	}
}
