package net

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"hetgrid/internal/engine"
	"hetgrid/internal/leakcheck"
	"hetgrid/internal/matrix"
)

// StartCluster is Loopback for a test: it fails t on a handshake error and
// closes the fabrics at cleanup. It is exported to the external test
// package.
func StartCluster(t testing.TB, world, procs int, payload []byte) ([]*Fabric, []byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	fabs, joined, err := Loopback(ctx, world, procs, payload)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, f := range fabs {
			f.Close(ctx)
		}
	})
	return fabs, joined
}

func TestRanksOfPartition(t *testing.T) {
	for _, tc := range []struct{ world, procs int }{{6, 3}, {5, 3}, {7, 2}, {4, 4}, {9, 1}} {
		seen := make([]bool, tc.world)
		prevHi := 0
		for p := 0; p < tc.procs; p++ {
			ranks := RanksOf(tc.world, tc.procs, p)
			if len(ranks) == 0 {
				t.Fatalf("RanksOf(%d,%d,%d) empty", tc.world, tc.procs, p)
			}
			for i, r := range ranks {
				if i > 0 && r != ranks[i-1]+1 {
					t.Fatalf("RanksOf(%d,%d,%d) not contiguous: %v", tc.world, tc.procs, p, ranks)
				}
				if seen[r] {
					t.Fatalf("rank %d assigned twice", r)
				}
				seen[r] = true
			}
			if ranks[0] != prevHi {
				t.Fatalf("chunk %d starts at %d, want %d", p, ranks[0], prevHi)
			}
			prevHi = ranks[len(ranks)-1] + 1
		}
		if prevHi != tc.world {
			t.Fatalf("partition covers %d ranks of %d", prevHi, tc.world)
		}
	}
}

func TestClusterLoopbackSendRecv(t *testing.T) {
	fabs, payload := StartCluster(t, 6, 3, []byte("plan-blob"))
	if string(payload) != "plan-blob" {
		t.Fatalf("joiner payload %q, want the coordinator's blob", payload)
	}
	for p, f := range fabs {
		want := RanksOf(6, 3, p)
		got := f.LocalRanks()
		if len(got) != len(want) {
			t.Fatalf("process %d hosts %v, want %v", p, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("process %d hosts %v, want %v", p, got, want)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Remote delivery both directions, FIFO per channel, bit-identical.
	msgs := []*matrix.Dense{
		matrix.NewFromSlice(1, 2, []float64{1.5, -2}),
		matrix.NewFromSlice(1, 2, []float64{3, 4.25}),
		matrix.NewFromSlice(1, 2, []float64{-0.5, 6}),
	}
	for _, m := range msgs {
		fabs[0].Send(0, 4, "fwd", m)
	}
	for i, want := range msgs {
		got, err := fabs[2].Recv(ctx, 0, 4, "fwd")
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("message %d corrupted or reordered over TCP", i)
		}
	}
	fabs[2].Send(5, 1, "back", msgs[0])
	if got, err := fabs[0].Recv(ctx, 5, 1, "back"); err != nil || !got.Equal(msgs[0]) {
		t.Fatalf("reverse direction: %v", err)
	}

	// Local delivery stays in-process.
	fabs[1].Send(2, 3, "local", msgs[1])
	if got, err := fabs[1].Recv(ctx, 2, 3, "local"); err != nil || !got.Equal(msgs[1]) {
		t.Fatalf("local channel: %v", err)
	}

	// The wire counters saw the remote frames (and nothing counts the
	// local delivery).
	if s := fabs[0].WireStats(); s.FramesSent < 3 || s.BytesSent == 0 {
		t.Fatalf("process 0 wire stats %+v after 3 remote sends", s)
	}
	if s := fabs[2].peerStats()[0]; s.FramesRecv < 3 || s.BytesRecv == 0 {
		t.Fatalf("process 2 peer-0 stats %+v after 3 remote receives", s)
	}
}

func TestAbortPropagatesAcrossProcesses(t *testing.T) {
	fabs, _ := StartCluster(t, 4, 2, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	type recvRes struct {
		m   *matrix.Dense
		err error
	}
	done := make(chan recvRes, 1)
	go func() {
		m, err := fabs[1].Recv(ctx, 0, 2, "never")
		done <- recvRes{m, err}
	}()

	cause := &engine.RemoteAbort{Rank: 1, Reason: "crashed at step 2"}
	if err := fabs[0].CloseCause(ctx, cause); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-done:
		if res.m != nil {
			t.Fatal("aborted Recv produced a payload")
		}
		var ra *engine.RemoteAbort
		if !errors.As(res.err, &ra) {
			t.Fatalf("want *RemoteAbort, got %v", res.err)
		}
		if ra.Rank != 1 || !strings.Contains(ra.Reason, "crashed") {
			t.Fatalf("abort frame lost its blame: %+v", ra)
		}
		if !errors.Is(res.err, engine.ErrClosed) {
			t.Fatal("RemoteAbort does not unwrap to ErrClosed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("remote Recv still blocked after the peer closed")
	}
}

func TestConnLossBlamesPeerProcess(t *testing.T) {
	fabs, _ := StartCluster(t, 4, 2, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	done := make(chan error, 1)
	go func() {
		_, err := fabs[1].Recv(ctx, 0, 2, "never")
		done <- err
	}()
	// Kill process 0's socket abruptly — no abort frame, as if the process
	// was SIGKILLed.
	fabs[0].writers[1].conn.Close()

	select {
	case err := <-done:
		var ra *engine.RemoteAbort
		if !errors.As(err, &ra) {
			t.Fatalf("want *RemoteAbort after connection loss, got %v", err)
		}
		// Blame lands on process 0's lowest rank.
		if ra.Rank != 0 || !strings.Contains(ra.Reason, "connection to process 0 lost") {
			t.Fatalf("wrong blame for a lost connection: %+v", ra)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv still blocked after the peer connection died")
	}
}

func TestSingleProcessCluster(t *testing.T) {
	co, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	f, err := co.Establish(ctx, 4, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(ctx)
	if got := f.LocalRanks(); len(got) != 4 {
		t.Fatalf("degenerate cluster hosts %v, want all 4 ranks", got)
	}
	m := matrix.NewFromSlice(1, 1, []float64{9})
	f.Send(1, 3, "t", m)
	if got, err := f.Recv(ctx, 1, 3, "t"); err != nil || !got.Equal(m) {
		t.Fatalf("single-process delivery: %v", err)
	}
	if s := f.WireStats(); s.FramesSent != 0 {
		t.Fatalf("single process sent %d frames to nobody", s.FramesSent)
	}
}

func TestEstablishValidatesShape(t *testing.T) {
	for _, tc := range []struct{ world, procs int }{{4, 0}, {2, 3}} {
		co, err := NewCoordinator("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		if _, err := co.Establish(ctx, tc.world, tc.procs, nil, nil); err == nil {
			t.Fatalf("Establish(%d ranks, %d procs) accepted", tc.world, tc.procs)
		}
		cancel()
		co.Close()
	}
}

// TestLoopbackFailureReleasesEverything: a handshake that fails (here the
// coordinator refuses 3 processes for 2 ranks) returns its error without
// waiting for ctx to expire, and leaves no dialer or socket reader behind.
func TestLoopbackFailureReleasesEverything(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	start := time.Now()
	if _, _, err := Loopback(ctx, 2, 3, nil); err == nil {
		t.Fatal("3 processes for 2 ranks accepted")
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("the failed handshake took %v", el)
	}
	leakcheck.Settle(t, baseline)
}
