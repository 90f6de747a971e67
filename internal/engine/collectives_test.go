package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hetgrid/internal/distribution"
	"hetgrid/internal/leakcheck"
	"hetgrid/internal/matrix"
	"hetgrid/internal/sim"
)

// allBroadcastKinds enumerates every collective algorithm the engine
// supports — the same set the simulator models.
var allBroadcastKinds = []struct {
	name string
	kind sim.BroadcastKind
}{
	{"flat", sim.FlatBroadcast},
	{"ring", sim.RingBroadcast},
	{"segring", sim.PipelinedRingBroadcast},
	{"tree", sim.TreeBroadcast},
}

func TestBcastDeliversEveryKind(t *testing.T) {
	d, err := distribution.UniformBlockCyclic(2, 3, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	payload := matrix.NewFromSlice(4, 2, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	receivers := []int{3, 1, 4, 5}
	for _, bk := range allBroadcastKinds {
		w, err := RunOpts(6, Options{Broadcast: bk.kind}, func(c *Comm) error {
			co := NewCollectives(c, d)
			got := co.bcastIfMember("x", 2, receivers, pick(c.Rank() == 2, payload), 4)
			inSet := c.Rank() == 2
			for _, n := range receivers {
				if n == c.Rank() {
					inSet = true
				}
			}
			if !inSet {
				if got != nil {
					return fmt.Errorf("rank %d got a payload outside the set", c.Rank())
				}
				return nil
			}
			if got == nil || !got.Equal(payload) {
				return fmt.Errorf("rank %d: corrupted or missing payload", c.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", bk.name, err)
		}
		// Star, ring and tree inform each target with exactly one message;
		// the segmented ring splits the 4-row payload into 4 segments per
		// link.
		want := len(receivers)
		if bk.kind == sim.PipelinedRingBroadcast {
			want *= 4
		}
		if w.Messages() != want {
			t.Fatalf("%s: %d messages, want %d", bk.name, w.Messages(), want)
		}
	}
}

func TestBcastRootInReceiversNotDoubleSent(t *testing.T) {
	d, err := distribution.UniformBlockCyclic(2, 2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	payload := matrix.New(2, 2)
	w, err := RunOpts(4, Options{}, func(c *Comm) error {
		co := NewCollectives(c, d)
		co.bcastIfMember("x", 1, []int{0, 1, 2, 1, 0}, pick(c.Rank() == 1, payload), 2)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Messages() != 2 {
		t.Fatalf("duplicated receivers not deduplicated: %d messages", w.Messages())
	}
}

// TestAbortUnblocksCollectives is the abort-path contract: a rank that
// errors out mid-collective must unblock every peer for every broadcast
// kind — the blocked receivers are released by the transport closure, and
// Run reports the primary error, not a deadlock. The harness runs each
// kind in a goroutine with a timeout so a regression fails fast instead of
// hanging the suite, and asserts the teardown leaks no goroutines; the
// race detector (CI runs this package with -race) checks it for data
// races.
func TestAbortUnblocksCollectives(t *testing.T) {
	d, err := distribution.UniformBlockCyclic(2, 3, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	receivers := []int{1, 2, 3, 4, 5}
	for _, bk := range allBroadcastKinds {
		baseline := runtime.NumGoroutine()
		done := make(chan error, 1)
		go func() {
			_, err := RunOpts(6, Options{Broadcast: bk.kind}, func(c *Comm) error {
				if c.Rank() == 3 {
					// Dies mid-collective: peers downstream in the ring /
					// tree / star schedules block waiting for data that
					// will never come.
					return boom
				}
				co := NewCollectives(c, d)
				co.bcastIfMember("x", 0, receivers,
					pick(c.Rank() == 0, matrix.New(8, 2)), 8)
				return nil
			})
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, boom) {
				t.Fatalf("%s: want the primary error, got %v", bk.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: abort did not unblock the collective", bk.name)
		}
		leakcheck.Settle(t, baseline)
	}
}

// TestAbortUnblocksKernels exercises the same contract through a full
// kernel: a rank failing during LU releases everyone, and the teardown
// leaks no goroutines for any broadcast kind.
func TestAbortUnblocksKernels(t *testing.T) {
	d, err := distribution.UniformBlockCyclic(2, 2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("node offline")
	a := matrix.RandomWellConditioned(8, rand.New(rand.NewSource(321)))
	for _, bk := range allBroadcastKinds {
		baseline := runtime.NumGoroutine()
		done := make(chan error, 1)
		go func() {
			_, err := RunOpts(4, Options{Broadcast: bk.kind}, func(c *Comm) error {
				if c.Rank() == 2 {
					return boom
				}
				store, err := Scatter(c, d, pick(c.Rank() == 0, a), 2)
				if err != nil {
					return err
				}
				return LU(c, d, store)
			})
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, boom) {
				t.Fatalf("%s: want the primary error, got %v", bk.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: abort did not unblock the kernel", bk.name)
		}
		leakcheck.Settle(t, baseline)
	}
}
