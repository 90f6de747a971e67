package engine

import (
	"fmt"
	"sync/atomic"
	"testing"

	"hetgrid/internal/matrix"
)

func TestRunAllRanksExecute(t *testing.T) {
	var count atomic.Int64
	w, err := RunOpts(8, Options{}, func(c *Comm) error {
		count.Add(1)
		if c.N() != 8 {
			return fmt.Errorf("N = %d", c.N())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 8 {
		t.Fatalf("%d ranks ran", count.Load())
	}
	if w.Messages() != 0 || w.Bytes() != 0 {
		t.Fatal("traffic counted without sends")
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	_, err := RunOpts(3, Options{}, func(c *Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("error not propagated")
	}
}

func TestRunRecoversPanics(t *testing.T) {
	_, err := RunOpts(2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic not converted to error")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := RunOpts(0, Options{}, func(*Comm) error { return nil }); err == nil {
		t.Fatal("zero ranks accepted")
	}
}

// TestSendRecvRoundTrip pins Send's hand-over: on the in-process fabric the
// receiver gets the sender's buffer itself, not a copy, and the message is
// counted once with its bytes.
func TestSendRecvRoundTrip(t *testing.T) {
	payload := matrix.NewFromSlice(2, 2, []float64{1, 2, 3, 4})
	w, err := RunOpts(2, Options{}, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			c.Send(1, "data", payload)
		case 1:
			if got := c.Recv(0, "data"); got != payload {
				return fmt.Errorf("received %v, not the sent buffer", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Messages() != 1 || w.Bytes() != 32 {
		t.Fatalf("traffic: %d msgs %d bytes", w.Messages(), w.Bytes())
	}
}

func TestRecvSelectsByTag(t *testing.T) {
	_, err := RunOpts(2, Options{}, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			c.Send(1, "first", matrix.NewFromSlice(1, 1, []float64{1}))
			c.Send(1, "second", matrix.NewFromSlice(1, 1, []float64{2}))
		case 1:
			// Receive out of order: tags, not FIFO, select messages.
			second := c.Recv(0, "second")
			first := c.Recv(0, "first")
			if second.At(0, 0) != 2 || first.At(0, 0) != 1 {
				return fmt.Errorf("tag selection wrong: %v %v", first, second)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSendIsLocal(t *testing.T) {
	w, err := RunOpts(1, Options{}, func(c *Comm) error {
		c.Send(0, "loop", matrix.New(4, 4))
		got := c.Recv(0, "loop")
		if got == nil {
			return fmt.Errorf("self message lost")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Messages() != 0 {
		t.Fatal("self-send counted as traffic")
	}
}

func TestSendToBadRankPanics(t *testing.T) {
	_, err := RunOpts(1, Options{}, func(c *Comm) error {
		c.Send(5, "x", matrix.New(1, 1))
		return nil
	})
	if err == nil {
		t.Fatal("bad destination not reported")
	}
}

func TestManyToOneStress(t *testing.T) {
	// 15 senders flood rank 0 with interleaved tags; everything must
	// arrive exactly once.
	const senders = 15
	const per = 20
	_, err := RunOpts(senders+1, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			sum := 0.0
			for src := 1; src <= senders; src++ {
				for i := 0; i < per; i++ {
					m := c.Recv(src, fmt.Sprintf("t%d", i))
					sum += m.At(0, 0)
				}
			}
			want := float64(senders * per * (senders + 1) / 2 * 2 / (senders + 1)) // Σ src × per
			_ = want
			expect := 0.0
			for src := 1; src <= senders; src++ {
				expect += float64(src * per)
			}
			if sum != expect {
				return fmt.Errorf("sum %v, want %v", sum, expect)
			}
			return nil
		}
		for i := 0; i < per; i++ {
			c.Send(0, fmt.Sprintf("t%d", i), matrix.NewFromSlice(1, 1, []float64{float64(c.Rank())}))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
