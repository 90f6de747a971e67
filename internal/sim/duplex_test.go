package sim

import (
	"math"
	"testing"
)

func TestFullDuplexForwardWhileReceiving(t *testing.T) {
	// Half duplex: a middle node serializes its receive and forward; full
	// duplex overlaps them.
	run := func(fullDuplex bool) float64 {
		c, err := NewCluster(3, Config{ByteTime: 1, FullDuplex: fullDuplex})
		if err != nil {
			t.Fatal(err)
		}
		// Two back-to-back unit-byte messages relayed 0→1→2.
		a1 := c.Send(0, 1, 1, 0)
		c.Send(1, 2, 1, a1)
		a2 := c.Send(0, 1, 1, 0)
		done := c.Send(1, 2, 1, a2)
		return done
	}
	half := run(false)
	full := run(true)
	if full >= half {
		t.Fatalf("full duplex %v not faster than half duplex %v", full, half)
	}
}

func TestFullDuplexSegmentedRingClassicFormula(t *testing.T) {
	// With full-duplex NICs and zero latency the segmented ring reaches
	// the textbook (hops + segments − 1) · segment-time completion.
	c, err := NewCluster(3, Config{ByteTime: 1, FullDuplex: true})
	if err != nil {
		t.Fatal(err)
	}
	arr := make([]float64, 3)
	c.Broadcast(PipelinedRingBroadcast, 0, []int{1, 2}, 8, 0, arr)
	// 2 hops, 8 segments of 1 byte: (2 + 8 − 1) × 1 = 9.
	last := 0.0
	for _, a := range arr {
		last = math.Max(last, a)
	}
	if last != 9 {
		t.Fatalf("full-duplex segmented ring completion %v, want 9", last)
	}
}

func TestFullDuplexStillSerializesSends(t *testing.T) {
	// Two sends from one node still share its send channel.
	c, _ := NewCluster(3, Config{Latency: 1, FullDuplex: true})
	d1 := c.Send(0, 1, 0, 0)
	d2 := c.Send(0, 2, 0, 0)
	if d1 != 1 || d2 != 2 {
		t.Fatalf("sends %v %v, want 1 2", d1, d2)
	}
	// And two receives at one node share its receive channel.
	c2, _ := NewCluster(3, Config{Latency: 1, FullDuplex: true})
	r1 := c2.Send(0, 2, 0, 0)
	r2 := c2.Send(1, 2, 0, 0)
	if r1 != 1 || r2 != 2 {
		t.Fatalf("receives %v %v, want 1 2", r1, r2)
	}
}

func TestFullDuplexMakespanAndStats(t *testing.T) {
	c, _ := NewCluster(2, Config{Latency: 2, FullDuplex: true})
	c.Send(0, 1, 0, 0)
	if c.Makespan() != 2 {
		t.Fatalf("makespan %v", c.Makespan())
	}
	s := c.Snapshot()
	// Sender's out-channel 2, receiver's in-channel 2.
	if s.NICBusy[0] != 2 || s.NICBusy[1] != 2 {
		t.Fatalf("NIC busy %v", s.NICBusy)
	}
}

func TestFullDuplexKernelSpeedsUpMM(t *testing.T) {
	// The kernel layer benefits: same workload, full duplex never slower.
	// (Verified through the cluster API directly to keep this test local.)
	mk := func(fd bool) float64 {
		c, _ := NewCluster(4, Config{Latency: 0.1, ByteTime: 1e-4, FullDuplex: fd})
		at := 0.0
		arr := make([]float64, 4)
		for k := 0; k < 20; k++ {
			c.Broadcast(RingBroadcast, k%4, []int{0, 1, 2, 3}, 1024, at, arr)
			for _, a := range arr {
				at = math.Max(at, a)
			}
		}
		return c.Makespan()
	}
	if mk(true) > mk(false) {
		t.Fatal("full duplex slower than half duplex")
	}
}
