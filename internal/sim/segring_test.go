package sim

import (
	"math"
	"testing"
)

func chainArrivals(t *testing.T, kind BroadcastKind, nodes int, bytes, latency, byteTime float64) []float64 {
	t.Helper()
	c, err := NewCluster(nodes, Config{Latency: latency, ByteTime: byteTime})
	if err != nil {
		t.Fatal(err)
	}
	recv := make([]int, nodes-1)
	for i := range recv {
		recv[i] = i + 1
	}
	arr := make([]float64, nodes)
	c.Broadcast(kind, 0, recv, bytes, 0, arr)
	return arr
}

func lastArrival(arr []float64) float64 {
	max := 0.0
	for _, a := range arr {
		max = math.Max(max, a)
	}
	return max
}

func TestSegmentedRingSmallCase(t *testing.T) {
	// 3-node chain, zero latency, byteTime 1, 8 bytes in 8 segments: the
	// middle node's single sequential NIC handles 16 unit transfers, so
	// completion is at 16 — exactly the plain ring's 2×8.
	arr := chainArrivals(t, SegmentedRingBroadcast, 3, 8, 0, 1)
	if got := lastArrival(arr); got != 16 {
		t.Fatalf("segmented 3-node completion %v, want 16", got)
	}
}

func TestSegmentedRingBeatsPlainRingOnLongChains(t *testing.T) {
	// 9-node chain (8 hops), large message, low latency: the pipeline
	// overlaps hops; plain ring pays the full message per hop.
	const bytes = 1 << 16
	plain := lastArrival(chainArrivals(t, RingBroadcast, 9, bytes, 1e-6, 1e-6))
	seg := lastArrival(chainArrivals(t, SegmentedRingBroadcast, 9, bytes, 1e-6, 1e-6))
	if seg >= plain {
		t.Fatalf("segmented %v not faster than plain ring %v", seg, plain)
	}
	// The gain should be substantial (≥ 1.5× on 8 hops with 8 segments).
	if plain/seg < 1.5 {
		t.Fatalf("segmented gain only %.2fx", plain/seg)
	}
}

func TestSegmentedRingLatencyPenaltyOnSingleHop(t *testing.T) {
	// One hop: segmenting pays the per-message latency S times with no
	// pipelining to win back.
	plain := lastArrival(chainArrivals(t, RingBroadcast, 2, 1024, 1, 1e-6))
	seg := lastArrival(chainArrivals(t, SegmentedRingBroadcast, 2, 1024, 1, 1e-6))
	if seg <= plain {
		t.Fatalf("segmented single hop %v should be slower than plain %v", seg, plain)
	}
}

func TestSegmentedRingDeliversEveryone(t *testing.T) {
	arr := chainArrivals(t, SegmentedRingBroadcast, 5, 4096, 1e-4, 1e-7)
	if len(arr) != 5 {
		t.Fatalf("%d arrivals, want 5", len(arr))
	}
	// Arrivals increase along the chain.
	for i := 1; i < 4; i++ {
		if arr[i+1] <= arr[i] {
			t.Fatalf("chain arrivals not increasing: %v", arr)
		}
	}
	if arr[0] != 0 {
		t.Fatalf("root arrival %v", arr[0])
	}
}

func TestSegmentedRingConservesBytes(t *testing.T) {
	c, _ := NewCluster(4, Config{ByteTime: 1e-6})
	c.Broadcast(SegmentedRingBroadcast, 0, []int{1, 2, 3}, 800, 0, make([]float64, 4))
	s := c.Snapshot()
	// 3 hops × 800 bytes regardless of segmentation.
	if math.Abs(s.Bytes-2400) > 1e-9 {
		t.Fatalf("bytes %v, want 2400", s.Bytes)
	}
	if s.Messages != 3*BroadcastSegments {
		t.Fatalf("messages %d, want %d", s.Messages, 3*BroadcastSegments)
	}
}

func TestSimulateMMWithSegmentedRing(t *testing.T) {
	// The kernel layer accepts the new kind and stays deterministic.
	cfg := Config{Latency: 1e-4, ByteTime: 1e-7}
	c1, _ := NewCluster(4, cfg)
	a1, a2 := make([]float64, 4), make([]float64, 4)
	c1.Broadcast(SegmentedRingBroadcast, 0, []int{1, 2, 3}, 4096, 0, a1)
	c2, _ := NewCluster(4, cfg)
	c2.Broadcast(SegmentedRingBroadcast, 0, []int{1, 2, 3}, 4096, 0, a2)
	for n := range a1 {
		if a1[n] != a2[n] {
			t.Fatal("segmented ring not deterministic")
		}
	}
}
