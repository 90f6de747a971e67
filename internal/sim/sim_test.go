package sim

import (
	"math"
	"reflect"
	"testing"
)

func TestTimelineReserve(t *testing.T) {
	var tl Timeline
	s, e := tl.reserve(5, 3)
	if s != 5 || e != 8 {
		t.Fatalf("first reserve [%v,%v], want [5,8]", s, e)
	}
	// Earlier-ready work still queues behind.
	s, e = tl.reserve(2, 4)
	if s != 8 || e != 12 {
		t.Fatalf("second reserve [%v,%v], want [8,12]", s, e)
	}
	if tl.busy != 7 {
		t.Fatalf("busy %v, want 7", tl.busy)
	}
	if tl.freeAt != 12 {
		t.Fatalf("freeAt %v, want 12", tl.freeAt)
	}
}

func TestTimelineNegativeDurPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var tl Timeline
	tl.reserve(0, -1)
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Latency: -1}).Validate(); err == nil {
		t.Fatal("negative latency accepted")
	}
	if err := (Config{ByteTime: -1}).Validate(); err == nil {
		t.Fatal("negative byte time accepted")
	}
	if err := (Config{Latency: 1e-4, ByteTime: 1e-8}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(0, Config{}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := NewCluster(2, Config{Latency: -1}); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestComputeSerializesPerNode(t *testing.T) {
	c, _ := NewCluster(2, Config{})
	if end := c.Compute(0, 0, 5); end != 5 {
		t.Fatalf("first compute end %v", end)
	}
	if end := c.Compute(0, 0, 5); end != 10 {
		t.Fatalf("second compute end %v (must serialize)", end)
	}
	// Other node is independent.
	if end := c.Compute(1, 0, 2); end != 2 {
		t.Fatalf("other node end %v", end)
	}
	if c.Makespan() != 10 {
		t.Fatalf("makespan %v", c.Makespan())
	}
}

func TestSendCost(t *testing.T) {
	cfg := Config{Latency: 1, ByteTime: 0.5}
	c, _ := NewCluster(3, cfg)
	done := c.Send(0, 1, 4, 0)
	if done != 3 { // 1 + 4*0.5
		t.Fatalf("send done %v, want 3", done)
	}
	// Self-send is free.
	if d := c.Send(2, 2, 100, 7); d != 7 {
		t.Fatalf("self-send %v, want 7", d)
	}
	s := c.Snapshot()
	if s.Messages != 1 || s.Bytes != 4 {
		t.Fatalf("stats %+v", s)
	}
}

func TestSendNICSerialization(t *testing.T) {
	cfg := Config{Latency: 1}
	c, _ := NewCluster(3, cfg)
	// Two sends from the same source serialize on its NIC.
	d1 := c.Send(0, 1, 0, 0)
	d2 := c.Send(0, 2, 0, 0)
	if d1 != 1 || d2 != 2 {
		t.Fatalf("sequential sends %v %v, want 1 2", d1, d2)
	}
	// Receiving NIC also serializes.
	c2, _ := NewCluster(3, cfg)
	c2.Send(0, 2, 0, 0)
	d := c2.Send(1, 2, 0, 0)
	if d != 2 {
		t.Fatalf("converging sends done %v, want 2", d)
	}
}

func TestSwitchedParallelism(t *testing.T) {
	cfg := Config{Latency: 1}
	c, _ := NewCluster(4, cfg)
	d1 := c.Send(0, 1, 0, 0)
	d2 := c.Send(2, 3, 0, 0)
	if d1 != 1 || d2 != 1 {
		t.Fatalf("disjoint switched transfers %v %v, want both 1", d1, d2)
	}
}

func TestSharedBusSerializesEverything(t *testing.T) {
	cfg := Config{Latency: 1, SharedBus: true}
	c, _ := NewCluster(4, cfg)
	d1 := c.Send(0, 1, 0, 0)
	d2 := c.Send(2, 3, 0, 0)
	if d1 != 1 || d2 != 2 {
		t.Fatalf("bus transfers %v %v, want 1 2", d1, d2)
	}
	s := c.Snapshot()
	if s.BusBusy != 2 {
		t.Fatalf("bus busy %v, want 2", s.BusBusy)
	}
}

func TestStarBroadcast(t *testing.T) {
	cfg := Config{Latency: 1}
	c, _ := NewCluster(4, cfg)
	arr := make([]float64, 4)
	c.Broadcast(FlatBroadcast, 0, []int{1, 2, 3}, 0, 0, arr)
	// Root NIC serializes: arrivals 1, 2, 3.
	if arr[1] != 1 || arr[2] != 2 || arr[3] != 3 {
		t.Fatalf("star arrivals %v", arr)
	}
	if arr[0] != 0 {
		t.Fatalf("root arrival %v, want 0 (ready)", arr[0])
	}
}

func TestRingBroadcast(t *testing.T) {
	cfg := Config{Latency: 1}
	c, _ := NewCluster(4, cfg)
	arr := make([]float64, 4)
	c.Broadcast(RingBroadcast, 0, []int{1, 2, 3}, 0, 0, arr)
	// Store-and-forward chain: 1, 2, 3.
	if arr[1] != 1 || arr[2] != 2 || arr[3] != 3 {
		t.Fatalf("ring arrivals %v", arr)
	}
}

func TestTreeBroadcastLogRounds(t *testing.T) {
	cfg := Config{Latency: 1}
	c, _ := NewCluster(8, cfg)
	arr := make([]float64, 8)
	c.Broadcast(TreeBroadcast, 0, []int{1, 2, 3, 4, 5, 6, 7}, 0, 0, arr)
	// Binomial tree over 8 nodes completes in 3 rounds on a switched net.
	max := 0.0
	for _, a := range arr {
		max = math.Max(max, a)
	}
	if max != 3 {
		t.Fatalf("tree completion %v, want 3 (log2 8)", max)
	}
}

func TestBroadcastDeduplicatesAndSkipsRoot(t *testing.T) {
	cfg := Config{Latency: 1}
	c, _ := NewCluster(5, cfg)
	// Stale values in every slot: each one must be overwritten.
	arr := []float64{-1, -1, -1, -1, -1}
	c.Broadcast(FlatBroadcast, 0, []int{1, 1, 0, 2}, 0, 5, arr)
	if arr[1] != 6 || arr[2] != 7 {
		t.Fatalf("arrivals %v", arr)
	}
	// The root and the non-receivers 3 and 4 read ready.
	if arr[0] != 5 || arr[3] != 5 || arr[4] != 5 {
		t.Fatalf("root and non-receiver arrivals %v, want ready 5", arr)
	}
	s := c.Snapshot()
	if s.Messages != 2 {
		t.Fatalf("messages %d, want 2 (dedup + no self-send)", s.Messages)
	}
}

// TestBroadcastEdges pins the one "who forwards to whom" derivation the
// simulator prices and the engine executes: the root and repeats dropped,
// edges in delivery order, the tree in binomial rounds (root→5; root→1,
// 5→3; root→4, 5→2, 1→6 — the last round cut short).
func TestBroadcastEdges(t *testing.T) {
	recv := []int{5, 1, 7, 5, 3, 4, 2, 6}
	chain := []Edge{{7, 5}, {5, 1}, {1, 3}, {3, 4}, {4, 2}, {2, 6}}
	for _, tc := range []struct {
		kind BroadcastKind
		want []Edge
	}{
		{FlatBroadcast, []Edge{{7, 5}, {7, 1}, {7, 3}, {7, 4}, {7, 2}, {7, 6}}},
		{RingBroadcast, chain},
		{PipelinedRingBroadcast, chain},
		{TreeBroadcast, []Edge{{7, 5}, {7, 1}, {5, 3}, {7, 4}, {5, 2}, {1, 6}}},
	} {
		if got := BroadcastEdges(tc.kind, 7, recv); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("kind %d: edges %v, want %v", tc.kind, got, tc.want)
		}
	}
	if got := BroadcastEdges(TreeBroadcast, 0, []int{0, 0}); len(got) != 0 {
		t.Errorf("root-only broadcast has edges %v", got)
	}
}

func TestSnapshotCompBound(t *testing.T) {
	c, _ := NewCluster(2, Config{})
	c.Compute(0, 0, 4)
	c.Compute(1, 0, 9)
	s := c.Snapshot()
	if s.CompBound != 9 {
		t.Fatalf("comp bound %v, want 9", s.CompBound)
	}
	if s.NodeBusy[0] != 4 || s.NodeBusy[1] != 9 {
		t.Fatalf("node busy %v", s.NodeBusy)
	}
	if s.Makespan != 9 {
		t.Fatalf("makespan %v", s.Makespan)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Stats {
		c, _ := NewCluster(4, Config{Latency: 1e-4, ByteTime: 1e-8, SharedBus: true})
		arr := make([]float64, 4)
		for k := 0; k < 10; k++ {
			c.Broadcast(RingBroadcast, k%4, []int{0, 1, 2, 3}, 4096, float64(k)*1e-3, arr)
			c.Compute(k%4, float64(k)*1e-3, 5e-4)
		}
		return c.Snapshot()
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.Messages != b.Messages || a.Bytes != b.Bytes {
		t.Fatalf("nondeterministic simulation: %+v vs %+v", a, b)
	}
}

func TestComputeCommOverlap(t *testing.T) {
	// CPU and NIC are separate resources: communication does not block
	// computation on the same node.
	cfg := Config{Latency: 5}
	c, _ := NewCluster(2, cfg)
	sendDone := c.Send(0, 1, 0, 0)
	compDone := c.Compute(0, 0, 3)
	if sendDone != 5 || compDone != 3 {
		t.Fatalf("no overlap: send %v comp %v", sendDone, compDone)
	}
}

func TestPanicsOnBadNode(t *testing.T) {
	c, _ := NewCluster(2, Config{})
	for _, f := range []func(){
		func() { c.Compute(2, 0, 1) },
		func() { c.Send(0, 5, 1, 0) },
		func() { c.Send(-1, 0, 1, 0) },
		func() { c.Send(0, 1, -4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}
