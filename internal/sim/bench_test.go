package sim

import "testing"

func BenchmarkSend(b *testing.B) {
	c, err := NewCluster(4, Config{Latency: 1e-4, ByteTime: 1e-8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Send(i%4, (i+1)%4, 4096, 0)
	}
}

func BenchmarkBroadcastRing(b *testing.B) {
	c, err := NewCluster(16, Config{Latency: 1e-4, ByteTime: 1e-8})
	if err != nil {
		b.Fatal(err)
	}
	recv := make([]int, 16)
	for i := range recv {
		recv[i] = i
	}
	arrival := make([]float64, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Broadcast(RingBroadcast, 0, recv, 4096, 0, arrival)
	}
}

func BenchmarkBroadcastTree(b *testing.B) {
	c, err := NewCluster(16, Config{Latency: 1e-4, ByteTime: 1e-8})
	if err != nil {
		b.Fatal(err)
	}
	recv := make([]int, 16)
	for i := range recv {
		recv[i] = i
	}
	arrival := make([]float64, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Broadcast(TreeBroadcast, 0, recv, 4096, 0, arrival)
	}
}
