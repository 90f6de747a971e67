package onedim

import (
	"math/rand"
	"testing"
)

// BenchmarkAllocate times the greedy allocation of 256 blocks over 16
// processors.
func BenchmarkAllocate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	times := make([]float64, 16)
	for i := range times {
		times[i] = 0.1 + rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sequence(256, times); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequence(b *testing.B) {
	times := []float64{3.0 / 20.0, 5.0 / 17.0}
	for i := 0; i < b.N; i++ {
		if _, err := Sequence(64, times); err != nil {
			b.Fatal(err)
		}
	}
}
