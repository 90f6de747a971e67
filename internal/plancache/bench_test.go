package plancache

import (
	"fmt"
	"math/rand"
	"testing"

	"hetgrid/internal/plan"
)

// BenchmarkGetParallel pins the cache's concurrent hot path so cache
// changes have a baseline: a hit/miss/shared mix, b.RunParallel across
// GOMAXPROCS goroutines. "hit" is a resident hot set, "miss" draws fresh
// keys every call, and "mixed" is 90% hot / 10% fresh — roughly the
// service's steady state.
func BenchmarkGetParallel(b *testing.B) {
	mixes := []struct {
		name string
		hot  float64 // probability of drawing from the resident hot set
	}{
		{"hit", 1.0},
		{"miss", 0.0},
		{"mixed90", 0.9},
	}
	for _, mix := range mixes {
		b.Run(mix.name, func(b *testing.B) {
			c := New(Config{MaxEntries: 1 << 12, Shards: 16})
			const hotKeys = 256
			hot := make([]string, hotKeys)
			for i := range hot {
				hot[i] = fmt.Sprintf("hot-%d", i)
				c.GetOrCompute(hot[i], func() (*plan.Plan, error) { return planFor(i), nil })
			}
			val := planFor(1)
			load := func() (*plan.Plan, error) { return val, nil }
			var seq int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(rand.Int63()))
				for pb.Next() {
					if rng.Float64() < mix.hot {
						c.GetOrCompute(hot[rng.Intn(hotKeys)], load)
					} else {
						seq++
						c.GetOrCompute(fmt.Sprintf("cold-%d-%d", rng.Int63(), seq), load)
					}
				}
			})
		})
	}
}
