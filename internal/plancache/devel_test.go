package plancache

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetgrid/internal/plan"
)

//
// This file compares cache designs side by side; the package ships the
// winner, the others live here only.
//
//	go test ./internal/plancache -run '^$' -bench DevelCache -benchmem
//

// getter is the one call the service makes on a cache.
type getter interface {
	GetOrCompute(key string, load func() (*plan.Plan, error)) (*plan.Plan, bool, error)
}

// shardedCache is the design the package shipped before one lock: 16
// LRUs picked by fnv-64a of the key, each with its own mutex, entry map,
// list and flight table, and MaxEntries split evenly between them, so the
// bound is per shard, not an LRU over the whole cache.
type shardedCache struct {
	shards []*shard
	perCap int
	ttl    time.Duration
	now    func() time.Time

	gets, hits, misses, shared, evictions, expirations atomic.Int64
}

type shard struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List
	flights map[string]*flight
}

func newSharded(maxEntries int) *shardedCache {
	const n = 16
	c := &shardedCache{shards: make([]*shard, n), perCap: max((maxEntries+n-1)/n, 1), now: time.Now}
	for i := range c.shards {
		c.shards[i] = &shard{entries: map[string]*list.Element{}, lru: list.New(), flights: map[string]*flight{}}
	}
	return c
}

func (c *shardedCache) shardFor(key string) *shard {
	h := fnv.New64a()
	h.Write([]byte(key))
	return c.shards[uint32(h.Sum64())&uint32(len(c.shards)-1)]
}

func (c *shardedCache) GetOrCompute(key string, load func() (*plan.Plan, error)) (*plan.Plan, bool, error) {
	c.gets.Add(1)
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		e := el.Value.(*entry)
		if e.expires.IsZero() || c.now().Before(e.expires) {
			s.lru.MoveToFront(el)
			s.mu.Unlock()
			c.hits.Add(1)
			return e.val, true, nil
		}
		s.lru.Remove(el)
		delete(s.entries, key)
		c.expirations.Add(1)
	}
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		<-f.done
		c.shared.Add(1)
		return f.val, false, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()

	c.misses.Add(1)
	f.val, f.err = load()

	s.mu.Lock()
	delete(s.flights, key)
	if f.err == nil {
		var expires time.Time
		if c.ttl > 0 {
			expires = c.now().Add(c.ttl)
		}
		s.entries[key] = s.lru.PushFront(&entry{key: key, val: f.val, expires: expires})
		for s.lru.Len() > c.perCap {
			oldest := s.lru.Back()
			s.lru.Remove(oldest)
			delete(s.entries, oldest.Value.(*entry).key)
			c.evictions.Add(1)
		}
	}
	s.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

// BenchmarkDevelCache runs each design on the service's three access
// mixes, b.RunParallel across GOMAXPROCS goroutines: "hit" draws from a
// resident hot set, "miss" a fresh key every call, and "mixed90" 90% hot,
// 10% fresh. The loader returns at once, so a miss times the cache's own
// bookkeeping, not a solve.
func BenchmarkDevelCache(b *testing.B) {
	designs := []struct {
		name string
		make func(maxEntries int) getter
	}{
		{"sharded", func(n int) getter { return newSharded(n) }},
		{"one-lock", func(n int) getter { return New(Config{MaxEntries: n}) }},
	}
	mixes := []struct {
		name string
		hot  float64 // probability of drawing from the resident hot set
	}{
		{"hit", 1.0},
		{"miss", 0.0},
		{"mixed90", 0.9},
	}
	for _, d := range designs {
		for _, mix := range mixes {
			b.Run(d.name+"/"+mix.name, func(b *testing.B) {
				c := d.make(1 << 12)
				const hotKeys = 256
				hot := make([]string, hotKeys)
				for i := range hot {
					hot[i] = fmt.Sprintf("hot-%d", i)
					c.GetOrCompute(hot[i], func() (*plan.Plan, error) { return planFor(i), nil })
				}
				val := planFor(1)
				load := func() (*plan.Plan, error) { return val, nil }
				var seq atomic.Int64
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					rng := rand.New(rand.NewSource(rand.Int63()))
					for pb.Next() {
						if rng.Float64() < mix.hot {
							c.GetOrCompute(hot[rng.Intn(hotKeys)], load)
						} else {
							c.GetOrCompute(fmt.Sprintf("cold-%d", seq.Add(1)), load)
						}
					}
				})
			})
		}
	}
}
