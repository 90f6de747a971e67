// Package plancache is a sharded, TTL'd, size-bounded cache of canonical
// plans keyed by the quantized request key. The hetgridd service sits in
// front of the planning pipeline with one of these: the §4.4 heuristic is
// fast but not free, and the exact solver decidedly is not, so requests
// whose cycle-times quantize to the same key should pay for one solve.
//
// Design notes:
//
//   - Sharding (fnv-64a of the key, power-of-two shard count) keeps lock
//     contention bounded: each shard has its own mutex, LRU list and
//     in-flight table, so concurrent misses on different keys never
//     serialize.
//   - Single-flight: concurrent requests for one key collapse onto a
//     single loader call; the followers block on the flight's done channel
//     and share the result (error included).
//   - Eviction is LRU per shard against a per-shard capacity slice of the
//     configured total; expiry is lazy (checked on access) plus whatever
//     eviction sweeps out.
//   - The clock is injectable, so TTL behavior is testable without
//     sleeping.
package plancache

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"hetgrid/internal/obs"
	"hetgrid/internal/plan"
)

// Config sizes a cache. The zero value is usable: 1024 entries, 16
// shards, no TTL, LRU, wall clock.
type Config struct {
	// MaxEntries bounds the total number of cached plans across all
	// shards (0 = 1024; the effective bound is the per-shard slice, so it
	// is rounded up to a multiple of the shard count).
	MaxEntries int
	// TTL is how long an entry stays valid (0 = forever).
	TTL time.Duration
	// Shards is rounded up to a power of two (0 = 16).
	Shards int
	// Now is the clock (nil = time.Now); tests inject a fake.
	Now func() time.Time
}

// Stats is a snapshot of the cache counters. Every Get lands in exactly
// one of Hits, Misses or Shared, so Hits+Misses+Shared == Gets always
// reconciles.
type Stats struct {
	Gets        int64 // total GetOrCompute calls
	Hits        int64 // served from the cache
	Misses      int64 // this call ran the loader
	Shared      int64 // joined another call's in-flight load
	Evictions   int64 // LRU evictions (capacity pressure)
	Expirations int64 // entries dropped because their TTL lapsed
	Entries     int64 // current resident entries
}

// Cache is a sharded single-flight plan cache. Safe for concurrent use.
type Cache struct {
	shards []*shard
	mask   uint32
	perCap int
	ttl    time.Duration
	now    func() time.Time

	gets, hits, misses, shared atomic.Int64
	evictions, expirations     atomic.Int64
}

type shard struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	flights map[string]*flight
}

type entry struct {
	key     string
	val     *plan.Plan
	expires time.Time // zero = never
}

type flight struct {
	done chan struct{}
	val  *plan.Plan
	err  error
}

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	shards := cfg.Shards
	if shards <= 0 {
		shards = 16
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	maxEntries := cfg.MaxEntries
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	perCap := (maxEntries + n - 1) / n
	if perCap < 1 {
		perCap = 1
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	c := &Cache{
		shards: make([]*shard, n),
		mask:   uint32(n - 1),
		perCap: perCap,
		ttl:    cfg.TTL,
		now:    now,
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			entries: make(map[string]*list.Element),
			lru:     list.New(),
			flights: make(map[string]*flight),
		}
	}
	return c
}

func (c *Cache) shardFor(key string) *shard {
	h := fnv.New64a()
	h.Write([]byte(key))
	return c.shards[uint32(h.Sum64())&c.mask]
}

// GetOrCompute returns the plan cached under key, running load (at most
// once per key across concurrent callers) on a miss. hit reports whether
// the plan came out of the cache without this call waiting on a load.
func (c *Cache) GetOrCompute(key string, load func() (*plan.Plan, error)) (p *plan.Plan, hit bool, err error) {
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
		c.insertLocked(s, key, f.val)
	}
	s.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

// insertLocked stores val under key in shard s (held locked) with the
// cache TTL, evicting LRU entries over capacity.
func (c *Cache) insertLocked(s *shard, key string, val *plan.Plan) {
	var expires time.Time
	if c.ttl > 0 {
		expires = c.now().Add(c.ttl)
	}
	s.entries[key] = s.lru.PushFront(&entry{key: key, val: val, expires: expires})
	for s.lru.Len() > c.perCap {
		oldest := s.lru.Back()
		old := oldest.Value.(*entry)
		s.lru.Remove(oldest)
		delete(s.entries, old.key)
		c.evictions.Add(1)
	}
}

// Len reports the resident entry count (expired-but-unswept entries
// included; expiry is lazy).
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Gets:        c.gets.Load(),
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Shared:      c.shared.Load(),
		Evictions:   c.evictions.Load(),
		Expirations: c.expirations.Load(),
		Entries:     int64(c.Len()),
	}
}

// Publish registers the cache counters on reg as live gauges named
// hetgrid_plancache_<counter>.
func (c *Cache) Publish(reg *obs.Registry) {
	pub := func(name, help string, fn func() float64) {
		reg.FuncGauge("hetgrid_plancache_"+name, "", help, fn)
	}
	pub("gets", "Total GetOrCompute calls.", func() float64 { return float64(c.gets.Load()) })
	pub("hits", "Plans served from the cache.", func() float64 { return float64(c.hits.Load()) })
	pub("misses", "Calls that ran the planning pipeline.", func() float64 { return float64(c.misses.Load()) })
	pub("shared", "Calls that joined an in-flight solve.", func() float64 { return float64(c.shared.Load()) })
	pub("evictions", "LRU evictions under capacity pressure.", func() float64 { return float64(c.evictions.Load()) })
	pub("expirations", "Entries dropped after their TTL lapsed.", func() float64 { return float64(c.expirations.Load()) })
	pub("entries", "Resident cached plans.", func() float64 { return float64(c.Len()) })
}
