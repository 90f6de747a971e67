// Package plancache is a TTL'd, size-bounded LRU cache of canonical plans
// keyed by the quantized request key. The hetgridd service sits in front
// of the planning pipeline with one of these: the §4.4 heuristic is fast
// but not free, and the exact solver decidedly is not, so requests whose
// cycle-times quantize to the same key should pay for one solve.
//
// Design notes:
//
//   - One mutex guards the entry map, the LRU list and the in-flight
//     table. Loaders run outside it, so a slow solve never holds up a hit
//     on another key; on the service's traffic (two closed-loop clients)
//     one lock answers a hit faster than sharded locks did
//     (BenchmarkDevelCache).
//   - Single-flight: concurrent requests for one key collapse onto a
//     single loader call; the followers block on the flight's done channel
//     and share the result (error included).
//   - Eviction is LRU over the whole cache against MaxEntries exactly;
//     expiry is lazy (checked on access) plus whatever eviction sweeps
//     out.
//   - The clock is injectable, so TTL behavior is testable without
//     sleeping.
package plancache

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"hetgrid/internal/obs"
	"hetgrid/internal/plan"
)

// Config sizes a cache. The zero value is usable: 1024 entries, no TTL,
// LRU, wall clock.
type Config struct {
	// MaxEntries bounds the number of cached plans (0 = 1024).
	MaxEntries int
	// TTL is how long an entry stays valid (0 = forever).
	TTL time.Duration
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

// Cache is a single-flight LRU plan cache. Safe for concurrent use.
type Cache struct {
	maxEntries int
	ttl        time.Duration
	now        func() time.Time

	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	flights map[string]*flight

	gets, hits, misses, shared atomic.Int64
	evictions, expirations     atomic.Int64
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
	maxEntries := cfg.MaxEntries
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &Cache{
		maxEntries: maxEntries,
		ttl:        cfg.TTL,
		now:        now,
		entries:    make(map[string]*list.Element),
		lru:        list.New(),
		flights:    make(map[string]*flight),
	}
}

// GetOrCompute returns the plan cached under key, running load (at most
// once per key across concurrent callers) on a miss. hit reports whether
// the plan came out of the cache without this call waiting on a load.
func (c *Cache) GetOrCompute(key string, load func() (*plan.Plan, error)) (p *plan.Plan, hit bool, err error) {
	c.gets.Add(1)
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry)
		if e.expires.IsZero() || c.now().Before(e.expires) {
			c.lru.MoveToFront(el)
			c.mu.Unlock()
			c.hits.Add(1)
			return e.val, true, nil
		}
		c.lru.Remove(el)
		delete(c.entries, key)
		c.expirations.Add(1)
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done
		c.shared.Add(1)
		return f.val, false, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	c.misses.Add(1)
	f.val, f.err = load()

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.insertLocked(key, f.val)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

// insertLocked stores val under key (c.mu held) with the cache TTL,
// evicting LRU entries over capacity.
func (c *Cache) insertLocked(key string, val *plan.Plan) {
	var expires time.Time
	if c.ttl > 0 {
		expires = c.now().Add(c.ttl)
	}
	c.entries[key] = c.lru.PushFront(&entry{key: key, val: val, expires: expires})
	for c.lru.Len() > c.maxEntries {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry).key)
		c.evictions.Add(1)
	}
}

// Len reports the resident entry count (expired-but-unswept entries
// included; expiry is lazy).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
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
