package plancache

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetgrid/internal/plan"
)

func planFor(tag int) *plan.Plan {
	return &plan.Plan{P: tag, Q: 1, Objective: float64(tag)}
}

// fakeClock is an injectable clock tests advance by hand.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func TestGetOrComputeBasics(t *testing.T) {
	c := New(Config{})
	loads := 0
	load := func() (*plan.Plan, error) { loads++; return planFor(7), nil }

	p, hit, err := c.GetOrCompute("k", load)
	if err != nil || hit || p.P != 7 {
		t.Fatalf("first get: p=%+v hit=%v err=%v", p, hit, err)
	}
	p, hit, err = c.GetOrCompute("k", load)
	if err != nil || !hit || p.P != 7 {
		t.Fatalf("second get: p=%+v hit=%v err=%v", p, hit, err)
	}
	if loads != 1 {
		t.Fatalf("loader ran %d times, want 1", loads)
	}
	st := c.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.Misses != 1 || st.Shared != 0 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(Config{})
	boom := errors.New("boom")
	calls := 0
	_, _, err := c.GetOrCompute("k", func() (*plan.Plan, error) { calls++; return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	p, hit, err := c.GetOrCompute("k", func() (*plan.Plan, error) { calls++; return planFor(1), nil })
	if err != nil || hit || p == nil {
		t.Fatalf("retry after error: p=%v hit=%v err=%v", p, hit, err)
	}
	if calls != 2 {
		t.Fatalf("loader ran %d times, want 2 (errors must not stick)", calls)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

// TestSingleFlightCollapse launches many goroutines on one cold key; the
// loader must run exactly once, every caller must see its result, and the
// followers must be accounted as shared.
func TestSingleFlightCollapse(t *testing.T) {
	c := New(Config{})
	const callers = 64
	var loads atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, _, err := c.GetOrCompute("cold", func() (*plan.Plan, error) {
				if loads.Add(1) == 1 {
					close(started)
				}
				<-release // hold the flight open so everyone piles on
				return planFor(3), nil
			})
			if err != nil || p.P != 3 {
				t.Errorf("caller got p=%+v err=%v", p, err)
			}
		}()
	}
	// Wait until the flight exists so at least some callers join it, then
	// release the loader.
	<-started
	close(release)
	wg.Wait()

	if n := loads.Load(); n != 1 {
		t.Fatalf("loader ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Gets != callers {
		t.Fatalf("gets = %d, want %d", st.Gets, callers)
	}
	if st.Hits+st.Misses+st.Shared != st.Gets {
		t.Fatalf("counter reconciliation broken: %+v", st)
	}
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
}

func TestTTLExpiry(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	c := New(Config{TTL: time.Minute, Now: clk.now})
	tag := 0
	load := func() (*plan.Plan, error) { tag++; return planFor(tag), nil }

	if _, hit, _ := c.GetOrCompute("k", load); hit {
		t.Fatal("cold get reported a hit")
	}
	clk.advance(59 * time.Second)
	if p, hit, _ := c.GetOrCompute("k", load); !hit || p.P != 1 {
		t.Fatalf("inside TTL: hit=%v p=%+v", hit, p)
	}
	clk.advance(2 * time.Second) // 61s since load
	p, hit, _ := c.GetOrCompute("k", load)
	if hit || p.P != 2 {
		t.Fatalf("past TTL: hit=%v p=%+v (want reload)", hit, p)
	}
	st := c.Stats()
	if st.Expirations != 1 {
		t.Fatalf("expirations = %d, want 1", st.Expirations)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (expired entry replaced)", st.Entries)
	}
}

// TestSizeEviction fills the cache past capacity and checks LRU order:
// recently-touched keys survive, the coldest are evicted.
func TestSizeEviction(t *testing.T) {
	c := New(Config{MaxEntries: 4})
	load := func(i int) func() (*plan.Plan, error) {
		return func() (*plan.Plan, error) { return planFor(i), nil }
	}
	for i := 0; i < 4; i++ {
		c.GetOrCompute(fmt.Sprintf("k%d", i), load(i))
	}
	// Touch k0 so k1 becomes the LRU victim.
	if _, hit, _ := c.GetOrCompute("k0", load(0)); !hit {
		t.Fatal("k0 evicted prematurely")
	}
	c.GetOrCompute("k4", load(4))

	if st := c.Stats(); st.Evictions != 1 || st.Entries != 4 {
		t.Fatalf("stats %+v, want 1 eviction and 4 entries", st)
	}
	if _, hit, _ := c.GetOrCompute("k1", load(1)); hit {
		t.Fatal("k1 survived, want LRU eviction")
	}
	for _, k := range []string{"k0", "k2", "k3", "k4"} {
		// k1's reload just evicted the next victim (k2), so only check the
		// ones loaded after it.
		if k == "k2" {
			continue
		}
		if _, hit, _ := c.GetOrCompute(k, load(0)); !hit {
			t.Fatalf("%s missing, want resident", k)
		}
	}
}

// TestCacheCapacityIsExact: MaxEntries bounds the whole cache, and
// eviction is LRU over all of it. Eight distinct keys go into a 4-entry
// cache with the fourth touched before the eighth arrives; exactly the
// four most recently used stay resident, whatever their hashes.
func TestCacheCapacityIsExact(t *testing.T) {
	c := New(Config{MaxEntries: 4})
	load := func() (*plan.Plan, error) { return planFor(1), nil }
	for i := 0; i < 7; i++ {
		c.GetOrCompute(fmt.Sprintf("k%d", i), load)
	}
	if _, hit, _ := c.GetOrCompute("k3", load); !hit {
		t.Fatal("k3 evicted before the cache held 4 entries")
	}
	c.GetOrCompute("k7", load)

	if n := c.Len(); n != 4 {
		t.Fatalf("Len() = %d after 8 inserts into a 4-entry cache, want 4", n)
	}
	// Four hits on a cache of four entries change nothing but the order,
	// so the residents are exactly these.
	for _, k := range []string{"k3", "k5", "k6", "k7"} {
		if _, hit, _ := c.GetOrCompute(k, load); !hit {
			t.Fatalf("%s evicted, want the 4 most recently used (k3, k5, k6, k7) resident", k)
		}
	}
	if st := c.Stats(); st.Evictions != 4 || st.Entries != 4 {
		t.Fatalf("stats %+v, want 4 evictions and 4 entries", st)
	}
}

// TestCounterReconciliationUnderLoad hammers a small cache from many
// goroutines with overlapping keys, a TTL and capacity pressure, then
// checks the invariant every Get lands in exactly one bucket.
func TestCounterReconciliationUnderLoad(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	c := New(Config{MaxEntries: 8, TTL: 40 * time.Millisecond, Now: clk.now})
	const workers = 8
	const opsPer = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPer; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(16))
				_, _, err := c.GetOrCompute(k, func() (*plan.Plan, error) {
					if rng.Intn(8) == 0 {
						return nil, errors.New("transient")
					}
					return planFor(i), nil
				})
				_ = err
				if i%50 == 0 {
					clk.advance(10 * time.Millisecond)
				}
			}
		}(int64(w))
	}
	wg.Wait()

	st := c.Stats()
	if st.Gets != workers*opsPer {
		t.Fatalf("gets = %d, want %d", st.Gets, workers*opsPer)
	}
	if st.Hits+st.Misses+st.Shared != st.Gets {
		t.Fatalf("hits(%d)+misses(%d)+shared(%d) != gets(%d)", st.Hits, st.Misses, st.Shared, st.Gets)
	}
	if st.Entries > 8 {
		t.Fatalf("entries = %d, exceeds MaxEntries", st.Entries)
	}
}
