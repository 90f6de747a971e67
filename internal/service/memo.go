package service

import (
	"bytes"
	"encoding/json"
	"hash/maphash"
	"sync"

	"hetgrid/internal/plan"
)

// memo is a bounded concurrent map kept in generations: when a store would
// take the current generation past memoCap entries or memoBytes bytes, the
// whole map is dropped for an empty one. That bounds it without tracking
// which entries are still useful; an entry that was dropped and is asked
// for again is computed once more, into the new generation. The server
// keeps two: the marshaled bytes of cached plans, by plan pointer, and the
// decoded batch items, by the hash of their bytes.
type memo[K comparable, V any] struct {
	mu    sync.RWMutex
	m     map[K]V
	bytes int // what the current generation's stores reported
}

const (
	memoCap   = 4096    // entries per generation
	memoBytes = 4 << 20 // bytes per generation
)

func newMemo[K comparable, V any]() *memo[K, V] {
	return &memo[K, V]{m: map[K]V{}}
}

func (m *memo[K, V]) load(k K) (V, bool) {
	m.mu.RLock()
	v, ok := m.m[k]
	m.mu.RUnlock()
	return v, ok
}

// store records k → v, which holds size bytes.
func (m *memo[K, V]) store(k K, v V, size int) {
	m.mu.Lock()
	if len(m.m) >= memoCap || m.bytes+size > memoBytes {
		m.m = map[K]V{}
		m.bytes = 0
	}
	m.m[k] = v
	m.bytes += size
	m.mu.Unlock()
}

// marshal returns the canonical JSON of p, which both endpoints answer
// with. A cache hit returns the same immutable *plan.Plan, so its bytes
// never change and are marshaled once per memo generation, not once per
// answer.
func (s *Server) marshal(p *plan.Plan) (json.RawMessage, error) {
	if raw, ok := s.plans.load(p); ok {
		return raw, nil
	}
	raw, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	s.plans.store(p, raw, len(raw))
	return raw, nil
}

// item is a batch item as the server plans it: the bytes it arrived as,
// the request they decode to, validated and quantized, and its cache key.
// Immutable once stored.
type item struct {
	raw []byte
	req plan.Request
	key string
}

// maxMemoItem is the largest item, in bytes, the item memo stores. A
// 16-processor request is about 250 B; larger items are decoded every time
// they arrive, so one generation holds at most memoCap small items.
const maxMemoItem = 1 << 10

// itemMemo maps the bytes of a batch item to its *item, so the strict
// decode, the validation, the quantization and the key of an item body
// run once per server rather than once per batch. It is keyed by a hash of
// the bytes, which a lookup neither copies nor boxes; a hit compares the
// bytes, so a hash collision is a miss, not a wrong answer. Items that fail
// to decode or validate are never stored.
type itemMemo struct {
	seed  maphash.Seed
	items *memo[uint64, *item]
}

func newItemMemo() *itemMemo {
	return &itemMemo{seed: maphash.MakeSeed(), items: newMemo[uint64, *item]()}
}

// get returns the item stored for raw, or nil.
func (im *itemMemo) get(raw []byte) *item {
	it, ok := im.items.load(maphash.Bytes(im.seed, raw))
	if !ok || !bytes.Equal(it.raw, raw) {
		return nil
	}
	return it
}

// put stores it unless its bytes are over maxMemoItem. It keeps it.raw
// without copying: DecodeBatch returns each item in fresh bytes.
func (im *itemMemo) put(it *item) {
	if len(it.raw) > maxMemoItem {
		return
	}
	// 256 B stands for the item struct and its map slot.
	size := 256 + len(it.raw) + len(it.key) + 8*len(it.req.Times)
	im.items.store(maphash.Bytes(im.seed, it.raw), it, size)
}
