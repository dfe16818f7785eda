package tsdb

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// intern.go is the table behind Point.Tags' sharing rule: every decoder
// that turns bytes into points — the gateway's JSON put scanner, the
// wire decode of a bus record or a TSD put (wire.go) — resolves a tag
// set it has seen before to the one map every occurrence shares, keyed
// by the raw bytes that spelled it.

// Intern table bounds. They are constants on purpose: a full table
// costs new series a fresh allocation per point — exactly the
// pre-interning behaviour — so there is nothing to tune.
const (
	internShards = 16
	internMaxKey = 128 // raw bytes keying one entry

	// MaxInternedTagSets and MaxInternedMetrics size a process-wide
	// table of tag sets (the paper's fleet is 100 000 series) and of
	// metric names.
	MaxInternedTagSets = 1 << 17
	MaxInternedMetrics = 1 << 10
)

// InternTable maps the raw bytes of an encoded construct to the one
// decoded value every occurrence shares. Entries are never evicted and
// never modified; once limit entries exist, Put stores nothing.
type InternTable[V any] struct {
	limit  int64
	n      atomic.Int64
	seed   maphash.Seed
	shards [internShards]struct {
		mu sync.RWMutex
		m  map[string]V
	}
}

// NewInternTable returns an empty table holding at most limit entries.
func NewInternTable[V any](limit int64) *InternTable[V] {
	t := &InternTable[V]{limit: limit, seed: maphash.MakeSeed()}
	for i := range t.shards {
		t.shards[i].m = make(map[string]V)
	}
	return t
}

// Len returns the number of entries.
func (t *InternTable[V]) Len() int64 { return t.n.Load() }

// Get returns the value interned under raw.
func (t *InternTable[V]) Get(raw []byte) (v V, ok bool) {
	if len(raw) > internMaxKey {
		return v, false
	}
	sh := &t.shards[maphash.Bytes(t.seed, raw)%internShards]
	sh.mu.RLock()
	v, ok = sh.m[string(raw)]
	sh.mu.RUnlock()
	return v, ok
}

// Put offers v as the canonical value for raw and returns the value to
// use: v itself, or the entry a concurrent decoder stored first.
func (t *InternTable[V]) Put(raw []byte, v V) V {
	if len(raw) > internMaxKey || t.n.Load() >= t.limit {
		return v
	}
	sh := &t.shards[maphash.Bytes(t.seed, raw)%internShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cur, ok := sh.m[string(raw)]; ok {
		return cur
	}
	if t.n.Add(1) > t.limit {
		t.n.Add(-1)
		return v
	}
	sh.m[string(raw)] = v
	return v
}
