package tsdb

import (
	"hash/maphash"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/rpc"
)

// intern.go is the table behind Point.Tags' sharing rule: every producer
// of points in the process — the gateway's JSON put scanner and telnet
// line parser, the wire decode of a bus record or a TSD put (wire.go),
// EnergyTags and so every fleet feeder, loader and anomaly write-back —
// resolves a tag set it has seen before to the one map every occurrence
// shares. Keys are the bytes that spelled the set, and they carry their
// spelling in their first byte:
//
//   - JSON: the tags object as the put scanner read it, opening with '{';
//   - wire: the tag block AppendPoints writes — a uvarint pair count,
//     then each key and value length-prefixed, in key order — which
//     InternTags and EnergyTags build from their pairs with the same
//     appendTagKey, so a series fed, parsed from a telnet line or read
//     off the wire is one map.
//
// A wire key opening with '{' counts 123 pairs, at least 247 bytes,
// past internMaxKey: no key the table holds spells a set both ways, so
// a JSON key and a wire key never collide.

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

// TagSets and Metrics are the process's tables: every producer decodes
// or builds into the same canonical tag maps and metric names.
var (
	TagSets = NewTagSetTable(MaxInternedTagSets)
	Metrics = NewInternTable[string](MaxInternedMetrics)
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
	t := new(InternTable[V])
	t.init(limit)
	return t
}

func (t *InternTable[V]) init(limit int64) {
	t.limit, t.seed = limit, maphash.MakeSeed()
	for i := range t.shards {
		t.shards[i].m = make(map[string]V)
	}
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
	v, _ = t.put(raw, v)
	return v
}

// put is Put, also reporting whether it stored v.
func (t *InternTable[V]) put(raw []byte, v V) (V, bool) {
	if len(raw) > internMaxKey || t.n.Load() >= t.limit {
		return v, false
	}
	sh := &t.shards[maphash.Bytes(t.seed, raw)%internShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cur, ok := sh.m[string(raw)]; ok {
		return cur, false
	}
	if t.n.Add(1) > t.limit {
		t.n.Add(-1)
		return v, false
	}
	sh.m[string(raw)] = v
	return v, true
}

// TagSetTable is an InternTable of tag sets that also knows the maps it
// holds by identity, so a Codec can tell an interned map — immutable,
// never evicted — from one a caller may still change.
type TagSetTable struct {
	InternTable[map[string]string]
	ids sync.Map // mapID of every map the table holds → struct{}
}

// NewTagSetTable returns an empty table holding at most limit sets.
func NewTagSetTable(limit int64) *TagSetTable {
	t := new(TagSetTable)
	t.init(limit)
	return t
}

// Put offers set as the canonical map for raw and returns the map to
// use: set itself, or the one a concurrent producer stored first.
func (t *TagSetTable) Put(raw []byte, set map[string]string) map[string]string {
	set, stored := t.put(raw, set)
	if stored {
		t.ids.Store(mapID(set), struct{}{})
	}
	return set
}

// holds reports whether m is one of the table's maps.
func (t *TagSetTable) holds(m map[string]string) bool {
	_, ok := t.ids.Load(mapID(m))
	return ok
}

// mapID is a map's identity: the address of its header.
func mapID(m map[string]string) unsafe.Pointer { return reflect.ValueOf(m).UnsafePointer() }

// InternTags returns the shared map for the tag set pairs lists, built
// from copies of its strings (pairs may alias a buffer the caller
// reuses). A repeated key keeps its last value. pairs is reordered.
func InternTags(pairs [][2]string) map[string]string {
	slices.SortStableFunc(pairs, func(a, b [2]string) int { return strings.Compare(a[0], b[0]) })
	set := pairs[:0]
	for i, p := range pairs {
		if i+1 < len(pairs) && pairs[i+1][0] == p[0] {
			continue // a later value for the same key wins
		}
		set = append(set, p)
	}
	return internSortedTags(set)
}

// internSortedTags is InternTags for pairs sorted by key, each key once.
// Their strings do not escape, so a caller may build them on its stack
// (EnergyTags does).
func internSortedTags(pairs [][2]string) map[string]string {
	var buf [internMaxKey]byte
	key := appendTagKey(buf[:0], pairs)
	if m, ok := TagSets.Get(key); ok {
		return m
	}
	m := make(map[string]string, len(pairs))
	for _, p := range pairs {
		m[strings.Clone(p[0])] = strings.Clone(p[1])
	}
	return TagSets.Put(key, m)
}

// appendTagKey appends the wire spelling of a tag set — the one place it
// is written: a uvarint pair count, then each key and value
// length-prefixed. pairs must be sorted by key, each key once.
func appendTagKey(b []byte, pairs [][2]string) []byte {
	b = rpc.AppendUint(b, uint64(len(pairs)))
	for _, p := range pairs {
		b = rpc.AppendString(rpc.AppendString(b, p[0]), p[1])
	}
	return b
}

// InternMetric returns the shared string for a metric name.
func InternMetric(name string) string {
	if len(name) > internMaxKey {
		return strings.Clone(name)
	}
	var buf [internMaxKey]byte
	raw := append(buf[:0], name...)
	if m, ok := Metrics.Get(raw); ok {
		return m
	}
	return Metrics.Put(raw, strings.Clone(name))
}
