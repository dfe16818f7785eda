package tsdb

import (
	"sync"
	"time"
)

// Watermarks tracks a monotone write version per metric. Every
// successful PutContext on any TSD of a Deployment bumps the version of
// the metrics it wrote, so a read tier can cheaply detect that cached
// results for a metric are stale — the invalidation signal the
// internal/query window cache keys on. Because every write path in the
// system (the ingestion bus via the proxy, the detector write-back
// sink, direct puts) ultimately lands in some TSD's PutContext, the
// watermark observes them all.
//
// Versions start at the table's creation time in nanoseconds, so a
// restarted deployment never reports a version its predecessor did (it
// would take a write per nanosecond of uptime to catch up): a reader on
// another process that cached a window under the old version sees the
// new one as a change.
//
// The zero value is not usable; share one instance per Deployment via
// NewWatermarks. All methods are safe for concurrent use and nil-safe
// (a nil *Watermarks reports version 0 and ignores bumps), so a TSD
// constructed without a deployment keeps working.
type Watermarks struct {
	base uint64
	mu   sync.RWMutex
	v    map[string]uint64
}

// NewWatermarks returns an empty watermark table.
func NewWatermarks() *Watermarks {
	return &Watermarks{base: uint64(time.Now().UnixNano()), v: make(map[string]uint64)}
}

// Bump advances the metric's write version by one.
func (w *Watermarks) Bump(metric string) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.v[metric]++
	w.mu.Unlock()
}

// Version returns the metric's current write version: the table's
// base plus the metric's bumps.
func (w *Watermarks) Version(metric string) uint64 {
	if w == nil {
		return 0
	}
	w.mu.RLock()
	v := w.v[metric]
	w.mu.RUnlock()
	return w.base + v
}
