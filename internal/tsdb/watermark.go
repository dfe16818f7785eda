package tsdb

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// Watermarks tracks a monotone write version per (metric, row-hour),
// where a row-hour is the RowSeconds span one HBase row holds, plus one
// metric-wide epoch. Every successful PutContext on any TSD of a
// Deployment bumps each distinct (metric, row-hour) its batch wrote, and
// Bump moves a metric's epoch (retention dropping its data, or an
// operator forcing every window of it stale). A read tier asks Version
// for the row-hours its window overlaps, so a cached window changes
// version whenever a write lands in one of them — and only then: a live
// write into the current hour leaves a window over sealed hours cached.
// Because every write path in the system (the ingestion bus via the
// proxy, the detector write-back sink, direct puts) ultimately lands in
// some TSD's PutContext, the watermark observes them all.
//
// A bump stamps its row-hours (or the epoch) with the table's next
// sequence number, and a window's version is the largest stamp among its
// row-hours and the epoch, so any bump the window overlaps raises it. An
// epoch bump outranks every row-hour stamp, so it drops them.
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
	seq  uint64
	m    map[string]*metricMarks
}

// metricMarks is one metric's epoch and its row-hours' stamps, sorted by
// row-hour start.
type metricMarks struct {
	epoch uint64
	hours []hourMark
}

type hourMark struct {
	start int64
	stamp uint64
}

// NewWatermarks returns an empty watermark table.
func NewWatermarks() *Watermarks {
	return &Watermarks{base: uint64(time.Now().UnixNano()), m: make(map[string]*metricMarks)}
}

// Bump advances every window of the metric: its epoch.
func (w *Watermarks) Bump(metric string) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.seq++
	mm := w.marksLocked(metric)
	mm.epoch, mm.hours = w.seq, mm.hours[:0]
	w.mu.Unlock()
}

// bumpPoints advances each distinct (metric, row-hour) the points land
// in, under one stamp.
func (w *Watermarks) bumpPoints(points []Point) {
	if w == nil || len(points) == 0 {
		return
	}
	w.mu.Lock()
	w.seq++
	var mm *metricMarks
	var metric string
	var hour int64
	for i := range points {
		p := &points[i]
		h := BucketStart(p.Timestamp, RowSeconds)
		if mm == nil || p.Metric != metric {
			mm, metric = w.marksLocked(p.Metric), p.Metric
		} else if h == hour {
			continue
		}
		hour = h
		mm.stamp(h, w.seq)
	}
	w.mu.Unlock()
}

// marksLocked returns metric's entry, creating it.
func (w *Watermarks) marksLocked(metric string) *metricMarks {
	mm := w.m[metric]
	if mm == nil {
		mm = &metricMarks{}
		w.m[metric] = mm
	}
	return mm
}

// stamp sets the row-hour starting at h to seq.
func (mm *metricMarks) stamp(h int64, seq uint64) {
	i, found := slices.BinarySearchFunc(mm.hours, h, byStart)
	if found {
		mm.hours[i].stamp = seq
		return
	}
	mm.hours = slices.Insert(mm.hours, i, hourMark{start: h, stamp: seq})
}

func byStart(m hourMark, h int64) int { return cmp.Compare(m.start, h) }

// Version returns the write version of the metric's window [start, end]:
// the table's base plus the latest stamp among the metric's epoch and the
// row-hours the window overlaps.
func (w *Watermarks) Version(metric string, start, end int64) uint64 {
	if w == nil {
		return 0
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	mm := w.m[metric]
	if mm == nil {
		return w.base
	}
	v := mm.epoch
	i, _ := slices.BinarySearchFunc(mm.hours, BucketStart(start, RowSeconds), byStart)
	for ; i < len(mm.hours) && mm.hours[i].start <= end; i++ {
		v = max(v, mm.hours[i].stamp)
	}
	return w.base + v
}
