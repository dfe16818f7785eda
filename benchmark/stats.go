package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of sorted by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median sorts a copy of vals and returns its 0.5-quantile.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// tailLevels are the candidate tail percentiles, highest first, in
// hundredths of a percent so the sample count beyond one is exact.
var tailLevels = []int{9999, 9990, 9900, 9500, 9000}

// tailPercentile picks the highest level of tailLevels that still has
// at least ten samples beyond it (so the value is not one outlier) and
// returns that level with its quantile. With fewer than 100 samples no
// level qualifies and it falls back to the median.
func tailPercentile(sorted []float64) (level, value float64) {
	for _, l := range tailLevels {
		if len(sorted)*(10000-l) >= 10*10000 {
			return float64(l) / 10000, percentile(sorted, float64(l)/10000)
		}
	}
	return 0.5, percentile(sorted, 0.5)
}

// latencies collects one span kind's durations in milliseconds. Safe
// for concurrent use; the sample is kept whole because percentiles are
// taken once, when the window ends.
type latencies struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, ms(d))
	l.mu.Unlock()
}

func (l *latencies) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ms)
}

// sorted returns the sample in ascending order (a copy).
func (l *latencies) sorted() []float64 {
	l.mu.Lock()
	s := append([]float64(nil), l.ms...)
	l.mu.Unlock()
	sort.Float64s(s)
	return s
}

// fracWithin is the share of limit-meeting samples among attempted
// operations: an operation that failed left no sample and so counts as
// a miss.
func fracWithin(sorted []float64, limitMS float64, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(sort.SearchFloat64s(sorted, math.Nextafter(limitMS, math.Inf(1)))) / float64(attempted)
}

// watermark matches rows to the instant a monotone counter (the summed
// Proxy.Delivered) first covers them. A row registers the cumulative
// number of points sent up to and including itself; once the counter
// reaches that threshold every point sent before it has been stored, so
// the elapsed time since the row was due bounds its wire→stored latency
// from above.
type watermark struct {
	mu      sync.Mutex
	sent    int64
	pending []wmEntry
	head    int
}

type wmEntry struct {
	threshold int64
	ref       time.Time
	row       int
}

// add registers a row of n points whose latency counts from ref.
func (w *watermark) add(row, n int, ref time.Time) {
	w.mu.Lock()
	w.sent += int64(n)
	w.pending = append(w.pending, wmEntry{threshold: w.sent, ref: ref, row: row})
	w.mu.Unlock()
}

// advance reports, through fn, every pending row the counter value now
// covers, observed at instant now.
func (w *watermark) advance(counter int64, now time.Time, fn func(row int, ref time.Time, lat time.Duration)) {
	w.mu.Lock()
	start := w.head
	for w.head < len(w.pending) && w.pending[w.head].threshold <= counter {
		w.head++
	}
	done := w.pending[start:w.head]
	w.mu.Unlock()
	for _, e := range done {
		fn(e.row, e.ref, now.Sub(e.ref))
	}
}

// outstanding is how many registered rows the counter has not covered.
func (w *watermark) outstanding() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending) - w.head
}
