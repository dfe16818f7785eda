// Package telemetry provides lightweight, concurrency-safe counters,
// gauges, histograms and rate meters used by every subsystem in the
// repository to report throughput and latency without external
// dependencies.
//
// All instruments are safe for concurrent use. Counters and gauges are
// implemented with atomics; a histogram is a fixed array of log-linear
// bucket counts behind one mutex, so it never grows and never sorts.
package telemetry

import (
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing 64-bit counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta. Negative deltas are ignored so
// that a Counter remains monotone; use a Gauge for values that go down.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset sets the counter back to zero and returns the previous value.
func (c *Counter) Reset() int64 { return c.v.Swap(0) }

// Gauge is an instantaneous 64-bit value that may move in both
// directions (queue depths, live connections, region counts).
type Gauge struct {
	v atomic.Int64
}

// Set stores v as the gauge's current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc increments the gauge by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec decrements the gauge by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the gauge's current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// The histogram's buckets: 16 linear sub-buckets per power of two over
// [2^minExp, 2^maxExp), which holds both callers' units — request
// latency in ms and harness latency in ns. Bucket 0 holds everything
// below the range (0 included); values at or above 2^maxExp land in the
// top bucket.
const (
	subBuckets = 16
	minExp     = -10
	maxExp     = 40
	numBuckets = 1 + (maxExp-minExp)*subBuckets
)

// Histogram accumulates float64 observations and reports count, sum,
// mean, min, max and quantiles. Count, sum, mean, min and max are
// exact; observations are otherwise kept only as counts in fixed
// log-linear buckets, so memory and the cost of a quantile are bounded
// by construction however many observations the process records. A
// quantile is within 1/32 (3.1 %) of the exact nearest-rank value for
// observations in [2^-10, 2^40). The zero value is ready to use.
type Histogram struct {
	mu       sync.Mutex
	count    int64
	sum      float64
	min, max float64
	buckets  [numBuckets]int64
}

// bucketOf returns the index of the bucket holding v.
func bucketOf(v float64) int {
	frac, exp := math.Frexp(v) // v = frac·2^exp, frac ∈ [0.5, 1)
	switch {
	case v < math.Ldexp(1, minExp):
		return 0
	case exp > maxExp:
		return numBuckets - 1
	}
	return 1 + (exp-1-minExp)*subBuckets + int(frac*2*subBuckets) - subBuckets
}

// bucketMid returns the midpoint of bucket i (0 for the underflow
// bucket). Every value in bucket i ≥ 1 is within 1/32 of it.
func bucketMid(i int) float64 {
	if i == 0 {
		return 0
	}
	i--
	return math.Ldexp(1+(float64(i%subBuckets)+0.5)/subBuckets, minExp+i/subBuckets)
}

// Observe records a single observation. NaN and ±Inf are ignored: one
// would poison the sum and the mean for the life of the process.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	i := bucketOf(v)
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[i]++
	h.mu.Unlock()
}

// Count returns the number of observations recorded.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.count)
}

// Sum returns the sum of all recorded observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the arithmetic mean of all observations, or zero when
// the histogram is empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1), or zero when the
// histogram is empty. q ≤ 0 and q ≥ 1 return the exact Min and Max;
// any other q takes the nearest rank over the bucket counts and returns
// that bucket's midpoint clamped to [Min, Max].
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case h.count == 0:
		return 0
	case q <= 0:
		return h.min
	case q >= 1:
		return h.max
	}
	rank := max(int64(math.Ceil(q*float64(h.count))), 1)
	i, seen := 0, h.buckets[0]
	for seen < rank {
		i++
		seen += h.buckets[i]
	}
	return min(max(bucketMid(i), h.min), h.max)
}

// Min returns the smallest observation, or zero when empty.
func (h *Histogram) Min() float64 { return h.Quantile(0) }

// Max returns the largest observation, or zero when empty.
func (h *Histogram) Max() float64 { return h.Quantile(1) }

// Registry is a named collection of instruments, used by servers to
// expose their internals to tests and the visualization layer. Besides
// owning instruments created through Counter/Gauge/Histogram, it can
// adopt externally owned ones (RegisterCounter/RegisterGauge) and lazy
// values (RegisterFunc), so one registry exposes every subsystem's
// counters through a single endpoint.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	funcs  map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
		funcs:  make(map[string]func() int64),
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterCounter adopts an externally owned counter under name (the
// proxy's Accepted, the broker's Published, …), replacing any previous
// registration.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	r.mu.Lock()
	r.ctrs[name] = c
	r.mu.Unlock()
}

// RegisterGauge adopts an externally owned gauge under name.
func (r *Registry) RegisterGauge(name string, g *Gauge) {
	r.mu.Lock()
	r.gauges[name] = g
	r.mu.Unlock()
}

// RegisterFunc exposes a value computed at scrape time (consumer-group
// lag, queue depths derived from several parts).
func (r *Registry) RegisterFunc(name string, f func() int64) {
	r.mu.Lock()
	r.funcs[name] = f
	r.mu.Unlock()
}

// Expose writes the exposition format served on /metrics: one
// "name value" line per counter, gauge and func, plus
// "name_count/_mean/_p99" lines per histogram (the suffix goes before
// a label set: http_ms_count{route="…"}), sorted by name. It is the
// single metrics writer every server shares.
func (r *Registry) Expose(w io.Writer) {
	// Snapshot under the lock, read values after releasing it: funcs
	// and instruments may themselves take locks (consumer-group lag)
	// and must not do so under r.mu.
	r.mu.Lock()
	ctrs, gauges := maps.Clone(r.ctrs), maps.Clone(r.gauges)
	funcs, hists := maps.Clone(r.funcs), maps.Clone(r.hists)
	r.mu.Unlock()
	lines := make([]string, 0, len(ctrs)+len(gauges)+len(funcs)+3*len(hists))
	for n, c := range ctrs {
		lines = append(lines, fmt.Sprintf("%s %d", n, c.Value()))
	}
	for n, g := range gauges {
		lines = append(lines, fmt.Sprintf("%s %d", n, g.Value()))
	}
	for n, f := range funcs {
		lines = append(lines, fmt.Sprintf("%s %d", n, f()))
	}
	for n, h := range hists {
		base, labels := n, ""
		if i := strings.IndexByte(n, '{'); i >= 0 {
			base, labels = n[:i], n[i:]
		}
		lines = append(lines,
			fmt.Sprintf("%s_count%s %d", base, labels, h.Count()),
			fmt.Sprintf("%s_mean%s %.3f", base, labels, h.Mean()),
			fmt.Sprintf("%s_p99%s %.3f", base, labels, h.Quantile(0.99)))
	}
	slices.Sort(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}

// LinearFit fits y = a + b·x by least squares and returns the intercept,
// slope and coefficient of determination R². The experiment harness uses
// it to assert Figure 2's linear scale-up and stable-rate claims.
func LinearFit(xs, ys []float64) (intercept, slope, r2 float64) {
	n := float64(len(xs))
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0, 0
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return my, 0, 0
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		return intercept, slope, 1
	}
	r2 = (sxy * sxy) / (sxx * syy)
	return intercept, slope, r2
}
