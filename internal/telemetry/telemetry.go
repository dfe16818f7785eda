// Package telemetry provides lightweight, concurrency-safe counters,
// gauges, histograms and rate meters used by every subsystem in the
// repository to report throughput and latency without external
// dependencies.
//
// All instruments are safe for concurrent use. Counters and gauges are
// implemented with atomics; histograms shard their buckets behind a
// mutex but are cheap enough for the hot paths in this codebase (the
// ingestion benchmarks record one histogram sample per batch, not per
// sensor sample).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
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

// Histogram accumulates float64 observations and reports count, sum,
// mean, min, max and arbitrary quantiles. By default it keeps every
// observation in memory (the experiment harnesses record at most a few
// hundred thousand samples per run and need exact quantiles). Long-
// running servers must bound it with SetWindow: count and sum stay
// cumulative, but quantiles are computed over a ring of the most recent
// observations, so memory and per-scrape sort cost stay O(window)
// regardless of how many requests the process has served.
type Histogram struct {
	mu      sync.Mutex
	vals    []float64 // retained observations, always in arrival order
	sorted  bool      // scratch currently mirrors vals, sorted
	sum     float64
	count   int64
	window  int       // > 0: vals is a ring of the most recent window observations
	head    int       // next ring slot to overwrite (window > 0 only)
	scratch []float64 // sort buffer so quantiles never disturb arrival order
}

// SetWindow bounds the histogram to the most recent n observations
// (n <= 0 restores the unbounded default). Safe to call repeatedly
// with the same n — Registry callers re-resolve instruments by name.
func (h *Histogram) SetWindow(n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	// The trim below rearranges vals, so any cached sort is stale.
	h.sorted = false
	if n <= 0 {
		h.window, h.head = 0, 0
		return
	}
	if h.window > 0 && h.head > 0 {
		// Unroll a wrapped ring to chronological order so the trim
		// below keeps the most recent observations, not whatever
		// happened to sit at the highest slice positions.
		unrolled := make([]float64, 0, len(h.vals))
		unrolled = append(unrolled, h.vals[h.head:]...)
		unrolled = append(unrolled, h.vals[:h.head]...)
		h.vals = unrolled
	}
	h.head = 0
	if len(h.vals) > n {
		h.vals = append(h.vals[:0], h.vals[len(h.vals)-n:]...)
	}
	h.window = n
}

// Observe records a single observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.count++
	h.sum += v
	if h.window > 0 && len(h.vals) >= h.window {
		h.vals[h.head] = v
		h.head++
		if h.head >= h.window {
			h.head = 0
		}
	} else {
		h.vals = append(h.vals, v)
	}
	h.sorted = false
	h.mu.Unlock()
}

// Count returns the number of observations ever recorded (cumulative,
// even when a window bounds the retained samples).
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

// Mean returns the arithmetic mean of all observations ever recorded,
// or zero when the histogram is empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// sortedVals returns the retained observations in ascending order,
// sorting a scratch copy so vals keeps its arrival order — SetWindow's
// "most recent n" contract depends on it in both modes. Repeated
// quantile reads between observations reuse the sorted scratch.
// Called with mu held.
func (h *Histogram) sortedVals() []float64 {
	if !h.sorted {
		h.scratch = append(h.scratch[:0], h.vals...)
		sort.Float64s(h.scratch)
		h.sorted = true
	}
	return h.scratch
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using the nearest-rank
// method over the retained observations (all of them, or the most
// recent window), or zero when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.vals) == 0 {
		return 0
	}
	vals := h.sortedVals()
	if q <= 0 {
		return vals[0]
	}
	if q >= 1 {
		return vals[len(vals)-1]
	}
	idx := int(math.Ceil(q*float64(len(vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	return vals[idx]
}

// Min returns the smallest observation, or zero when empty.
func (h *Histogram) Min() float64 { return h.Quantile(0) }

// Max returns the largest observation, or zero when empty.
func (h *Histogram) Max() float64 { return h.Quantile(1) }

// Snapshot returns a sorted copy of the retained observations.
func (h *Histogram) Snapshot() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]float64, len(h.vals))
	copy(out, h.vals)
	sort.Float64s(out)
	return out
}

// Reset discards all observations (the window setting survives).
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.vals = h.vals[:0]
	h.sum = 0
	h.count = 0
	h.head = 0
	h.sorted = false
	h.mu.Unlock()
}

// RateMeter tracks an event count over wall-clock (or injected) time
// and reports events/second. The experiment harnesses use it to produce
// the per-second ingest series behind Figure 2 (right).
type RateMeter struct {
	mu      sync.Mutex
	start   time.Time
	now     func() time.Time
	count   int64
	samples []RateSample
	lastCut time.Time
	lastCnt int64
}

// RateSample is one point of a rate time series: the cumulative count
// and instantaneous rate observed at Elapsed since meter start.
type RateSample struct {
	Elapsed    time.Duration
	Cumulative int64
	Rate       float64 // events/sec since the previous sample
}

// NewRateMeter returns a meter that reads time from now, which defaults
// to time.Now when nil (tests inject a manual clock).
func NewRateMeter(now func() time.Time) *RateMeter {
	if now == nil {
		now = time.Now
	}
	t := now()
	return &RateMeter{start: t, now: now, lastCut: t}
}

// Add records n events.
func (m *RateMeter) Add(n int64) {
	m.mu.Lock()
	m.count += n
	m.mu.Unlock()
}

// Cut appends a sample of the series at the current instant and returns it.
func (m *RateMeter) Cut() RateSample {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.now()
	dt := t.Sub(m.lastCut)
	s := RateSample{Elapsed: t.Sub(m.start), Cumulative: m.count}
	if dt > 0 {
		s.Rate = float64(m.count-m.lastCnt) / dt.Seconds()
	}
	m.lastCut, m.lastCnt = t, m.count
	m.samples = append(m.samples, s)
	return s
}

// Count returns the cumulative event count.
func (m *RateMeter) Count() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.count
}

// OverallRate returns events/second since the meter was created.
func (m *RateMeter) OverallRate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	el := m.now().Sub(m.start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(m.count) / el
}

// Series returns the samples collected by Cut, in order.
func (m *RateMeter) Series() []RateSample {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]RateSample, len(m.samples))
	copy(out, m.samples)
	return out
}

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

// WindowHistogram returns the histogram registered under name, created
// on first use and bounded to the most recent window observations —
// the form servers use for per-route latency, where the process lives
// indefinitely and an unbounded histogram would grow with request
// count.
func (r *Registry) WindowHistogram(name string, window int) *Histogram {
	h := r.Histogram(name)
	h.SetWindow(window)
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
// "name_count/_mean/_p99" lines per histogram, sorted by name. It is
// the single metrics writer every server shares.
func (r *Registry) Expose(w io.Writer) {
	// Snapshot under the lock, read values after releasing it: funcs
	// and instruments may themselves take locks (consumer-group lag)
	// and must not do so under r.mu.
	r.mu.Lock()
	ctrs := make(map[string]*Counter, len(r.ctrs))
	for n, c := range r.ctrs {
		ctrs[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	funcs := make(map[string]func() int64, len(r.funcs))
	for n, f := range r.funcs {
		funcs[n] = f
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
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
		lines = append(lines,
			fmt.Sprintf("%s_count %d", n, h.Count()),
			fmt.Sprintf("%s_mean %.3f", n, h.Mean()),
			fmt.Sprintf("%s_p99 %.3f", n, h.Quantile(0.99)))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}

// Dump renders all instruments as "name value" lines sorted by name,
// for debugging and the viz status endpoints.
func (r *Registry) Dump() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	lines := make([]string, 0, len(r.ctrs)+len(r.gauges)+len(r.hists))
	for n, c := range r.ctrs {
		lines = append(lines, fmt.Sprintf("counter %s %d", n, c.Value()))
	}
	for n, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("gauge %s %d", n, g.Value()))
	}
	for n, h := range r.hists {
		lines = append(lines, fmt.Sprintf("hist %s count=%d mean=%.3f p99=%.3f", n, h.Count(), h.Mean(), h.Quantile(0.99)))
	}
	sort.Strings(lines)
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
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
