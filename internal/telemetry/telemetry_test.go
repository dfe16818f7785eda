package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value() = %d, want 42", got)
	}
	if got := c.Reset(); got != 42 {
		t.Fatalf("Reset() = %d, want 42", got)
	}
	if got := c.Value(); got != 0 {
		t.Fatalf("Value() after reset = %d, want 0", got)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(10)
	c.Add(-5)
	if got := c.Value(); got != 10 {
		t.Fatalf("Value() = %d, want 10 (negative add must be ignored)", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	const workers, per = 16, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value() = %d, want %d", got, workers*per)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(5)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Value(); got != 2 {
		t.Fatalf("Value() = %d, want 2", got)
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for _, v := range []float64{5, 1, 4, 2, 3} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count() = %d, want 5", got)
	}
	if got := h.Sum(); got != 15 {
		t.Fatalf("Sum() = %v, want 15", got)
	}
	if got := h.Mean(); got != 3 {
		t.Fatalf("Mean() = %v, want 3", got)
	}
	if got := h.Min(); got != 1 {
		t.Fatalf("Min() = %v, want 1", got)
	}
	if got := h.Max(); got != 5 {
		t.Fatalf("Max() = %v, want 5", got)
	}
	if got := h.Quantile(0.5); got != 3 {
		t.Fatalf("Quantile(0.5) = %v, want 3", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Observe(1)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("Reset must clear observations")
	}
	h.Observe(7)
	if h.Mean() != 7 {
		t.Fatal("histogram must be reusable after Reset")
	}
}

// TestHistogramWindow: a windowed histogram retains only the most
// recent observations (bounded memory in long-running servers) while
// count and sum stay cumulative.
func TestHistogramWindow(t *testing.T) {
	var h Histogram
	h.SetWindow(100)
	for i := 0; i < 5000; i++ {
		h.Observe(float64(i))
	}
	if got := h.Count(); got != 5000 {
		t.Fatalf("Count() = %d, want cumulative 5000", got)
	}
	if got := h.Sum(); got != 5000*4999/2 {
		t.Fatalf("Sum() = %v, want cumulative %d", got, 5000*4999/2)
	}
	if got := len(h.Snapshot()); got != 100 {
		t.Fatalf("retained %d observations, want window of 100", got)
	}
	// Quantiles cover the trailing window [4900, 4999].
	if min, max := h.Min(), h.Max(); min != 4900 || max != 4999 {
		t.Fatalf("window = [%v, %v], want [4900, 4999]", min, max)
	}
	// Quantile must not disturb the ring: more observations keep
	// rotating the same bounded buffer.
	h.Observe(5000)
	if got := len(h.Snapshot()); got != 100 {
		t.Fatalf("retained %d after post-sort observe, want 100", got)
	}
	if min, max := h.Min(), h.Max(); min != 4901 || max != 5000 {
		t.Fatalf("window after rotation = [%v, %v], want [4901, 5000]", min, max)
	}
	// Reset clears data but keeps the bound.
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("Reset must clear cumulative stats")
	}
	for i := 0; i < 300; i++ {
		h.Observe(1)
	}
	if got := len(h.Snapshot()); got != 100 {
		t.Fatalf("window lost across Reset: retained %d", got)
	}
}

// TestHistogramSetWindowTransitions: changing the window on a live
// histogram must keep the chronologically most recent observations
// and never leave a stale sort flag across the mode switch.
func TestHistogramSetWindowTransitions(t *testing.T) {
	// Shrink a wrapped ring: the retained samples must be the newest
	// observations, not whatever sat at the highest slice positions.
	var h Histogram
	h.SetWindow(4)
	for i := 0; i <= 5; i++ {
		h.Observe(float64(i)) // ring holds {2,3,4,5}, wrapped
	}
	h.SetWindow(2)
	if min, max := h.Min(), h.Max(); min != 4 || max != 5 {
		t.Fatalf("shrunk window = [%v, %v], want most recent [4, 5]", min, max)
	}
	// Windowed → unbounded: a quantile in windowed mode (which sorts a
	// scratch copy) must not leave sorted=true behind, or unbounded
	// quantiles would index the unsorted ring.
	var g Histogram
	g.SetWindow(4)
	for _, v := range []float64{5, 1, 9, 3} {
		g.Observe(v)
	}
	if q := g.Quantile(0.5); q != 3 {
		t.Fatalf("windowed median = %v, want 3", q)
	}
	g.SetWindow(0)
	if max := g.Max(); max != 9 {
		t.Fatalf("Max after un-windowing = %v, want 9", max)
	}
	// Growing the window keeps observing chronologically.
	var w Histogram
	w.SetWindow(2)
	for i := 0; i <= 3; i++ {
		w.Observe(float64(i)) // ring holds {2,3}
	}
	w.SetWindow(3)
	w.Observe(10)
	if min, max := w.Min(), w.Max(); min != 2 || max != 10 {
		t.Fatalf("grown window = [%v, %v], want [2, 10]", min, max)
	}
	w.Observe(11) // full again: evicts 2
	if min := w.Min(); min != 3 {
		t.Fatalf("grown ring evicted %v first, want oldest (2) gone, min 3", min)
	}
	// Unbounded → windowed AFTER a quantile read: quantiles must not
	// disturb arrival order, or the trim would keep the N largest
	// observations instead of the N most recent.
	var u Histogram
	for _, v := range []float64{5, 1, 9, 3} {
		u.Observe(v)
	}
	if q := u.Quantile(0.5); q != 3 {
		t.Fatalf("unbounded median = %v, want 3", q)
	}
	u.SetWindow(2)
	if min, max := u.Min(), u.Max(); min != 3 || max != 9 {
		t.Fatalf("bounded after quantile = [%v, %v], want most recent [3, 9]", min, max)
	}
}

func TestHistogramQuantileProperties(t *testing.T) {
	f := func(vals []float64) bool {
		var h Histogram
		ok := 0
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				h.Observe(v)
				ok++
			}
		}
		if ok == 0 {
			return true
		}
		// Quantiles must be monotone and bounded by min/max.
		q25, q50, q75 := h.Quantile(0.25), h.Quantile(0.5), h.Quantile(0.75)
		return h.Min() <= q25 && q25 <= q50 && q50 <= q75 && q75 <= h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryReusesInstruments(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("writes")
	c1.Inc()
	c2 := r.Counter("writes")
	if c2.Value() != 1 {
		t.Fatal("Counter must return the same instrument for the same name")
	}
	if r.Gauge("depth") != r.Gauge("depth") {
		t.Fatal("Gauge must be cached by name")
	}
	if r.Histogram("lat") != r.Histogram("lat") {
		t.Fatal("Histogram must be cached by name")
	}
	var out strings.Builder
	r.Expose(&out)
	if got, want := out.String(), "depth 0\nlat_count 0\nlat_mean 0.000\nlat_p99 0.000\nwrites 1\n"; got != want {
		t.Fatalf("Expose = %q, want %q", got, want)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{10, 15, 20, 25, 30}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 + 11.3*x
	}
	a, b, r2 := LinearFit(xs, ys)
	if math.Abs(a-3) > 1e-9 || math.Abs(b-11.3) > 1e-9 {
		t.Fatalf("fit = (%v, %v), want (3, 11.3)", a, b)
	}
	if math.Abs(r2-1) > 1e-12 {
		t.Fatalf("R² = %v, want 1", r2)
	}
}

func TestLinearFitPaperFigure2(t *testing.T) {
	// The five (nodes, throughput) points from Figure 2 (left). The paper
	// claims linear scale-up at ~11k samples/s per node; verify the claim
	// holds for the published numbers themselves.
	xs := []float64{10, 15, 20, 25, 30}
	ys := []float64{173000, 233000, 257000, 325000, 399000}
	_, slope, r2 := LinearFit(xs, ys)
	if slope < 10000 || slope > 12500 {
		t.Fatalf("paper slope = %v, want ≈11k samples/s/node", slope)
	}
	if r2 < 0.97 {
		t.Fatalf("paper R² = %v, want ≥ 0.97", r2)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if _, _, r2 := LinearFit([]float64{1}, []float64{2}); r2 != 0 {
		t.Fatal("single-point fit must return zero R²")
	}
	if _, slope, _ := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); slope != 0 {
		t.Fatal("vertical data must return zero slope")
	}
	_, slope, r2 := LinearFit([]float64{1, 2, 3}, []float64{5, 5, 5})
	if slope != 0 || r2 != 1 {
		t.Fatalf("horizontal data: slope=%v r2=%v, want 0 and 1", slope, r2)
	}
}
