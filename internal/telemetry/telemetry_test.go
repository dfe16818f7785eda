package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
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
	if got := h.Quantile(0.5); math.Abs(got-3) > 3.0/32 {
		t.Fatalf("Quantile(0.5) = %v, want 3 within 1/32", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

// TestHistogramIgnoresNonFinite: NaN and ±Inf would make the sum and
// the mean NaN for the life of the process, so Observe drops them.
func TestHistogramIgnoresNonFinite(t *testing.T) {
	var h Histogram
	h.Observe(2)
	h.Observe(6)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		h.Observe(v)
	}
	if h.Count() != 2 || h.Sum() != 8 || h.Min() != 2 || h.Max() != 6 {
		t.Fatalf("after non-finite observations: count %d sum %v min %v max %v, want 2 8 2 6",
			h.Count(), h.Sum(), h.Min(), h.Max())
	}
}

// TestHistogramQuantileMatchesOracle: for observations in [2^-10,
// 2^40), every quantile is within 1/32 of the exact nearest-rank value
// a sort of the same observations gives.
func TestHistogramQuantileMatchesOracle(t *testing.T) {
	const seed = 44
	rng := rand.New(rand.NewSource(seed))
	for input := 0; input < 200; input++ {
		// Each input draws log-uniformly over its own span of the range:
		// a narrow span puts most observations into a few buckets.
		lo := minExp + rng.Float64()*(maxExp-minExp)
		hi := lo + rng.Float64()*(maxExp-lo)
		vals := make([]float64, 1+rng.Intn(2000))
		var h Histogram
		for i := range vals {
			vals[i] = math.Exp2(lo + rng.Float64()*(hi-lo))
			h.Observe(vals[i])
		}
		slices.Sort(vals)
		for _, q := range []float64{0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999} {
			exact := vals[max(int(math.Ceil(q*float64(len(vals))))-1, 0)]
			if got := h.Quantile(q); math.Abs(got-exact) > exact/32 {
				t.Fatalf("seed %d input %d (n=%d, 2^%.2f…2^%.2f): Quantile(%v) = %v, exact %v",
					seed, input, len(vals), lo, hi, q, got, exact)
			}
		}
	}
}

// TestHistogramConcurrentExpose: observers racing a scraper lose no
// observation (meant for -race).
func TestHistogramConcurrentExpose(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(`lat{route="x"}`)
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range per {
				h.Observe(float64(w*per + i + 1))
			}
		}()
	}
	stop, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			r.Expose(io.Discard)
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-scraped
	const n = workers * per
	if h.Count() != n || h.Sum() != n*(n+1)/2 || h.Min() != 1 || h.Max() != n {
		t.Fatalf("count %d sum %v min %v max %v, want %d %d 1 %d", h.Count(), h.Sum(), h.Min(), h.Max(), n, n*(n+1)/2, n)
	}
	var out strings.Builder
	r.Expose(&out)
	if want := fmt.Sprintf("lat_count{route=\"x\"} %d\n", n); !strings.Contains(out.String(), want) {
		t.Fatalf("Expose = %q, want a line %q", out.String(), want)
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
	// A labelled histogram's suffix goes before its label set, so each
	// line parses as name{labels} value.
	r.Histogram(`http_ms{route="GET /x"}`).Observe(4)
	out.Reset()
	r.Expose(&out)
	want := "depth 0\n" +
		"http_ms_count{route=\"GET /x\"} 1\n" +
		"http_ms_mean{route=\"GET /x\"} 4.000\n" +
		"http_ms_p99{route=\"GET /x\"} 4.000\n" +
		"lat_count 0\nlat_mean 0.000\nlat_p99 0.000\nwrites 1\n"
	if got := out.String(); got != want {
		t.Fatalf("Expose = %q, want %q", got, want)
	}
}

// BenchmarkHistogramObserve: one observation, alone and from one
// goroutine per proc. Its allocs/op is pinned at 0 in PINS: the
// histogram never grows.
func BenchmarkHistogramObserve(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		h := new(Histogram)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i%4096) + 0.5)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		// One goroutine per proc, as RunParallel would start, but
		// started and waited for before the timer: RunParallel's setup
		// (9 allocs at -benchtime 1x) and a first park both allocate,
		// and at 1x the 0 pin would charge that to Observe.
		h := new(Histogram)
		procs := runtime.GOMAXPROCS(0)
		start := make(chan struct{})
		var ready, done sync.WaitGroup
		for p := range procs {
			ready.Add(1)
			done.Add(1)
			go func() {
				defer done.Done()
				ready.Done()
				<-start
				for i := p; i < b.N; i += procs {
					h.Observe(float64(i%4096) + 0.5)
				}
			}()
		}
		ready.Wait()
		b.ReportAllocs()
		b.ResetTimer()
		close(start)
		done.Wait()
	})
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
