package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simdata"
)

// TestSameSeedSameInputs: the generated inputs are a function of the
// seed alone — rows byte for byte, the request mix request for request.
func TestSameSeedSameInputs(t *testing.T) {
	sp := workloadByName("cluster-paced")
	rows := func(seed uint64) *rowSet {
		return genRows(simdata.NewFleet(sp.fleetConfig(seed)), sp.firstTick(), 20)
	}
	a, b, c := rows(7), rows(7), rows(8)
	if !bytes.Equal(a.arena, b.arena) || fmt.Sprint(a.off) != fmt.Sprint(b.off) {
		t.Fatal("the same seed generated different rows")
	}
	if bytes.Equal(a.arena, c.arena) {
		t.Fatal("different seeds generated the same rows")
	}
	if got, want := a.len(), 20*sp.units; got != want {
		t.Fatalf("%d rows, want %d", got, want)
	}
	if i := a.index(3, 12); a.unit(i) != 3 || a.tick(i) != 12 {
		t.Fatalf("index(3, 12) = %d, which is unit %d tick %d", i, a.unit(i), a.tick(i))
	}
	mix := func(seed int64) []readReq {
		g := newReadGen(seed, 4, 4)
		out := make([]readReq, 500)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	if fmt.Sprint(mix(7)) != fmt.Sprint(mix(7)) {
		t.Fatal("the same seed generated a different request mix")
	}
	if fmt.Sprint(mix(7)) == fmt.Sprint(mix(8)) {
		t.Fatal("different seeds generated the same request mix")
	}
	kinds := make(map[readKind]int)
	for _, q := range mix(7) {
		kinds[q.kind]++
		if q.unit < 0 || q.unit >= 4 || q.sensor < 0 || q.sensor >= 4 {
			t.Fatalf("request outside the fleet: %+v", q)
		}
	}
	if len(kinds) != int(numReadKinds) {
		t.Fatalf("500 draws covered %d of %d request kinds", len(kinds), numReadKinds)
	}
}

// TestOpenLoopCountsFromDueTime: a server that stalls must inflate the
// latencies of the rows that were due during the stall — not lower the
// rate at which rows are attempted.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		if served.Add(1) == 1 {
			time.Sleep(stall)
		}
		fmt.Fprintln(w, `{"accepted":2}`)
	}))
	defer srv.Close()
	sp := &spec{units: 1, sensors: 2, rowsPerSec: 100, writers: 1, faultOnset: -1}
	fleet := simdata.NewFleet(sp.fleetConfig(1))
	w := &window{s: &sut{spec: sp, fleet: fleet, url: srv.URL}, sp: sp, seconds: 1}
	w.rows = genRows(fleet, 0, sp.ticksFor(1))
	w.ref = make([]atomic.Int64, w.rows.len())
	w.ack = make([]atomic.Int64, w.rows.len())
	w.base = time.Now()
	start := w.base.Add(time.Millisecond)
	w.writer(0, start, start.Add(time.Second))
	if got := w.attempted.Load(); got != 100 {
		t.Fatalf("attempted %d rows in a 1 s window at 100 rows/s, want 100: the stall lowered the rate", got)
	}
	if w.failed.Load() != 0 {
		t.Fatalf("%d rows failed: %s", w.failed.Load(), *w.firstErr.Load())
	}
	lat := w.put.sorted()
	// Rows due during the stall (about 30 of them) waited for the
	// connection; each is charged from its due time.
	slow := len(lat) - sort.SearchFloat64s(lat, 100)
	if lat[len(lat)-1] < ms(stall) || slow < 15 {
		t.Fatalf("slowest row %.1f ms, %d rows over 100 ms: the stall's queueing was not charged to the rows", lat[len(lat)-1], slow)
	}
	if frac := fracWithin(lat, 100, 100); frac > 0.85 {
		t.Fatalf("SLO fraction %.2f after a %v stall", frac, stall)
	}
}

func TestWatermarkMatcher(t *testing.T) {
	var wm watermark
	t0 := time.Now()
	for i := 0; i < 4; i++ {
		wm.add(i, 10, t0.Add(time.Duration(i)*time.Millisecond)) // thresholds 10, 20, 30, 40
	}
	var got []int
	collect := func(row int, _ time.Time, lat time.Duration) {
		got = append(got, row)
		if want := 10*time.Millisecond - time.Duration(row)*time.Millisecond; lat != want {
			t.Errorf("row %d latency %v, want %v", row, lat, want)
		}
	}
	wm.advance(9, t0.Add(10*time.Millisecond), collect)
	if len(got) != 0 {
		t.Fatalf("counter 9 covered rows %v", got)
	}
	wm.advance(25, t0.Add(10*time.Millisecond), collect)
	if fmt.Sprint(got) != "[0 1]" || wm.outstanding() != 2 {
		t.Fatalf("counter 25 covered rows %v, %d outstanding", got, wm.outstanding())
	}
	got = nil
	wm.advance(25, t0.Add(10*time.Millisecond), collect)
	wm.advance(1000, t0.Add(10*time.Millisecond), collect)
	if fmt.Sprint(got) != "[2 3]" || wm.outstanding() != 0 {
		t.Fatalf("counter 1000 covered rows %v, %d outstanding", got, wm.outstanding())
	}
}

func TestPercentiles(t *testing.T) {
	var s []float64
	for i := 1; i <= 1000; i++ {
		s = append(s, float64(i))
	}
	if p := percentile(s, 0.5); p != 500.5 {
		t.Fatalf("median of 1..1000 = %v", p)
	}
	if percentile(nil, 0.5) != 0 || percentile([]float64{7}, 0.99) != 7 {
		t.Fatal("degenerate samples")
	}
	// 1000 samples: p99 has ten beyond it, p99.9 only one.
	if l, v := tailPercentile(s); l != 0.99 || v < 990 || v > 991 {
		t.Fatalf("tail of 1000 samples: level %v value %v", l, v)
	}
	if l, _ := tailPercentile(s[:100]); l != 0.9 {
		t.Fatalf("tail of 100 samples: level %v, want 0.9", l)
	}
	if l, _ := tailPercentile(s[:50]); l != 0.5 {
		t.Fatalf("tail of 50 samples: level %v, want the median", l)
	}
	if l, _ := tailPercentile(append(s, s...)); l != 0.99 {
		t.Fatalf("tail of 2000 samples: level %v", l)
	}
	if f := fracWithin([]float64{1, 2, 3, 4}, 3, 8); f != 3.0/8 {
		t.Fatalf("fracWithin counted %v: a failed operation must count as a miss", f)
	}
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 { // statistics.quantiles(range(1, 11), n=4)
		t.Fatalf("quartiles %v %v", q1, q3)
	}
}

// TestSliceRates: throughput and CPU per operation come from the slices
// inside the measured window only — the warm-up's and the drain's marks
// are left out — and a run of several rounds reports the median round.
func TestSliceRates(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	w := &window{sp: &spec{slice: time.Second}, measureFrom: at(2000), deadline: at(5000)}
	// A mark lands a little after its boundary; the burst in the slice
	// from 3 s to 4 s must not move the median.
	for i, ops := range []int64{0, 5, 100, 200, 1000, 1100, 1150} {
		w.marks = append(w.marks, sliceMark{at: at(1000*i + 2), ops: ops, cpu: time.Duration(i) * time.Second})
	}
	perSec, cpu := w.sliceRates()
	if fmt.Sprint(perSec) != "[100 800 100]" {
		t.Fatalf("slice rates %v, want the three slices between 2 s and 5 s", perSec)
	}
	if median(perSec) != 100 || median(cpu) != 1e6/100 {
		t.Fatalf("median slice: %v ops/s, %v us/op", median(perSec), median(cpu))
	}
	m, counts := medianRound(
		[]map[string]metric{{"x": {3, "ms"}}, {"x": {1, "ms"}}, {"x": {2, "ms"}}},
		[]map[string]int{{"x": 10}, {"x": 10}, {"x": 10}})
	if m["x"] != (metric{2, "ms"}) || counts["x"] != 30 {
		t.Fatalf("median of rounds %v, counts %v", m, counts)
	}
	fire := workloadByName("firehose")
	if n, each := fire.rounds(20); n != 3 || each != 20.0/3 {
		t.Fatalf("a 20 s firehose run makes %d rounds of %v s", n, each)
	}
	if n, _ := fire.rounds(1); n != 1 {
		t.Fatalf("a 1 s firehose run makes %d rounds", n)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "ack_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "throughput_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		spec metricSpec
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 104, 106, 105, 105}, "ok"},
		{lower, steady, []float64{115, 114, 116, 115, 117}, "worse"},
		{lower, steady, []float64{80, 81, 79, 80, 82}, "ok"},
		{higher, steady, []float64{85, 86, 84, 85, 85}, "worse"},
		{higher, steady, []float64{120, 121, 119, 120, 122}, "ok"},
		{lower, []float64{100, 140, 70, 120, 90}, []float64{125, 110, 150, 95, 130}, "unresolved"},
		{lower, []float64{100, 140, 70, 120, 90}, []float64{50, 40, 60, 45, 55}, "ok"},
	} {
		if got, _, _, _ := verdict(tc.spec, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v → %v: %s, want %s", tc.spec.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

// smokeSpecs are the four workloads at sizes a test can afford. The
// shapes (assembly, detector, loop kind, preload past one sealed hour)
// are the real ones.
func smokeSpecs() []*spec {
	var out []*spec
	for _, sp := range workloads() {
		switch sp.name {
		case "firehose":
			// two rounds of 4000 rows, so the smoke run folds rounds too
			sp.units, sp.sensors, sp.roundRows, sp.roundSeconds = 4, 8, 4000, 1
		case "detect-paced":
			sp.units, sp.sensors, sp.trainTicks, sp.faultOnset, sp.rowsPerSec = 4, 12, 64, 64+5, 40
		case "dashboard":
			sp.units, sp.sensors = 2, 2
		case "cluster-paced":
			sp.units, sp.sensors, sp.faultOnset, sp.rowsPerSec = 4, 8, 8, 40
			sp.detectorParams = map[string]float64{"warmup": 4}
		}
		sp.warmup = min(sp.warmup, 0.1)
		if sp.slice > 0 {
			sp.slice = 250 * time.Millisecond
		}
		out = append(out, sp)
	}
	return out
}

// TestSmoke drives each workload for a second or two and one of them traced,
// so the benchmark cannot rot unnoticed: boot, drive, drain, every
// correctness check, every metric finite — and BENCHMARK.json naming
// exactly the workloads and metrics the program reports.
func TestSmoke(t *testing.T) {
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	bf, err := loadBenchFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	names := func(specs []metricSpec) []string {
		var out []string
		for _, m := range specs {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	listed := make(map[string]string)
	for _, wl := range bf.Workloads {
		listed[wl.Name] = wl.Why
	}
	for _, sp := range smokeSpecs() {
		// BENCHMARK.json lists the workloads the driver gates on; the
		// program may run more (README.md says which and why).
		if why, ok := listed[sp.name]; ok && why != sp.why {
			t.Errorf("BENCHMARK.json says of %q: %q, the program: %q", sp.name, why, sp.why)
		}
		delete(listed, sp.name)
		traced := sp.name == "dashboard"
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel()
			rep, err := runWorkload(sp, runOpts{seed: 3, seconds: 1, traced: traced, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("correct %v, attempted %d, failed %d", rep.Correct, rep.Attempted, rep.Failed)
			}
			want := names(bf.EndToEnd)
			if traced {
				want = names(bf.PerLayer)
			}
			if got := metricNames(rep.Metrics); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("the run reports metrics\n%v\nBENCHMARK.json lists\n%v", got, want)
			}
			if !traced {
				for name, m := range rep.Metrics {
					if m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v: must never be 0", name, m.Value)
					}
				}
			}
		})
	}
}
