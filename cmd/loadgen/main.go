// Command loadgen is the million-client load harness: an open-loop,
// coordinated-omission-safe generator that drives the gateway with a
// configurable client mix — ingest writers (POST /api/v1/points),
// interactive dashboard readers (the cached query tier), bulk NDJSON
// exporters, and SSE anomaly tailers — and proves the admission
// subsystem's contract under deliberate overload.
//
// Open-loop means arrivals follow a fixed schedule, not the server's
// pace: request i of a class is due at start + i/rate, and its latency
// is measured from that scheduled instant, so time a client would have
// spent queueing behind a slow server counts against the server
// (avoiding the coordinated-omission trap where a stalled load loop
// under-samples exactly the latencies that matter). A fixed worker
// pool far larger than the steady-state concurrency stands in for an
// unbounded client population.
//
// The run has three phases:
//
//  1. Calibrate: a closed-loop writer pool hammers ingest and the
//     acked-row rate under admission control is the measured capacity
//     (with -self, capacity is pinned by the per-node service-rate
//     throttle, so the number is CPU-independent).
//  2. Drive: writers offer -overload × capacity open-loop, readers and
//     exporters ride along at -read-frac / -bulk-frac of that rate,
//     tailers hold SSE streams. Per-class latency histograms and
//     shed/error counters record what the admission layer did.
//  3. Verify: the storage tier drains, then every acked sample must be
//     queryable — overload shedding is only legal BEFORE the ack.
//
// With -assert the process exits non-zero unless the overload contract
// held: bulk shed visibly, bulk shed at a higher rate than ingest
// (priority ordering), accepted-ingest p99 stayed under
// -max-ingest-p99, and not one acked sample was lost.
//
// Results land in BENCH_load.json (benchjson schema plus a "run"
// block) and, via -bench, as `go test -bench`-format lines for
// cmd/benchgate — `make load-smoke` gates them against the committed
// baseline.
//
// Usage:
//
//	loadgen -self -duration 8s -overload 2 -assert          # in-process System
//	loadgen -target http://127.0.0.1:8080 -duration 30s     # make cluster, or any gateway
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	v1 "repro/internal/api/v1"
	"repro/internal/telemetry"
	"repro/sentinel"
	"repro/sentinel/client"
)

// classStats accumulates one traffic class's outcome: latencies of
// successful requests (measured from the open-loop scheduled send
// time), admission sheds, and other errors.
type classStats struct {
	name     string
	hist     *telemetry.Histogram // latency ns of successes
	attempts atomic.Int64
	ok       atomic.Int64
	shed     atomic.Int64
	errs     atomic.Int64
}

func newClassStats(name string) *classStats {
	h := &telemetry.Histogram{}
	// Bound retention so a nightly-length run keeps a stable memory
	// footprint; quantiles then cover the trailing window, which under
	// a steady offered rate is the steady state we are asserting on.
	h.SetWindow(1 << 18)
	return &classStats{name: name, hist: h}
}

func (c *classStats) shedFrac() float64 {
	a := c.attempts.Load()
	if a == 0 {
		return 0
	}
	return float64(c.shed.Load()) / float64(a)
}

// record classifies one request outcome. Context-canceled attempts at
// shutdown are dropped — they are the harness stopping, not the
// server answering.
func (c *classStats) record(ctx context.Context, lat time.Duration, err error) {
	if err != nil && ctx.Err() != nil {
		return
	}
	c.attempts.Add(1)
	switch {
	case err == nil:
		c.ok.Add(1)
		c.hist.Observe(float64(lat.Nanoseconds()))
	case errors.Is(err, client.ErrOverloaded):
		c.shed.Add(1)
	default:
		var ae *v1.Error
		if errors.As(err, &ae) && ae.Status == 429 {
			c.shed.Add(1)
			return
		}
		c.errs.Add(1)
	}
}

// report is the "run" block of BENCH_load.json: everything about the
// run that is not a benchmark metric.
type report struct {
	Mode            string  `json:"mode"`
	Duration        string  `json:"duration"`
	CapacityRowsSec float64 `json:"capacity_rows_per_sec"`
	OverloadFactor  float64 `json:"overload_factor"`
	OfferedRowsSec  float64 `json:"offered_rows_per_sec"`

	AckedRows     int64  `json:"acked_rows"`
	AckedPoints   int64  `json:"acked_points"`
	Queryable     int64  `json:"queryable_points"`
	AckedLoss     int64  `json:"acked_point_loss"`
	IngestSheds   int64  `json:"ingest_sheds"`
	ReadSheds     int64  `json:"interactive_sheds"`
	BulkSheds     int64  `json:"bulk_sheds"`
	TailerEvents  int64  `json:"tailer_events"`
	TailerSheds   int64  `json:"tailer_sheds"`
	OtherErrors   int64  `json:"other_errors"`
	ShedFracOrder string `json:"shed_frac_order"`

	DetectorWorkers int   `json:"detector_workers,omitempty"`
	ScaleUps        int64 `json:"detector_scale_ups,omitempty"`
	ScaleDowns      int64 `json:"detector_scale_downs,omitempty"`

	Failures []string `json:"failures,omitempty"`
	Pass     bool     `json:"pass"`
}

// benchEntry mirrors cmd/benchjson's per-benchmark schema so the
// emitted document doubles as a benchgate baseline.
type benchEntry struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	var (
		self     = flag.Bool("self", false, "boot an in-process System and drive it over a real listener")
		target   = flag.String("target", "", "drive an external gateway base URL (e.g. the make cluster topology)")
		units    = flag.Int("units", 8, "fleet units the writers cover (must match the target's fleet)")
		sensors  = flag.Int("sensors", 8, "sensors per unit (one write = one full sensor row)")
		nodes    = flag.Int("nodes", 3, "-self: storage nodes")
		nodeRate = flag.Float64("node-rate", 4000, "-self: per-node service ceiling, samples/s (0 = unthrottled)")
		calib    = flag.Duration("calibrate", 3*time.Second, "closed-loop capacity-measurement phase length")
		duration = flag.Duration("duration", 8*time.Second, "open-loop drive phase length")
		overload = flag.Float64("overload", 2.0, "offered ingest rate as a multiple of measured capacity")
		writers  = flag.Int("writers", 32, "ingest worker pool (stands in for the writer population)")
		readers  = flag.Int("readers", 8, "interactive reader worker pool")
		bulkers  = flag.Int("bulkers", 4, "bulk NDJSON exporter worker pool")
		tailers  = flag.Int("tailers", 4, "concurrent SSE anomaly tailers held across the run")
		readFrac = flag.Float64("read-frac", 0.10, "interactive request rate as a fraction of offered ingest")
		bulkFrac = flag.Float64("bulk-frac", 0.05, "bulk request rate as a fraction of offered ingest")
		maxP99   = flag.Duration("max-ingest-p99", 250*time.Millisecond, "-assert: accepted-ingest p99 bound")
		assert   = flag.Bool("assert", false, "exit non-zero unless the overload contract held")
		outPath  = flag.String("out", "BENCH_load.json", "result JSON path (\"-\" for stdout)")
		benchOut = flag.String("bench", "", "also write go-bench-format lines here (benchgate input)")
		drainTO  = flag.Duration("drain-timeout", 30*time.Second, "how long verification waits for storage to drain")
	)
	flag.Parse()
	if (*self && *target != "") || (!*self && *target == "") {
		fmt.Fprintln(os.Stderr, "loadgen: exactly one of -self or -target required")
		os.Exit(2)
	}

	rep := report{Mode: "target", Duration: duration.String(), OverloadFactor: *overload}
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		fmt.Fprintln(os.Stderr, "loadgen: FAIL:", msg)
		rep.Failures = append(rep.Failures, msg)
	}

	// --- Gateway under test -------------------------------------------------
	baseURL := *target
	var (
		sys    *sentinel.System
		ctrl   *admission.Controller
		pool   *sentinel.DetectorPool
		scaler *admission.Autoscaler
	)
	if *self {
		rep.Mode = "self"
		var err error
		sys, err = sentinel.New(sentinel.Config{
			StorageNodes:    *nodes,
			Units:           *units,
			SensorsPerUnit:  *sensors,
			Seed:            42,
			PerNodeRate:     *nodeRate,
			PrimaryDetector: "cusum", // streaming family: no offline training
			// Deep partition buffers with the shed limit far below
			// them: admission must engage while publish is still
			// non-blocking, or accepted-ingest latency absorbs the
			// overload the controller was supposed to reject. 2048
			// records total across 4×4096 partition windows leaves an
			// 8× skew margin before any single partition can block.
			BusBuffer: 4096,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		defer sys.Close()
		pool = sys.StartDetectors(1)
		defer pool.Stop()
		// The detector group shares the bus's uncommitted windows: if
		// it lags to a partition cap, publishes — and therefore acked
		// ingest — block behind detection. Its lag is an overload
		// signal exactly like storage lag.
		ctrl = sys.NewAdmissionController(2048, admission.Config{
			Signals: []admission.Signal{{Name: "detector_lag", Load: pool.Group().Lag, Limit: 2048}},
		})
		scaler = sys.AutoscaleDetectors(pool, admission.AutoscaleConfig{Min: 1})
		defer scaler.Stop()
		h, tail := sys.Gateway(0, sentinel.GatewayConfig{
			Now:       func() int64 { return time.Now().Unix() },
			Admission: ctrl,
			AccessLog: log.New(io.Discard, "", 0), // 10^3 req/s of access lines helps nobody
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: listen:", err)
			os.Exit(1)
		}
		srv := &http.Server{Handler: h}
		go srv.Serve(ln)
		defer srv.Close()
		defer tail.Close()
		baseURL = "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "loadgen: self gateway on %s (capacity throttle %.0f samples/s × %d nodes)\n",
			baseURL, *nodeRate, *nodes)
	}

	// One shared SDK client, retries off: a shed must surface as
	// ErrOverloaded and be counted, not silently retried away. The
	// transport is sized for the worker population — the default two
	// idle conns per host would serialize the whole fleet.
	transport := &http.Transport{MaxIdleConns: 4096, MaxIdleConnsPerHost: 4096}
	defer transport.CloseIdleConnections()
	cl, err := client.New(baseURL,
		client.WithHTTPClient(&http.Client{Transport: transport, Timeout: 30 * time.Second}),
		client.WithRetry(0, time.Millisecond))
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}

	// --- Traffic shapes -----------------------------------------------------
	// Writers emit full sensor rows in a private timestamp band far
	// above any simulated-fleet data: row i is unit i%units at
	// timestamp base + i/units, so every (unit, ts, sensor) cell is
	// written exactly once and verification can demand exact presence.
	const tsBase = int64(1) << 20
	var (
		rowSeq      atomic.Int64
		ackedRows   atomic.Int64
		ackedPoints atomic.Int64
	)
	makeRow := func() []v1.Point {
		i := rowSeq.Add(1) - 1
		unit := int(i) % *units
		ts := tsBase + i/int64(*units)
		pts := make([]v1.Point, *sensors)
		for s := 0; s < *sensors; s++ {
			// Steady-state values are quiet on purpose: a drifting
			// signal keeps the streaming detectors permanently alarmed
			// and their flag write-back then competes with ingest for
			// the throttled storage budget. Sparse spikes keep the
			// anomaly tail alive without that flood.
			v := float64(unit) + 0.05*math.Sin(2*math.Pi*float64(ts%7)/7)
			if i%997 == 0 && s == 0 {
				v += 40
			}
			pts[s] = v1.Point{
				Metric:    "energy",
				Timestamp: ts,
				Value:     v,
				Tags:      map[string]string{"unit": strconv.Itoa(unit), "sensor": strconv.Itoa(s)},
			}
		}
		return pts
	}
	writeRow := func(ctx context.Context) error {
		n, err := cl.PutPoints(ctx, makeRow())
		if err != nil {
			return err
		}
		ackedRows.Add(1)
		ackedPoints.Add(int64(n))
		return nil
	}
	// Readers sweep a sliding window over what the writers have landed
	// so far; exporters fetch the same shape as NDJSON, which the
	// gateway classifies as Bulk.
	var readSeq atomic.Int64
	readParams := func() client.QueryParams {
		written := rowSeq.Load() / int64(*units)
		from := tsBase
		if written > 256 {
			from = tsBase + written - 256
		}
		return client.QueryParams{
			Unit: strconv.Itoa(int(readSeq.Add(1)) % *units),
			From: from,
			To:   tsBase + written,
		}
	}
	readQuery := func(ctx context.Context) error {
		_, err := cl.Query(ctx, readParams())
		return err
	}
	bulkQuery := func(ctx context.Context) error {
		return cl.QueryNDJSON(ctx, readParams(), func(v1.Series) error { return nil })
	}

	// --- SSE tailers (held across calibrate + drive) ------------------------
	var tailEvents, tailSheds atomic.Int64
	tailCtx, stopTails := context.WithCancel(context.Background())
	var tailWG sync.WaitGroup
	for i := 0; i < *tailers; i++ {
		tailWG.Add(1)
		go func() {
			defer tailWG.Done()
			for tailCtx.Err() == nil {
				st, err := cl.StreamAnomalies(tailCtx)
				if err != nil {
					if errors.Is(err, client.ErrOverloaded) {
						tailSheds.Add(1)
					}
					select {
					case <-tailCtx.Done():
					case <-time.After(500 * time.Millisecond):
					}
					continue
				}
				for {
					if _, err := st.Next(); err != nil {
						break
					}
					tailEvents.Add(1)
				}
				st.Close()
			}
		}()
	}

	// --- Phase 1: calibrate -------------------------------------------------
	ingest := newClassStats("ingest")
	interactive := newClassStats("interactive")
	bulk := newClassStats("bulk")

	calStats := newClassStats("calibrate")
	calCtx, calCancel := context.WithTimeout(context.Background(), *calib)
	var calWG sync.WaitGroup
	for w := 0; w < *writers; w++ {
		calWG.Add(1)
		go func() {
			defer calWG.Done()
			for calCtx.Err() == nil {
				t0 := time.Now()
				err := writeRow(calCtx)
				calStats.record(calCtx, time.Since(t0), err)
			}
		}()
	}
	calWG.Wait()
	calCancel()
	capacity := float64(calStats.ok.Load()) / calib.Seconds()
	rep.CapacityRowsSec = capacity
	if capacity < 1 {
		fail("calibration measured no capacity (acked %d rows in %s, %d sheds, %d errors)",
			calStats.ok.Load(), calib, calStats.shed.Load(), calStats.errs.Load())
		finish(&rep, nil, nil, nil, *outPath, *benchOut)
	}
	offered := capacity * *overload
	rep.OfferedRowsSec = offered
	fmt.Fprintf(os.Stderr, "loadgen: capacity %.0f rows/s (calibration shed %.0f%%), driving %.0f rows/s open-loop for %s\n",
		capacity, 100*calStats.shedFrac(), offered, duration)

	// --- Phase 2: drive open-loop -------------------------------------------
	runCtx, runCancel := context.WithTimeout(context.Background(), *duration)
	var runWG sync.WaitGroup
	openLoop := func(rate float64, workers int, cs *classStats, fire func(context.Context) error) {
		if rate <= 0 || workers <= 0 {
			return
		}
		start := time.Now()
		var seq atomic.Int64
		for w := 0; w < workers; w++ {
			runWG.Add(1)
			go func() {
				defer runWG.Done()
				for {
					i := seq.Add(1) - 1
					sched := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					if d := time.Until(sched); d > 0 {
						select {
						case <-runCtx.Done():
							return
						case <-time.After(d):
						}
					}
					if runCtx.Err() != nil {
						return
					}
					err := fire(runCtx)
					// Latency from the SCHEDULED send, not the actual
					// one: a stalled server owns the queueing delay.
					cs.record(runCtx, time.Since(sched), err)
				}
			}()
		}
	}
	openLoop(offered, *writers, ingest, writeRow)
	openLoop(offered**readFrac, *readers, interactive, readQuery)
	openLoop(offered**bulkFrac, *bulkers, bulk, bulkQuery)
	runWG.Wait()
	runCancel()
	stopTails()
	tailWG.Wait()

	// --- Phase 3: drain and verify ------------------------------------------
	if sys != nil {
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
		if err := sys.Topic().Group(sentinel.GroupStorage).Sync(drainCtx); err != nil {
			fail("storage group did not drain within %s: %v", *drainTO, err)
		}
		cancel()
	}
	// Count every point in the writers' band through the query path,
	// waiting out residual drain (and, right after overload, residual
	// shedding — the verifier backs off on ErrOverloaded like a good
	// citizen). MaxPoints 0 means exact series, no LTTB thinning.
	verify := func() (int64, error) {
		lastTs := tsBase + rowSeq.Load()/int64(*units) + 1
		var total int64
		for u := 0; u < *units; u++ {
			series, err := cl.Query(context.Background(), client.QueryParams{
				Unit: strconv.Itoa(u),
				From: tsBase,
				To:   lastTs,
			})
			if err != nil {
				return 0, err
			}
			for i := range series {
				total += int64(len(series[i].Samples))
			}
		}
		return total, nil
	}
	acked := ackedPoints.Load()
	deadline := time.Now().Add(*drainTO)
	var queryable int64
	for {
		q, err := verify()
		if err == nil {
			queryable = q
			if queryable >= acked {
				break
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				fail("verification queries kept failing: %v", err)
			}
			break
		}
		wait := 500 * time.Millisecond
		var oe *client.OverloadedError
		if errors.As(err, &oe) && oe.RetryAfter > wait {
			wait = oe.RetryAfter
		}
		time.Sleep(wait)
	}

	// --- Report and assert --------------------------------------------------
	rep.AckedRows = ackedRows.Load()
	rep.AckedPoints = acked
	rep.Queryable = queryable
	rep.AckedLoss = acked - queryable
	if rep.AckedLoss < 0 {
		rep.AckedLoss = 0 // over-count impossible per (unit,ts,sensor); belt and braces
	}
	rep.IngestSheds = ingest.shed.Load() + calStats.shed.Load()
	rep.ReadSheds = interactive.shed.Load()
	rep.BulkSheds = bulk.shed.Load()
	rep.TailerEvents = tailEvents.Load()
	rep.TailerSheds = tailSheds.Load()
	rep.OtherErrors = ingest.errs.Load() + interactive.errs.Load() + bulk.errs.Load() + calStats.errs.Load()
	rep.ShedFracOrder = fmt.Sprintf("bulk %.3f ≥ interactive %.3f ≥ ingest %.3f",
		bulk.shedFrac(), interactive.shedFrac(), ingest.shedFrac())
	if pool != nil {
		rep.DetectorWorkers = pool.Workers()
		rep.ScaleUps = scaler.ScaleUps.Value()
		rep.ScaleDowns = scaler.ScaleDowns.Value()
	}

	if *assert {
		if ingest.ok.Load() == 0 {
			fail("no ingest request succeeded during the drive phase")
		}
		if bulk.shed.Load() == 0 {
			fail("no bulk sheds at %.1f× capacity — the admission layer never engaged", *overload)
		}
		if bf, inf := bulk.shedFrac(), ingest.shedFrac(); bf <= inf {
			fail("priority inversion: bulk shed frac %.3f ≤ ingest shed frac %.3f", bf, inf)
		}
		if p99 := time.Duration(ingest.hist.Quantile(0.99)); p99 > *maxP99 {
			fail("accepted-ingest p99 %s exceeds bound %s at %.1f× capacity", p99, *maxP99, *overload)
		}
		if queryable < acked {
			fail("acked-sample loss: %d points acked, only %d queryable", acked, queryable)
		}
		if rep.OtherErrors > 0 {
			fail("%d non-shed errors — overload must shed typed, not fail", rep.OtherErrors)
		}
	}
	rep.Pass = len(rep.Failures) == 0
	finish(&rep, ingest, interactive, bulk, *outPath, *benchOut)
}

// finish writes BENCH_load.json (+ optional bench lines) and exits.
// Passing nil class stats (calibration failure) still emits the report
// so CI artifacts show what happened.
func finish(rep *report, ingest, interactive, bulk *classStats, outPath, benchOut string) {
	doc := map[string]any{
		"run":        rep,
		"benchmarks": map[string]benchEntry{},
	}
	benches := doc["benchmarks"].(map[string]benchEntry)
	var lines []string
	add := func(bench string, cs *classStats, rate float64) {
		if cs == nil {
			return
		}
		p99 := cs.hist.Quantile(0.99)
		benches[bench] = benchEntry{
			Iterations: cs.attempts.Load(),
			NsPerOp:    p99,
			Metrics: map[string]float64{
				"req/s":     rate,
				"p50_ms":    cs.hist.Quantile(0.50) / 1e6,
				"p999_ms":   cs.hist.Quantile(0.999) / 1e6,
				"shed_frac": cs.shedFrac(),
			},
		}
		lines = append(lines, fmt.Sprintf("%s \t%d\t%.0f ns/op\t%.1f req/s",
			bench, max64(cs.attempts.Load(), 1), p99, rate))
	}
	dur, _ := time.ParseDuration(rep.Duration)
	secs := dur.Seconds()
	if secs <= 0 {
		secs = 1
	}
	if ingest != nil {
		add("BenchmarkLoadIngest", ingest, float64(ingest.ok.Load())/secs)
		add("BenchmarkLoadInteractive", interactive, float64(interactive.ok.Load())/secs)
		add("BenchmarkLoadBulk", bulk, float64(bulk.ok.Load())/secs)
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen: marshal:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if outPath == "-" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(outPath, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	if benchOut != "" {
		var buf []byte
		for _, l := range lines {
			buf = append(buf, l...)
			buf = append(buf, '\n')
		}
		if err := os.WriteFile(benchOut, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
	}
	if !rep.Pass {
		fmt.Fprintf(os.Stderr, "loadgen: FAILED (%d contract violations)\n", len(rep.Failures))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "loadgen: PASS — %d rows acked at %.0f/%.0f rows/s offered/capacity; sheds ingest=%d interactive=%d bulk=%d; %s\n",
		rep.AckedRows, rep.OfferedRowsSec, rep.CapacityRowsSec,
		rep.IngestSheds, rep.ReadSheds, rep.BulkSheds, rep.ShedFracOrder)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
