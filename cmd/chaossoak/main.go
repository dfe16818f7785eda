// Command chaossoak proves the resilience layer end to end: it boots a
// full System, keeps ingest, detection and queries running, and drives
// seeded fault scenarios through the injection fabric — a TSD killed
// and restarted mid-ingest, a 10% RPC error burst, a stalled proxy
// submission edge, and a full storage blackout that trips every
// circuit breaker — then verifies the invariants the layer promises:
//
//   - zero acknowledged-sample loss: every point acked onto the commit
//     log is queryable from storage once the faults clear;
//   - bounded recovery: the storage group drains and every breaker
//     re-closes within the recovery budget after each scenario;
//   - query availability throughout: a reader hammering a warmed
//     window never sees an error — at worst a stale, degraded-marked
//     answer during the blackout;
//   - the breakers actually cycle closed → open → half-open → closed.
//
// The verdict and the counters land in BENCH_chaos.json (CI runs this
// under -race via `make chaos`). Exit status 0 means every invariant
// held.
//
// Usage:
//
//	chaossoak [-seed 42] [-duration 20s] [-out BENCH_chaos.json]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	v1 "repro/internal/api/v1"
	"repro/internal/bus"
	"repro/internal/faultinject"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/tsdb"
	"repro/sentinel"
	"repro/sentinel/client"
)

// report is the BENCH_chaos.json schema.
type report struct {
	Seed     uint64   `json:"seed"`
	Duration string   `json:"duration"`
	Phases   []string `json:"phases"`

	PublishedSamples int64 `json:"published_samples"`
	PublishFailures  int64 `json:"publish_failures"`
	QueryableSamples int64 `json:"queryable_samples"`
	AckedSampleLoss  int64 `json:"acked_sample_loss"`
	ProxyDelivered   int64 `json:"proxy_delivered"`
	ProxyDropped     int64 `json:"proxy_dropped"`
	ProxyRetries     int64 `json:"proxy_retries"`

	QueriesTotal    int64 `json:"queries_total"`
	QueriesFailed   int64 `json:"queries_failed"`
	QueriesDegraded int64 `json:"queries_degraded"`
	HedgedReads     int64 `json:"hedged_reads"`
	HedgeWins       int64 `json:"hedge_wins"`
	DegradedServes  int64 `json:"degraded_serves"`

	BreakerOpens     int64 `json:"breaker_opens"`
	BreakerHalfOpens int64 `json:"breaker_half_opens"`
	BreakerCloses    int64 `json:"breaker_closes"`

	WriterParks      int64 `json:"writer_parks"`
	DetectorParks    int64 `json:"detector_parks"`
	AnomaliesWritten int64 `json:"anomalies_written"`
	DetectorErrors   int64 `json:"detector_errors"`

	// The admission-blackout scenario: points acked through the
	// admission-gated gateway while storage was dark, typed 503 sheds
	// the controller issued, and how many of the acked points were
	// queryable after recovery (must be all of them).
	AdmissionAcked     int64 `json:"admission_acked_points"`
	AdmissionSheds     int64 `json:"admission_sheds"`
	AdmissionQueryable int64 `json:"admission_queryable_points"`

	RecoveryMS map[string]int64 `json:"recovery_ms"`
	Failures   []string         `json:"failures,omitempty"`
	Pass       bool             `json:"pass"`
}

func main() {
	seed := flag.Uint64("seed", 42, "seed for the fleet, the fault injector and every jittered backoff")
	duration := flag.Duration("duration", 20*time.Second, "approximate soak length; fault-hold windows scale with it")
	out := flag.String("out", "BENCH_chaos.json", "output JSON path (\"-\" for stdout)")
	flag.Parse()

	const (
		units     = 6
		sensors   = 8
		warmSteps = 100 // covers the cusum warmup (60) and the read window
		phaseStep = 120
	)
	hold := *duration / 10 // per-scenario fault-hold window
	if hold < 250*time.Millisecond {
		hold = 250 * time.Millisecond
	}
	recoveryBudget := 30 * time.Second

	rep := report{Seed: *seed, Duration: duration.String(), RecoveryMS: map[string]int64{}}
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		fmt.Fprintln(os.Stderr, "chaossoak: FAIL:", msg)
		rep.Failures = append(rep.Failures, msg)
	}

	sys, err := sentinel.New(sentinel.Config{
		StorageNodes:    3,
		Units:           units,
		SensorsPerUnit:  sensors,
		Seed:            *seed,
		FaultFraction:   0.5,
		FaultOnset:      80,
		ShiftSigma:      8,
		PrimaryDetector: "cusum", // streaming family: no offline training needed
		Breaker: resilience.BreakerConfig{
			FailureThreshold: 4,
			Cooldown:         250 * time.Millisecond,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaossoak:", err)
		os.Exit(1)
	}
	defer sys.Close()

	inj := faultinject.New(*seed)
	sys.SetFaults(inj)

	// Warm phase: fault-free baseline ingest, detector pool up, and the
	// read window primed into the query cache so degraded serving has a
	// stale entry to fall back on.
	warmStats, err := sys.IngestRange(0, warmSteps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaossoak: warm ingest:", err)
		os.Exit(1)
	}
	published := warmStats.Samples
	pubFailures := warmStats.Failures
	pool := sys.StartDetectors(2)
	defer pool.Stop()

	eng := sys.QueryEngine(query.Config{
		Breakers:   sys.Breakers,
		HedgeDelay: 15 * time.Millisecond,
		ServeStale: true,
	})
	warmQ := tsdb.Query{
		Metric: tsdb.MetricEnergy,
		Tags:   map[string]string{"unit": "0"},
		Start:  0, End: warmSteps - 1,
	}
	if _, err := eng.QueryContext(context.Background(), warmQ); err != nil {
		fmt.Fprintln(os.Stderr, "chaossoak: prime query:", err)
		os.Exit(1)
	}

	// The availability reader: one warmed-window query every few
	// milliseconds, across every scenario. Failures are the headline
	// invariant; degraded answers are legal (and expected in blackout).
	var qTotal, qFailed, qDegraded atomic.Int64
	readerCtx, stopReader := context.WithCancel(context.Background())
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for readerCtx.Err() == nil {
			mctx, marker := query.WithDegradedMarker(readerCtx)
			qctx, cancel := context.WithTimeout(mctx, 5*time.Second)
			_, err := eng.QueryContext(qctx, warmQ)
			cancel()
			if readerCtx.Err() != nil {
				return
			}
			qTotal.Add(1)
			if err != nil {
				qFailed.Add(1)
				fmt.Fprintf(os.Stderr, "chaossoak: reader query failed: %v\n", err)
			}
			if marker.Degraded() {
				qDegraded.Add(1)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	topic := sys.Topic()
	driver := ingest.NewBusDriver(sys.Fleet, bus.LocalTopic{Topic: topic}, ingest.DriverConfig{})
	storageGroup := topic.Group(sentinel.GroupStorage)
	next := int64(warmSteps)

	// drain bounds each scenario's recovery: the storage group must
	// commit everything — which it does only once the TSDs hold it —
	// within the budget once faults clear.
	drain := func(phase string) {
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), recoveryBudget)
		defer cancel()
		if err := storageGroup.Sync(ctx); err != nil {
			fail("phase %s: storage group did not drain within %s: %v", phase, recoveryBudget, err)
			return
		}
		rep.RecoveryMS[phase] = time.Since(start).Milliseconds()
	}

	// runPhase publishes one step range with the scenario's faults
	// active, holds the fault window, clears it, and verifies recovery.
	runPhase := func(name string, setup, teardown func()) {
		rep.Phases = append(rep.Phases, name)
		fmt.Fprintf(os.Stderr, "chaossoak: phase %s (hold %s)\n", name, hold)
		if setup != nil {
			setup()
		}
		stats, err := driver.RunContext(context.Background(), next, phaseStep)
		if err != nil {
			fail("phase %s: publish: %v", name, err)
		}
		published += stats.Samples
		pubFailures += stats.Failures
		next += phaseStep
		time.Sleep(hold)
		if teardown != nil {
			teardown()
		}
		drain(name)
	}

	// Scenario 1: a TSD daemon killed mid-ingest and restarted by the
	// operator. Proxy failover, and the storage writers parking on
	// batches the proxy hands back, carry the batches.
	runPhase("tsd-crash-restart",
		func() {
			if err := sys.TSDB.CrashTSD("tsd-2"); err != nil {
				fail("crash tsd-2: %v", err)
			}
		},
		func() {
			if err := sys.TSDB.RestartTSD("tsd-2"); err != nil {
				fail("restart tsd-2: %v", err)
			}
		})

	// Scenario 2: a 10% error burst across every TSD RPC.
	runPhase("rpc-error-burst",
		func() { inj.Set("burst", faultinject.Rule{Op: "rpc/tsd/", ErrorRate: 0.10}) },
		func() { inj.Clear("burst") })

	// Scenario 3: the proxy's submission edge stalls outright; storage
	// writers park with their records uncommitted until it clears.
	runPhase("proxy-stall",
		func() { inj.Set("stall", faultinject.Rule{Op: "proxy/submit", Stall: true}) },
		func() { inj.Clear("stall") })

	// Scenario 4: full storage blackout — every TSD RPC and every
	// in-process storage write fails, tripping every breaker. The
	// watermark bump invalidates the warmed cache entry so reader
	// queries must take the stale-degraded path, not a cache hit.
	runPhase("breaker-blackout",
		func() {
			inj.Set("blackout-rpc", faultinject.Rule{Op: "rpc/tsd/", ErrorRate: 1})
			inj.Set("blackout-put", faultinject.Rule{Op: "tsdb/put/", ErrorRate: 1})
			sys.TSDB.Watermarks().Bump(tsdb.MetricEnergy)
		},
		func() {
			if sys.Breakers.OpenCount() == 0 {
				fail("blackout never opened a breaker")
			}
			inj.Reset()
		})

	// Recovery: every breaker must re-close within the budget. The
	// reader alone cannot prove this — once one successful fetch
	// repopulates its cache, hits stop touching the backends — so a
	// cache-free prober sharing the breaker group keeps offering
	// half-open probes until every circuit closes, standing in for the
	// steady background traffic a live deployment would have.
	prober := sys.QueryEngine(query.Config{MaxEntries: -1, Breakers: sys.Breakers})
	closeStart := time.Now()
	for sys.Breakers.OpenCount() > 0 {
		if time.Since(closeStart) > recoveryBudget {
			fail("breakers never closed after blackout cleared (still open: %d)", sys.Breakers.OpenCount())
			break
		}
		pctx, pcancel := context.WithTimeout(context.Background(), time.Second)
		_, _ = prober.QueryContext(pctx, warmQ)
		pcancel()
		time.Sleep(20 * time.Millisecond)
	}
	rep.RecoveryMS["breakers-closed"] = time.Since(closeStart).Milliseconds()

	// Scenario 5: admission-controlled shedding through a second
	// storage blackout, driven over the real HTTP surface. A gateway
	// with a deliberately tiny storage-lag budget faces SDK writers
	// with retries off: once the blackout parks the storage group and
	// lag crosses the budget, the controller must shed with typed 503s
	// — and every point acked BEFORE a shed is an unbreakable promise
	// that survives the blackout on the bus. Shedding is only legal
	// before the ack, never after.
	rep.Phases = append(rep.Phases, "admission-blackout-shed")
	fmt.Fprintln(os.Stderr, "chaossoak: phase admission-blackout-shed")
	admitted, shed, admErrs := runAdmissionBlackout(sys, inj, units, sensors, hold, fail)
	drain("admission-blackout-shed")
	closeBreakersAgain := time.Now()
	for sys.Breakers.OpenCount() > 0 {
		if time.Since(closeBreakersAgain) > recoveryBudget {
			fail("breakers never re-closed after admission blackout (still open: %d)", sys.Breakers.OpenCount())
			break
		}
		pctx, pcancel := context.WithTimeout(context.Background(), time.Second)
		_, _ = prober.QueryContext(pctx, warmQ)
		pcancel()
		time.Sleep(20 * time.Millisecond)
	}
	rep.AdmissionAcked = admitted
	rep.AdmissionSheds = shed
	bandQueryable := countBand(sys, units, fail)
	rep.AdmissionQueryable = bandQueryable
	if shed == 0 {
		fail("admission blackout shed nothing: the lag signal never engaged")
	}
	if admErrs != 0 {
		fail("admission blackout produced %d non-shed errors", admErrs)
	}
	if bandQueryable < admitted {
		fail("admission blackout dropped acked records: %d acked, %d queryable", admitted, bandQueryable)
	}

	// Let the detector pool catch up, then stop the reader.
	syncCtx, cancelSync := context.WithTimeout(context.Background(), recoveryBudget)
	if err := pool.Sync(syncCtx); err != nil {
		fail("detector pool did not catch up: %v", err)
	}
	cancelSync()
	stopReader()
	readerWG.Wait()

	// Verification: every acknowledged sample is queryable. The
	// verifier engine is cache-free so it reads storage, not the LRU.
	totalSteps := next
	expected := int64(units) * int64(sensors) * totalSteps
	verifier := sys.QueryEngine(query.Config{MaxEntries: -1})
	var queryable int64
	for u := 0; u < units; u++ {
		q := tsdb.Query{
			Metric: tsdb.MetricEnergy,
			Tags:   map[string]string{"unit": fmt.Sprint(u)},
			Start:  0, End: totalSteps - 1,
		}
		series, err := verifier.QueryContext(context.Background(), q)
		if err != nil {
			fail("verify unit %d: %v", u, err)
			continue
		}
		for i := range series {
			queryable += int64(len(series[i].Samples))
			if int64(len(series[i].Samples)) != totalSteps {
				fail("unit %d series %v: %d samples, want %d", u, series[i].Tags, len(series[i].Samples), totalSteps)
			}
		}
	}

	rep.PublishedSamples = published
	rep.PublishFailures = pubFailures
	rep.QueryableSamples = queryable
	rep.AckedSampleLoss = expected - queryable
	rep.ProxyDelivered = sys.Proxy.Delivered.Value()
	rep.ProxyDropped = sys.Proxy.Dropped.Value()
	rep.ProxyRetries = sys.Proxy.Retries.Value()
	rep.QueriesTotal = qTotal.Load()
	rep.QueriesFailed = qFailed.Load()
	rep.QueriesDegraded = qDegraded.Load()
	rep.HedgedReads = eng.Hedged.Value()
	rep.HedgeWins = eng.HedgeWins.Value()
	rep.DegradedServes = eng.DegradedServes.Value()
	rep.BreakerOpens = sys.Breakers.Opens.Value()
	rep.BreakerHalfOpens = sys.Breakers.HalfOpens.Value()
	rep.BreakerCloses = sys.Breakers.Closes.Value()
	rep.WriterParks = sys.Writers.Parks.Value()
	rep.DetectorParks = pool.Parks.Value()
	rep.AnomaliesWritten = pool.AnomaliesWritten.Value()
	rep.DetectorErrors = pool.Errors.Value()

	// The invariants.
	if pubFailures != 0 {
		fail("%d publishes failed: every publish should be acked or retried", pubFailures)
	}
	if published != expected {
		fail("published %d acked samples, expected %d", published, expected)
	}
	if rep.AckedSampleLoss != 0 {
		fail("acked-sample loss: %d acked samples not queryable", rep.AckedSampleLoss)
	}
	if rep.ProxyDropped != 0 {
		fail("proxy dropped %d points", rep.ProxyDropped)
	}
	if rep.QueriesTotal == 0 {
		fail("availability reader issued no queries")
	}
	if rep.QueriesFailed != 0 {
		fail("%d reader queries failed: availability broke", rep.QueriesFailed)
	}
	if rep.QueriesDegraded == 0 {
		fail("no degraded reads observed: the blackout should have forced stale serving")
	}
	if rep.BreakerOpens == 0 || rep.BreakerHalfOpens == 0 || rep.BreakerCloses == 0 {
		fail("breaker cycle incomplete: opens=%d half-opens=%d closes=%d",
			rep.BreakerOpens, rep.BreakerHalfOpens, rep.BreakerCloses)
	}
	if rep.AnomaliesWritten == 0 {
		fail("no anomalies written: the detection path was silent all soak")
	}
	if rep.DetectorErrors != 0 {
		fail("detector pool counted %d errors: transient faults should park, not drop", rep.DetectorErrors)
	}

	rep.Pass = len(rep.Failures) == 0

	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaossoak: marshal:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "chaossoak:", err)
		os.Exit(1)
	}
	if !rep.Pass {
		fmt.Fprintf(os.Stderr, "chaossoak: FAILED (%d invariant violations)\n", len(rep.Failures))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "chaossoak: PASS — %d samples, %d queries (%d degraded), breakers %d/%d/%d open/half-open/close\n",
		published, rep.QueriesTotal, rep.QueriesDegraded, rep.BreakerOpens, rep.BreakerHalfOpens, rep.BreakerCloses)
}

// admissionBand is the timestamp band the admission-blackout scenario
// writes into: far above any driver step, so its ledger is disjoint
// from the phase ingest verified against `expected`.
const admissionBand = int64(1) << 20

// runAdmissionBlackout drives SDK writers (retries OFF) at an
// admission-gated gateway through a storage blackout. The controller
// gets a deliberately tiny storage-lag budget so the parked storage
// group trips shedding within a few dozen acked rows. Returns acked
// points, typed sheds, and non-shed errors; faults are cleared before
// returning so the caller can drain.
func runAdmissionBlackout(sys *sentinel.System, inj *faultinject.Injector, units, sensors int, hold time.Duration, fail func(string, ...any)) (acked, sheds, errs int64) {
	ctrl := sys.NewAdmissionController(48, admission.Config{})
	h, tail := sys.Gateway(0, sentinel.GatewayConfig{
		Admission: ctrl,
		AccessLog: log.New(io.Discard, "", 0),
	})
	defer tail.Close()
	srv := httptest.NewServer(h)
	defer srv.Close()
	cl, err := client.New(srv.URL, client.WithHTTPClient(srv.Client()), client.WithRetry(0, time.Millisecond))
	if err != nil {
		fail("admission blackout: client: %v", err)
		return
	}

	inj.Set("adm-blackout-rpc", faultinject.Rule{Op: "rpc/tsd/", ErrorRate: 1})
	inj.Set("adm-blackout-put", faultinject.Rule{Op: "tsdb/put/", ErrorRate: 1})
	defer func() {
		inj.Clear("adm-blackout-rpc")
		inj.Clear("adm-blackout-put")
	}()

	deadline := time.Now().Add(hold)
	for i := int64(0); time.Now().Before(deadline) || sheds == 0; i++ {
		if i >= 20000 {
			fail("admission blackout: no shed after %d rows", i)
			break
		}
		unit := int(i) % units
		ts := admissionBand + i/int64(units)
		pts := make([]v1.Point, sensors)
		for s := 0; s < sensors; s++ {
			pts[s] = v1.Point{
				Metric:    tsdb.MetricEnergy,
				Timestamp: ts,
				Value:     float64(unit),
				Tags:      map[string]string{"unit": fmt.Sprint(unit), "sensor": fmt.Sprint(s)},
			}
		}
		n, err := cl.PutPoints(context.Background(), pts)
		switch {
		case err == nil:
			acked += int64(n)
		case errors.Is(err, client.ErrOverloaded):
			sheds++
		default:
			errs++
		}
		time.Sleep(500 * time.Microsecond)
	}
	return acked, sheds, errs
}

// countBand counts the admission-band samples queryable from storage
// through a cache-free engine.
func countBand(sys *sentinel.System, units int, fail func(string, ...any)) int64 {
	verifier := sys.QueryEngine(query.Config{MaxEntries: -1})
	var total int64
	for u := 0; u < units; u++ {
		series, err := verifier.QueryContext(context.Background(), tsdb.Query{
			Metric: tsdb.MetricEnergy,
			Tags:   map[string]string{"unit": fmt.Sprint(u)},
			Start:  admissionBand,
			End:    admissionBand + (1 << 16),
		})
		if err != nil {
			fail("verify admission band unit %d: %v", u, err)
			continue
		}
		for i := range series {
			total += int64(len(series[i].Samples))
		}
	}
	return total
}
