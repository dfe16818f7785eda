package main

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/bus"
	"repro/internal/faultinject"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/tsdb"
	"repro/sentinel"
	"repro/sentinel/client"
)

// The chaos scenario runs ingest, detection and a reader through seeded
// fault phases. The reader may get stale, degraded-marked answers but
// never an error; every phase drains within the recovery budget.
const (
	chaosUnits, chaosSensors = 6, 8
	warmSteps                = 100 // covers the cusum warm-up (60) and the read window
	phaseStep                = 120
	recoveryBudget           = 30 * time.Second
	admissionBand            = int64(1) << 20 // the admission phase's rows, far above any driver step
	admissionRowCap          = 20000
)

var chaosChecks = append(phaseChecks("tsd-crash-restart", "rpc-error-burst", "proxy-stall", "breaker-blackout", "admission-blackout-shed"),
	"tsd-2 crash and restart",
	"blackout opened a breaker",
	"breakers closed after breaker-blackout",
	"admission shed within 20,000 rows",
	"admission sheds > 0",
	"admission 0 non-shed errors",
	"breakers closed after admission-blackout-shed",
	"admission band queryable ≥ acked",
	"detector pool caught up",
	"every series has every step",
	"0 publish failures",
	"published == expected",
	"0 acked-sample loss",
	"0 proxy drops",
	"reader issued queries",
	"0 reader failures",
	"degraded reads > 0",
	"breaker cycle complete",
	"anomalies written",
	"0 detector errors",
)

func phaseChecks(phases ...string) []string {
	var names []string
	for _, p := range phases {
		names = append(names, p+" publish ok", p+" drained within budget")
	}
	return names
}

func runChaos(cfg config, rep *report) error {
	hold := max(cfg.duration/10, 250*time.Millisecond) // each phase's fault window
	sys, err := sentinel.New(sentinel.Config{StorageNodes: 3, Units: chaosUnits, SensorsPerUnit: chaosSensors, Seed: cfg.seed,
		FaultFraction: 0.5, FaultOnset: 80, ShiftSigma: 8, PrimaryDetector: "cusum",
		Breaker: resilience.BreakerConfig{FailureThreshold: 4, Cooldown: 250 * time.Millisecond}})
	if err != nil {
		return err
	}
	defer sys.Close()
	inj := faultinject.New(cfg.seed)
	sys.SetFaults(inj)
	warm, err := sys.IngestRange(0, warmSteps)
	if err != nil {
		return fmt.Errorf("warm ingest: %w", err)
	}
	published, pubFailures := warm.Samples, warm.Failures
	pool := sys.StartDetectors(2)
	defer pool.Stop()
	// The primed window gives degraded serving a stale entry to fall back on.
	eng := sys.QueryEngine(query.Config{Breakers: sys.Breakers, ServeStale: true})
	warmQ := tsdb.Query{Metric: tsdb.MetricEnergy, Tags: map[string]string{"unit": "0"}, Start: 0, End: warmSteps - 1}
	if _, err := eng.QueryContext(context.Background(), warmQ); err != nil {
		return fmt.Errorf("prime query: %w", err)
	}

	var qTotal, qFailed, qDegraded atomic.Int64
	readerCtx, stopReader := context.WithCancel(context.Background())
	var readerWG sync.WaitGroup
	endReader := func() { stopReader(); readerWG.Wait() }
	defer endReader()
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
				fmt.Fprintf(os.Stderr, "harness: reader query failed: %v\n", err)
			}
			if marker.Degraded() {
				qDegraded.Add(1)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Once one fetch refills the reader's cache its hits stop touching
	// the backends, so a cache-free prober on the same breakers offers
	// the half-open probes live traffic would. The verifier has neither
	// cache nor breakers: it reads storage.
	prober := sys.QueryEngine(query.Config{MaxEntries: -1, Breakers: sys.Breakers})
	verifier := viaEngine(sys.QueryEngine(query.Config{MaxEntries: -1}))
	driver := ingest.NewBusDriver(sys.Fleet, bus.LocalTopic{Topic: sys.Topic()}, ingest.DriverConfig{})
	next := int64(warmSteps)
	// A phase must drain: the storage group commits only what the TSDs hold.
	phase := func(name string, setup func(), publish func() error, teardown func()) {
		start := time.Now()
		setup()
		err := publish()
		rep.check(name+" publish ok", err == nil, "%s", took(start, err))
		teardown()
		rep.timed(name+" drained within budget", recoveryBudget, sys.Topic().Group(sentinel.GroupStorage).Sync)
	}
	step := func() error {
		stats, err := driver.RunContext(context.Background(), next, phaseStep)
		published, pubFailures, next = published+stats.Samples, pubFailures+stats.Failures, next+phaseStep
		time.Sleep(hold)
		return err
	}
	closeBreakers := func(after string) {
		rep.timed("breakers closed after "+after, recoveryBudget, func(ctx context.Context) error {
			return waitFor(ctx, "breakers to close", 20*time.Millisecond, func() bool {
				pctx, cancel := context.WithTimeout(ctx, time.Second)
				defer cancel()
				_, _ = prober.QueryContext(pctx, warmQ)
				return sys.Breakers.OpenCount() == 0
			})
		})
	}
	blackout := func(rule string) {
		inj.Set(rule+"-rpc", faultinject.Rule{Op: "rpc/tsd/", ErrorRate: 1})
		inj.Set(rule+"-put", faultinject.Rule{Op: "tsdb/put/", ErrorRate: 1})
	}

	var crashErr, restartErr error
	phase("tsd-crash-restart", func() { crashErr = sys.TSDB.CrashTSD("tsd-2") }, step,
		func() { restartErr = sys.TSDB.RestartTSD("tsd-2") })
	err = errors.Join(crashErr, restartErr)
	rep.check("tsd-2 crash and restart", err == nil, "%s", orErr(err, "crashed and restarted"))
	phase("rpc-error-burst", func() { inj.Set("burst", faultinject.Rule{Op: "rpc/tsd/", ErrorRate: 0.10}) }, step,
		func() { inj.Clear("burst") })
	phase("proxy-stall", func() { inj.Set("stall", faultinject.Rule{Op: "proxy/submit", Stall: true}) }, step,
		func() { inj.Clear("stall") })
	// The watermark bump invalidates the warmed cache entry, so the
	// reader must take the stale-degraded path.
	phase("breaker-blackout", func() { blackout("blackout"); sys.TSDB.Watermarks().Bump(tsdb.MetricEnergy) }, step,
		func() {
			rep.check("blackout opened a breaker", sys.Breakers.OpenCount() > 0, "%d open", sys.Breakers.OpenCount())
			inj.Reset()
		})
	closeBreakers("breaker-blackout")

	// The second blackout is written through a gateway with a tiny
	// storage-lag budget: once the parked storage group's lag crosses it
	// the gateway must shed, and every point acked before must survive.
	cl, stop, err := serve(sys, sys.NewAdmissionController(48, admission.Config{}))
	if err != nil {
		return err
	}
	defer stop()
	band := newLedger(chaosUnits, chaosSensors, admissionBand, func(_ int64, unit, _ int) float64 { return float64(unit) })
	var rows, sheds, admErrs int64
	phase("admission-blackout-shed", func() { blackout("adm-blackout") },
		func() error {
			deadline := time.Now().Add(hold)
			for ; rows < admissionRowCap && (time.Now().Before(deadline) || sheds == 0); rows++ {
				switch err := band.put(context.Background(), cl.PutPoints, band.next()); {
				case errors.Is(err, client.ErrOverloaded):
					sheds++
				case err != nil:
					admErrs++
				}
				time.Sleep(500 * time.Microsecond)
			}
			if band.ackedSamples() == 0 {
				return errors.New("no row acked")
			}
			return nil
		},
		func() { inj.Clear("adm-blackout-rpc"); inj.Clear("adm-blackout-put") })
	rep.check("admission shed within 20,000 rows", sheds > 0, "%d rows written", rows)
	rep.check("admission sheds > 0", sheds > 0, "%d", sheds)
	rep.check("admission 0 non-shed errors", admErrs == 0, "%d", admErrs)
	closeBreakers("admission-blackout-shed")
	acked := band.ackedSamples()
	from, to := band.span()
	bandQueryable, _, err := readBand(context.Background(), chaosUnits, from, to, verifier)
	rep.check("admission band queryable ≥ acked", err == nil && bandQueryable >= acked,
		"%s", orErr(err, fmt.Sprintf("%d of %d acked samples queryable", bandQueryable, acked)))

	rep.timed("detector pool caught up", recoveryBudget, pool.Sync)
	endReader()

	expected := int64(chaosUnits) * chaosSensors * next
	queryable, lens, err := readBand(context.Background(), chaosUnits, 0, next-1, verifier)
	shortest := next
	for _, n := range lens {
		shortest = min(shortest, int64(n))
	}
	rep.check("every series has every step", err == nil && len(lens) == chaosUnits*chaosSensors && shortest == next,
		"%s", orErr(err, fmt.Sprintf("%d series, shortest %d of %d steps", len(lens), shortest, next)))
	rep.check("0 publish failures", pubFailures == 0, "%d", pubFailures)
	rep.check("published == expected", published == expected, "%d of %d", published, expected)
	rep.check("0 acked-sample loss", queryable == expected, "%d of %d queryable", queryable, expected)
	rep.check("0 proxy drops", sys.Proxy.Dropped.Value() == 0, "%d", sys.Proxy.Dropped.Value())
	rep.check("reader issued queries", qTotal.Load() > 0, "%d", qTotal.Load())
	rep.check("0 reader failures", qFailed.Load() == 0, "%d", qFailed.Load())
	rep.check("degraded reads > 0", qDegraded.Load() > 0, "%d", qDegraded.Load())
	opens, halfOpens, closes := sys.Breakers.Opens.Value(), sys.Breakers.HalfOpens.Value(), sys.Breakers.Closes.Value()
	rep.check("breaker cycle complete", opens > 0 && halfOpens > 0 && closes > 0,
		"opens %d, half-opens %d, closes %d", opens, halfOpens, closes)
	rep.check("anomalies written", pool.AnomaliesWritten.Value() > 0, "%d", pool.AnomaliesWritten.Value())
	rep.check("0 detector errors", pool.Errors.Value() == 0, "%d", pool.Errors.Value())
	maps.Copy(rep.Counters, map[string]any{
		"proxy_retries":   sys.Proxy.Retries.Value(),
		"degraded_serves": eng.DegradedServes.Value(),
		"writer_parks":    sys.Writers.Parks.Value(),
		"detector_parks":  pool.Parks.Value(),
	})
	return nil
}
