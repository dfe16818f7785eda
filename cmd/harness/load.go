package main

import (
	"context"
	"errors"
	"maps"
	"math"
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

// The load scenario's capacity is pinned by the storage nodes' emulated
// service ceiling, not the CPU. Overload shedding is only legal before
// the ack: every acked sample must read back.
const (
	loadUnits, loadSensors                   = 8, 8
	loadBase                                 = int64(1) << 20 // the writers' band, far above any fleet data
	nodeRate                                 = 4000           // per-node service ceiling, samples/s
	overload                                 = 2.0            // offered ingest as a multiple of capacity
	ingestWriters, readers, bulkers, tailers = 32, 8, 4, 4    // each class's client population
	readFrac, bulkFrac                       = 0.10, 0.05     // interactive and bulk rates as fractions of offered ingest
	maxIngestP99                             = 250 * time.Millisecond
	minGoodput                               = 0.25 // accepted ingest as a fraction of capacity
	drainTimeout                             = 30 * time.Second
)

var loadChecks = []string{
	"capacity calibrated",
	"ingest succeeded in drive",
	"bulk shed at overload",
	"shed priority order",
	"accepted-ingest p99 ≤ 250 ms",
	"accepted ingest ≥ 0.25 × calibrated capacity",
	"no non-shed errors",
	"storage drained",
	"verification queries answered",
	"zero acked loss",
}

func runLoad(cfg config, rep *report) error {
	// Deep partition buffers (4×4096) under a 2048-record shed limit:
	// admission must engage while publish is still non-blocking, or
	// accepted-ingest latency absorbs the overload it should reject.
	sys, err := sentinel.New(sentinel.Config{StorageNodes: 3, Units: loadUnits, SensorsPerUnit: loadSensors,
		Seed: cfg.seed, PerNodeRate: nodeRate, PrimaryDetector: "cusum", BusBuffer: 4096})
	if err != nil {
		return err
	}
	defer sys.Close()
	pool := sys.StartDetectors(1)
	defer pool.Stop()
	// The detector group shares the bus's uncommitted windows, so its
	// lag can block publishes: an overload signal like storage lag.
	ctrl := sys.NewAdmissionController(2048, admission.Config{
		Signals: []admission.Signal{{Name: "detector_lag", Load: pool.Group().Lag, Limit: 2048}},
	})
	scaler := sys.AutoscaleDetectors(pool, admission.AutoscaleConfig{Min: 1})
	defer scaler.Stop()
	cl, stop, err := serve(sys, ctrl)
	if err != nil {
		return err
	}
	defer stop()

	// Quiet values with sparse spikes: a drifting signal would keep the
	// detectors alarmed, their flag write-back competing with ingest for
	// the throttled storage budget.
	rows := newLedger(loadUnits, loadSensors, loadBase, func(ts int64, unit, sensor int) float64 {
		v := float64(unit) + 0.05*math.Sin(2*math.Pi*float64(ts%7)/7)
		if ((ts-loadBase)*loadUnits+int64(unit))%997 == 0 && sensor == 0 {
			v += 40
		}
		return v
	})
	write := func(ctx context.Context) error { return rows.put(ctx, cl.PutPoints, rows.next()) }
	// Readers sweep the writers' last 256 timestamps; exporters fetch the
	// same window as NDJSON, which the gateway classifies as bulk.
	var readSeq atomic.Int64
	window := func() client.QueryParams {
		from, to := rows.span()
		return client.QueryParams{Unit: strconv.Itoa(int(readSeq.Add(1)) % loadUnits), From: max(from, to-256), To: to}
	}

	var tailEvents, tailSheds atomic.Int64
	tailCtx, stopTails := context.WithCancel(context.Background())
	var tailWG sync.WaitGroup
	endTails := func() { stopTails(); tailWG.Wait() }
	defer endTails()
	for range tailers {
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
				for _, err := st.Next(); err == nil; _, err = st.Next() {
					tailEvents.Add(1)
				}
				st.Close()
			}
		}()
	}

	// An unbounded rate makes every request due at once: a closed loop.
	calib := min(cfg.duration/2, 5*time.Second)
	cal := new(classStats)
	calCtx, cancel := context.WithTimeout(context.Background(), calib)
	defer cancel()
	openLoop(calCtx, math.Inf(1), ingestWriters, cal, write)
	capacity := float64(cal.ok.Load()) / calib.Seconds()
	rep.check("capacity calibrated", capacity >= 1, "%.0f rows/s (%d acked in %s, %.0f%% shed, %d errors)",
		capacity, cal.ok.Load(), calib, 100*cal.shedFrac(), cal.errs.Load())
	if capacity < 1 {
		return nil
	}

	offered := capacity * overload
	ingest, interactive, bulk := new(classStats), new(classStats), new(classStats)
	runCtx, cancel := context.WithTimeout(context.Background(), cfg.duration)
	defer cancel()
	var wg sync.WaitGroup
	drive := func(rate float64, workers int, cs *classStats, fire func(context.Context) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			openLoop(runCtx, rate, workers, cs, fire)
		}()
	}
	drive(offered, ingestWriters, ingest, write)
	drive(offered*readFrac, readers, interactive, func(ctx context.Context) error {
		_, err := cl.Query(ctx, window())
		return err
	})
	drive(offered*bulkFrac, bulkers, bulk, func(ctx context.Context) error {
		return cl.QueryNDJSON(ctx, window(), func(v1.Series) error { return nil })
	})
	wg.Wait()
	endTails()

	p99 := time.Duration(ingest.hist.Quantile(0.99))
	accepted := float64(ingest.ok.Load()) / cfg.duration.Seconds()
	bf, inf, gf := bulk.shedFrac(), interactive.shedFrac(), ingest.shedFrac()
	otherErrs := cal.errs.Load() + ingest.errs.Load() + interactive.errs.Load() + bulk.errs.Load()
	rep.check("ingest succeeded in drive", ingest.ok.Load() > 0, "%d rows acked", ingest.ok.Load())
	rep.check("bulk shed at overload", bulk.shed.Load() > 0, "%d of %d requests shed", bulk.shed.Load(), bulk.attempts.Load())
	rep.check("shed priority order", bf >= inf && inf >= gf && bf > gf,
		"bulk %.3f ≥ interactive %.3f ≥ ingest %.3f", bf, inf, gf)
	rep.check("accepted-ingest p99 ≤ 250 ms", p99 <= maxIngestP99, "%s", p99.Round(time.Microsecond))
	rep.check("accepted ingest ≥ 0.25 × calibrated capacity", accepted >= minGoodput*capacity,
		"%.0f of %.0f rows/s (%.2f×)", accepted, capacity, accepted/capacity)
	rep.check("no non-shed errors", otherErrs == 0, "%d", otherErrs)

	rep.timed("storage drained", drainTimeout, sys.Topic().Group(sentinel.GroupStorage).Sync)
	// Right after the overload, residual shedding can refuse a read.
	acked := rows.ackedSamples()
	from, to := rows.span()
	var queryable int64
	rep.timed("verification queries answered", drainTimeout, func(ctx context.Context) error {
		_ = waitFor(ctx, "every acked sample", 500*time.Millisecond, func() bool {
			queryable, _, err = readBand(context.Background(), loadUnits, from, to, viaSDK(cl))
			return err == nil && queryable >= acked
		})
		return err
	})
	rep.check("zero acked loss", queryable >= acked, "%d of %d acked samples queryable", queryable, acked)

	maps.Copy(rep.Counters, map[string]any{
		"ingest_p50_ms":  ingest.hist.Quantile(0.50) / 1e6,
		"ingest_p999_ms": ingest.hist.Quantile(0.999) / 1e6,
		"tailer_sheds":   tailSheds.Load(),
		"gateway_sheds":  ctrl.ShedTotal(),
		"tailer_events":  tailEvents.Load(),
	})
	return nil
}

// openLoop fires from workers goroutines at rate per second until ctx
// ends. Request i is due at start + i/rate and its latency counts from
// then, so a stalled server owns the queueing it caused.
func openLoop(ctx context.Context, rate float64, workers int, cs *classStats, fire func(context.Context) error) {
	start := time.Now()
	var seq atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sched := start.Add(time.Duration(float64(seq.Add(1)-1) / rate * float64(time.Second)))
				if d := time.Until(sched); d > 0 {
					select {
					case <-ctx.Done():
					case <-time.After(d):
					}
				}
				if ctx.Err() != nil {
					return
				}
				err := fire(ctx)
				cs.record(ctx, time.Since(sched), err)
			}
		}()
	}
	wg.Wait()
}

// classStats is one traffic class's outcome.
type classStats struct {
	hist                     telemetry.Histogram // latency ns of successes
	attempts, ok, shed, errs atomic.Int64
}

func (c *classStats) shedFrac() float64 {
	return float64(c.shed.Load()) / float64(max(c.attempts.Load(), 1))
}

// record drops attempts cut short by ctx: the harness stopped, not the server.
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
		c.errs.Add(1)
	}
}
