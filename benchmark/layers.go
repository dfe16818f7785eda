package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/admission"
	"repro/internal/api"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/fdr"
	"repro/internal/hbase"
	"repro/internal/ingest"
	"repro/internal/mllib"
	"repro/internal/proxy"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/tsdb"
	"repro/internal/viz"
	"repro/sentinel"
)

// replayRows caps how many of the workload's rows each layer replay
// consumes: enough calls for a steady mean, few enough that the traced
// run's replays stay within a few seconds. The storage replays stop at
// replayStoreSamples, because every read replayed afterwards costs time
// in proportion to what they stored.
const (
	replayRows         = 2000
	replayStoreSamples = 40_000
)

// gcCPUSeconds reads the runtime's cumulative GC CPU time.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// replay feeds a workload's own generated rows to each layer's exported
// functions, single-threaded, with a span around every call. A stage's
// figure is wall time per row (or per sample): on an otherwise idle
// process that is the layer's cost without queueing.
type replay struct {
	w    *window
	rows *rowSet
	n    int
	pts  [][]tsdb.Point
	rig  *sentinel.System // a fresh system of the workload's shape
	m    map[string]metric
}

type discardPublisher struct{}

func (discardPublisher) PublishPoints(_ context.Context, pts []tsdb.Point) (int, error) {
	return len(pts), nil
}

// stage times fn(i) for i in [0, n), recording one span per call under
// a root span named name, and returns the mean microseconds and heap
// allocations per call.
func (r *replay) stage(name string, n int, fn func(i int) error) (us, allocs float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tr := r.w.tr
	begin := time.Now()
	root := tr.span("replay/"+name, begin, begin, -1, -1)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		tr.span(name, t0, time.Now(), root, i)
	}
	end := time.Now()
	runtime.ReadMemStats(&m1)
	tr.end(root, end)
	return float64(end.Sub(begin)) / float64(time.Microsecond) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

func (r *replay) set(name string, v float64, unit string) { r.m[name] = metric{v, unit} }

// batch builds row i's bus record value.
func (r *replay) batch(i int) *ingest.UnitBatch {
	return &ingest.UnitBatch{Unit: r.rows.unit(i), Points: r.pts[i]}
}

// prefilled returns a fresh unbounded topic holding the replay rows and
// a consumer group positioned at its start.
func (r *replay) prefilled() (*bus.Broker, *bus.Group, error) {
	b := bus.New(bus.Config{Partitions: 4, PartitionBuffer: -1})
	topic := b.Topic(sentinel.TopicEnergy)
	g := topic.Group("replay")
	for i := 0; i < r.n; i++ {
		if _, err := topic.Publish(context.Background(), uint64(r.rows.unit(i)), r.batch(i)); err != nil {
			b.Close()
			return nil, nil, err
		}
	}
	return b, g, nil
}

// layerMetrics produces the per-layer metrics of a traced run: the
// in-situ counters and client spans of the window just driven, then the
// replays.
func layerMetrics(w *window) (map[string]metric, error) {
	sp := w.sp
	r := &replay{w: w, rows: w.rows, m: make(map[string]metric)}
	if r.rows == nil {
		// The dashboard drives no row stream; replay rows that follow
		// its window.
		r.rows = genRows(w.s.fleet, sp.firstTick()+1000, replayRows/sp.units)
	}
	r.n = min(replayRows, r.rows.len())
	r.pts = make([][]tsdb.Point, r.n)
	for i := range r.pts {
		r.pts[i] = r.rows.points(w.s.fleet, i)
	}
	rig, err := sentinel.New(sentinel.Config{
		StorageNodes: sp.storageNodes, Units: sp.units, SensorsPerUnit: sp.sensors,
		Seed: w.s.fleet.Config().Seed, ProxyMaxRetries: -1,
	})
	if err != nil {
		return nil, err
	}
	defer rig.Close()
	r.rig = rig

	r.inSitu()
	for _, step := range []func() error{
		r.replayGateway, r.replayBus, r.replayProxy, r.replayStorage,
		r.replayRPC, r.replayDetect, r.replayReads, r.replayAdmission,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	// The ledger: the write path's disjoint replayed stages, per
	// sample, against the CPU the traced window spent per sample.
	perRow := r.m["api.put_decode_us_per_row"].Value + r.m["ingest.group_us_per_row"].Value +
		r.m["bus.publish_us_per_row"].Value + r.m["ingest.writer_us_per_row"].Value +
		r.m["proxy.submit_us_per_row"].Value
	attributed := perRow/float64(sp.sensors) + r.m["tsdb.put_us_per_sample"].Value
	r.set("ledger.write_path_us_per_sample", attributed, "us")
	frac := 0.0
	if sp.readers == 0 {
		frac = attributed / r.m["client.cpu_us_per_op"].Value
	}
	r.set("ledger.write_attributed_frac", frac, "ratio")
	return r.m, nil
}

// inSitu derives the metrics that come from the traced window itself:
// counters sampled around and during it, runtime deltas, client spans.
func (r *replay) inSitu() {
	w, sp := r.w, r.w.sp
	c0, c1 := w.counters0, w.counters1
	e2e, _ := e2eMetrics(w)
	ops := float64(w.ackedPoints.Load())
	reads := float64(w.read.count())
	if sp.readers > 0 {
		ops = float64(w.freshDone.Load())
	}
	// The end-to-end medians again, under client.* names, so the traced
	// run can be set against the untraced one.
	r.set("client.ack_p50_ms", e2e["ack_p50_ms"].Value, "ms")
	r.set("client.throughput_per_s", e2e["throughput_per_s"].Value, "1/s")
	r.set("client.cpu_us_per_op", e2e["cpu_us_per_op"].Value, "us")

	tail := func(name string, l *latencies) {
		_, v := tailPercentile(l.sorted())
		r.set(name, v, "ms")
	}
	p50 := func(name string, l *latencies) { r.set(name, percentile(l.sorted(), 0.5), "ms") }
	tail("client.put_tail_ms", &w.put)
	tail("client.fresh_tail_ms", &w.stored)
	tail("client.flag_tail_ms", &w.flag)
	tail("client.read_tail_ms", &w.read)
	p50("client.fresh_p50_ms", &w.stored)
	p50("client.flag_p50_ms", &w.flag)
	p50("client.ack_to_stored_p50_ms", &w.ackToStored)
	p50("client.ack_to_flag_p50_ms", &w.ackToFlag)
	p50("client.read_all_p50_ms", &w.read)
	for k := readKind(0); k < numReadKinds; k++ {
		p50("client.read_"+readKindNames[k]+"_p50_ms", &w.readKind[k])
	}
	r.set("client.gen_late_p99_ms", percentile(w.genLate.sorted(), 0.99), "ms")
	flagsWritten, flagsPub := c1.flagsWritten-c0.flagsWritten, c1.flagsPublished-c0.flagsPublished
	flagSLO, delivered := 0.0, 0.0
	if timedFlags := flagsWritten - w.warmupFlags.Load(); timedFlags > 0 {
		flagSLO = float64(w.flagsInSLO.Load()) / float64(timedFlags)
	}
	if flagsPub > 0 {
		delivered = float64(w.flagEvents.Load()) / float64(flagsPub)
	}
	r.set("client.flag_slo_frac", flagSLO, "ratio")
	r.set("api.tail_delivered_frac", delivered, "ratio")

	r.set("bus.storage_lag_max_records", float64(w.maxStorageLag), "count")
	r.set("bus.detector_lag_max_records", float64(w.maxDetectorLag), "count")
	r.set("bus.replicated_records", float64(c1.replicated-c0.replicated), "count")
	r.set("proxy.queue_depth_max", float64(w.maxQueueDepth), "count")
	r.set("proxy.retries", float64(c1.retries-c0.retries), "count")
	r.set("hbase.flushes", float64(c1.hbaseFlushes-c0.hbaseFlushes), "count")
	r.set("hbase.cells_written", float64(c1.hbaseCells-c0.hbaseCells), "count")
	r.set("sentinel.flags_written", float64(flagsWritten), "count")
	r.set("sentinel.flags_published", float64(flagsPub), "count")
	r.set("sentinel.parks", float64(c1.parks-c0.parks), "count")
	r.set("tsdb.block_scans", float64(c1.blockScans-c0.blockScans), "count")
	r.set("tsdb.rollup_serves", float64(c1.rollupServes-c0.rollupServes), "count")
	perRead := func(delta int64) float64 {
		if reads == 0 {
			return 0
		}
		return float64(delta) / reads
	}
	r.set("hbase.scans_per_read", perRead(c1.hbaseScans-c0.hbaseScans), "count")
	r.set("tsdb.queries_per_read", perRead(c1.tsdQueries-c0.tsdQueries), "count")
	r.set("tsdb.samples_returned_per_query", 0, "count")
	if q := c1.tsdQueries - c0.tsdQueries; q > 0 {
		r.set("tsdb.samples_returned_per_query", float64(c1.samplesReturned-c0.samplesReturned)/float64(q), "count")
	}
	r.set("tsdb.seal_samples_per_s", w.s.sealSamplesPerSec, "1/s")
	bytesPerSample := 0.0
	if w.s.sys != nil && w.s.sys.Blocks.SamplesSealed.Value() > 0 {
		bytesPerSample = float64(w.s.sys.Blocks.BytesSealed.Value()) / float64(w.s.sys.Blocks.SamplesSealed.Value())
	}
	r.set("tsdb.bytes_per_sample", bytesPerSample, "B")

	r.set("runtime.allocs_per_op", float64(w.mem1.Mallocs-w.mem0.Mallocs)/ops, "count")
	r.set("runtime.alloc_bytes_per_op", float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc)/ops, "B")
	r.set("runtime.gc_cpu_frac", (w.gcCPU1-w.gcCPU0)/w.cpu.Seconds(), "ratio")
	r.set("runtime.gc_pause_total_ms", float64(w.mem1.PauseTotalNs-w.mem0.PauseTotalNs)/1e6, "ms")
}

// replayGateway: the put edge (middleware chain, body decode, ack
// encode) with a discarding publisher, then the per-unit grouping the
// publisher does before the bus.
func (r *replay) replayGateway() error {
	gw := api.New(api.Config{Publisher: discardPublisher{}, AccessLog: discardLog})
	us, allocs, err := r.stage("api.put_decode", r.n, func(i int) error {
		req := httptest.NewRequest("POST", "/api/v1/points", bytes.NewReader(r.rows.body(i)))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code != 200 {
			return fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("api.put_decode_us_per_row", us, "us")
	r.set("api.put_allocs_per_row", allocs, "count")
	us, _, err = r.stage("ingest.group", r.n, func(i int) error {
		if len(ingest.GroupByUnit(r.pts[i])) != 1 {
			return errors.New("a row grouped into more than one unit")
		}
		return nil
	})
	r.set("ingest.group_us_per_row", us, "us")
	return err
}

// replayBus: publish, consume (poll + commit) and the storage writers
// draining a prefilled topic into a sink that does nothing.
func (r *replay) replayBus() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	b := bus.New(bus.Config{Partitions: 4, PartitionBuffer: -1})
	defer b.Close()
	topic := b.Topic(sentinel.TopicEnergy)
	g := topic.Group("replay")
	us, _, err := r.stage("bus.publish", r.n, func(i int) error {
		_, err := topic.Publish(ctx, uint64(r.rows.unit(i)), r.batch(i))
		return err
	})
	if err != nil {
		return err
	}
	r.set("bus.publish_us_per_row", us, "us")
	c := g.Join()
	buf := make([]bus.Record, 0, 16)
	got := 0
	polls := 0
	begin := time.Now()
	for got < r.n {
		t0 := time.Now()
		recs, err := c.Poll(ctx, buf)
		if err != nil {
			return fmt.Errorf("bus.consume: %w", err)
		}
		if err := c.CommitPolled(recs); err != nil {
			return fmt.Errorf("bus.consume: %w", err)
		}
		r.w.tr.span("bus.consume", t0, time.Now(), -1, polls)
		got += len(recs)
		polls++
	}
	r.set("bus.consume_us_per_row", float64(time.Since(begin))/float64(time.Microsecond)/float64(r.n), "us")
	c.Leave()

	wb, wg, err := r.prefilled()
	if err != nil {
		return err
	}
	defer wb.Close()
	t0 := time.Now()
	writers := ingest.StartStorageWriters(ctx, bus.LocalGroup{Group: wg},
		ingest.SinkFunc(func([]tsdb.Point) error { return nil }), 1)
	err = wg.Sync(ctx)
	t1 := time.Now()
	writers.Stop()
	if err != nil {
		return fmt.Errorf("ingest.writer: %w", err)
	}
	r.w.tr.span("ingest.writer", t0, t1, -1, -1)
	r.set("ingest.writer_us_per_row", float64(t1.Sub(t0))/float64(time.Microsecond)/float64(r.n), "us")
	return nil
}

// replayProxy: Submit for every row and a final Flush, in front of a
// TSD address that acknowledges without storing.
func (r *replay) replayProxy() error {
	network := rpc.NewNetwork(0, nil)
	defer network.Close()
	if _, err := network.Register("tsd/null", func(context.Context, string, any) (any, error) { return nil, nil }, rpc.ServerConfig{}); err != nil {
		return err
	}
	px, err := proxy.New(network, []string{"tsd/null"}, proxy.Config{MaxRetries: -1})
	if err != nil {
		return err
	}
	defer px.Close()
	begin := time.Now()
	if _, _, err := r.stage("proxy.submit", r.n, func(i int) error { return px.Submit(r.pts[i]) }); err != nil {
		return err
	}
	t0 := time.Now()
	px.Flush()
	end := time.Now()
	r.w.tr.span("proxy.flush", t0, end, -1, -1)
	r.set("proxy.submit_us_per_row", float64(end.Sub(begin))/float64(time.Microsecond)/float64(r.n), "us")
	return nil
}

// replayStorage: the codec, a TSD put and a bare HBase client put, on
// the rig. The TSD put takes the first half of the rows and the HBase
// put the second, so both insert new cells.
func (r *replay) replayStorage() error {
	ctx := context.Background()
	sensors := float64(r.rows.sensors)
	codec := tsdb.NewCodec(r.rig.TSDB.UIDs, r.rig.Config().SaltBuckets)
	n := min(r.n, replayStoreSamples/r.rows.sensors)
	half := n / 2
	cells := make([][]hbase.Cell, n)
	us, _, err := r.stage("tsdb.encode", n, func(i int) error {
		cells[i] = make([]hbase.Cell, len(r.pts[i]))
		for k := range r.pts[i] {
			cell, err := codec.Encode(&r.pts[i][k])
			if err != nil {
				return err
			}
			cells[i][k] = cell
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("tsdb.encode_us_per_sample", us/sensors, "us")
	tsd := r.rig.TSDB.TSDs()[0]
	us, _, err = r.stage("tsdb.put", half, func(i int) error { return tsd.PutContext(ctx, r.pts[i]) })
	if err != nil {
		return err
	}
	r.set("tsdb.put_us_per_sample", us/sensors, "us")
	client := r.rig.Cluster.NewClient(hbase.ClientConfig{})
	us, _, err = r.stage("hbase.put", n-half, func(i int) error { return client.Put(cells[half+i]) })
	if err != nil {
		return err
	}
	r.set("hbase.put_us_per_cell", us/sensors, "us")

	// The flag write-back: one TSD put per flag.
	sink := &tsdb.Sink{TSD: tsd}
	us, _, err = r.stage("tsdb.sink_write", n, func(i int) error {
		return sink.WriteAnomaly(core.Anomaly{
			Unit: r.rows.unit(i), Sensor: i % r.rows.sensors, Timestamp: r.rows.tick(i), Z: 4,
		})
	})
	r.set("tsdb.sink_write_us_per_flag", us, "us")
	return err
}

// replayRPC: one echo call over the in-process fabric, and the same
// call over the TCP transport on loopback.
func (r *replay) replayRPC() error {
	const calls = 5000
	ctx := context.Background()
	echo := func(_ context.Context, _ string, payload any) (any, error) { return payload, nil }
	server := rpc.NewNetwork(0, nil)
	defer server.Close()
	if _, err := server.Register("echo", echo, rpc.ServerConfig{}); err != nil {
		return err
	}
	us, _, err := r.stage("rpc.call", calls, func(i int) error {
		_, err := server.Call(ctx, "echo", "ping", int64(i))
		return err
	})
	if err != nil {
		return err
	}
	r.set("rpc.call_us", us, "us")
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	transport := rpc.ServeTCP(server, lis)
	defer transport.Close()
	caller := rpc.NewNetwork(0, nil)
	defer caller.Close()
	caller.AddRoute("echo", lis.Addr().String())
	us, _, err = r.stage("rpc.tcp_call", calls, func(i int) error {
		_, err := caller.Call(ctx, "echo", "ping", int64(i))
		return err
	})
	r.set("rpc.tcp_call_us", us, "us")
	return err
}

// replayDetect: the detector pool over a prefilled topic with a sink
// that does nothing, then the detector and the FDR procedure alone.
func (r *replay) replayDetect() error {
	sp := r.w.sp
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	b, g, err := r.prefilled()
	if err != nil {
		return err
	}
	defer b.Close()
	t0 := time.Now()
	pool := sentinel.NewDetectorPool(sentinel.DetectorEnv{
		Sensors:     sp.sensors,
		Primary:     sp.detector,
		NewDetector: func(_ string, unit int) (mllib.Detector, error) { return r.w.s.newReferenceDetector(unit) },
		Sink:        core.AnomalySinkFunc(func(core.Anomaly) error { return nil }),
	}, bus.LocalGroup{Group: g}, 1)
	err = pool.Sync(ctx)
	t1 := time.Now()
	failed := pool.Errors.Value()
	pool.Stop()
	if err != nil || failed > 0 {
		return fmt.Errorf("sentinel.pool: %d records failed: %v", failed, err)
	}
	r.w.tr.span("sentinel.pool", t0, t1, -1, -1)
	r.set("sentinel.pool_us_per_row", float64(t1.Sub(t0))/float64(time.Microsecond)/float64(r.n), "us")

	dets := make([]mllib.Detector, sp.units)
	for u := range dets {
		if dets[u], err = r.w.s.newReferenceDetector(u); err != nil {
			return err
		}
	}
	row, ts := [][]float64{nil}, []int64{0}
	var out mllib.Detections
	us, _, err := r.stage("mllib.detect", r.n, func(i int) error {
		row[0] = row[0][:0]
		for k := range r.pts[i] {
			row[0] = append(row[0], r.pts[i][k].Value)
		}
		ts[0] = r.rows.tick(i)
		return dets[r.rows.unit(i)].DetectBatchInto(row, ts, &out)
	})
	if err != nil {
		return err
	}
	r.set("mllib.detect_us_per_row", us, "us")
	rng := rand.New(rand.NewSource(int64(r.w.s.fleet.Config().Seed)))
	pvals := make([]float64, sp.sensors)
	var res fdr.Result
	var scratch fdr.Scratch
	us, _, err = r.stage("fdr.apply", r.n, func(int) error {
		for k := range pvals {
			pvals[k] = rng.Float64()
		}
		return fdr.ApplyInto(fdr.BH, pvals, 0.05, &res, &scratch)
	})
	r.set("fdr.apply_us_per_row", us, "us")
	return err
}

// replayReads: the read tier bottom-up — an HBase scan, a TSD query, the
// query engine cold and hot, the three dashboard views — on the
// dashboard's live store (hot rows, a sealed hour, rollups); on the
// write workloads on the rig, which by now holds the replayed rows.
func (r *replay) replayReads() error {
	sp := r.w.sp
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	d, now := r.rig.TSDB, r.rows.tick(min(r.n, replayStoreSamples/r.rows.sensors)-1)
	if sp.readers > 0 {
		d, now = r.w.s.sys.TSDB, r.w.s.now.Load()
	}
	stored := float64(d.PointsWritten())
	client := d.Cluster.NewClient(hbase.ClientConfig{})
	var scanned int
	us, _, err := r.stage("hbase.scan", 3, func(int) error {
		cells, err := client.Scan(nil, nil, 0)
		scanned = len(cells)
		return err
	})
	if err != nil {
		return err
	}
	r.set("hbase.scan_us_per_cell", us/float64(max(scanned, 1)), "us")

	sensorQuery := func(k int) tsdb.Query {
		return tsdb.Query{
			Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(k%sp.units, (k/sp.units)%sp.sensors),
			Start: now - 300, End: now,
		}
	}
	tsd := d.TSDs()[0]
	us, _, err = r.stage("tsdb.query", 3, func(i int) error {
		_, err := tsd.QueryContext(ctx, sensorQuery(i))
		return err
	})
	if err != nil {
		return err
	}
	r.set("tsdb.query_us_per_stored_sample", us/max(stored, 1), "us")

	engine := query.NewFromDeployment(d, query.Config{MaxEntries: 256, ServeStale: true})
	us, _, err = r.stage("query.cold", 4, func(i int) error {
		_, err := engine.QueryContext(ctx, sensorQuery(i))
		return err
	})
	if err != nil {
		return err
	}
	r.set("query.cold_ms", us/1000, "ms")
	us, _, err = r.stage("query.hit", 2000, func(int) error {
		_, err := engine.QueryContext(ctx, sensorQuery(0))
		return err
	})
	if err != nil {
		return err
	}
	r.set("query.hit_us", us, "us")

	// The seeded request mix through the view backend, single-threaded
	// at a fixed fleet time: how often the window cache answers and how
	// many shard sub-queries a query fans out to.
	mixEngine := query.NewFromDeployment(d, query.Config{MaxEntries: 256, ServeStale: true})
	backend := &viz.Backend{Q: mixEngine, Units: sp.units, Sensors: sp.sensors, MaxPoints: 512}
	gen := newReadGen(int64(r.w.s.fleet.Config().Seed), sp.units, sp.sensors)
	sealedTo := min(sp.sealedTo(), now)
	if _, _, err = r.stage("viz.mix", 40, func(int) error { return serveRead(ctx, backend, mixEngine, gen.next(), now, sealedTo) }); err != nil {
		return err
	}
	r.set("query.cache_hit_frac", float64(mixEngine.CacheHits.Value())/float64(max(mixEngine.Queries.Value(), 1)), "ratio")
	r.set("query.subqueries_per_query", float64(mixEngine.SubQueries.Value())/float64(max(mixEngine.Queries.Value(), 1)), "count")

	// The three views with the cache off, so every call is cold.
	cold := &viz.Backend{Q: query.NewFromDeployment(d, query.Config{MaxEntries: -1}), Units: sp.units, Sensors: sp.sensors, MaxPoints: 512}
	views := []struct {
		name string
		call func(i int) error
	}{
		{"viz.sensor", func(i int) error {
			_, err := cold.Sensor(ctx, i%sp.units, i%sp.sensors, now-300, now)
			return err
		}},
		{"viz.machine", func(i int) error { _, err := cold.Machine(ctx, i%sp.units, now-900, now); return err }},
		{"viz.fleet", func(int) error { _, err := cold.Fleet(ctx, now-300, now); return err }},
	}
	for _, v := range views {
		us, _, err := r.stage(v.name, 3, v.call)
		if err != nil {
			return err
		}
		r.set(v.name+"_ms", us/1000, "ms")
	}
	return nil
}

// serveRead answers one request of the dashboard mix the way the
// gateway's handlers do, minus HTTP.
func serveRead(ctx context.Context, b *viz.Backend, e *query.Engine, q readReq, now, sealedTo int64) error {
	var err error
	switch q.kind {
	case readSensor:
		_, err = b.Sensor(ctx, q.unit, q.sensor, now-300, now)
	case readMachine:
		_, err = b.Machine(ctx, q.unit, now-900, now)
	case readFleet:
		_, err = b.Fleet(ctx, now-300, now)
	case readTop:
		_, err = b.TopAnomalies(ctx, now-3600, now, 10)
	case readWide:
		_, err = e.QueryContext(ctx, tsdb.Query{Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(q.unit, q.sensor), Start: 0, End: sealedTo, MaxPoints: 512})
	default:
		_, err = e.QueryContext(ctx, tsdb.Query{Metric: tsdb.MetricEnergy, Tags: map[string]string{"unit": fmt.Sprint(q.unit)}, Start: 0, End: sealedTo})
	}
	if errors.Is(err, tsdb.ErrNoSuchMetric) {
		return nil // no flag written yet: the views treat it as empty
	}
	return err
}

// replayAdmission: the overload controller's admit decision — a guard,
// it must stay invisible next to a put.
func (r *replay) replayAdmission() error {
	const calls = 200_000
	ctrl := admission.NewController(admission.Config{})
	begin := time.Now()
	for i := 0; i < calls; i++ {
		if !ctrl.Admit(admission.Ingest, "").OK {
			return errors.New("admission.admit: an idle controller shed a request")
		}
	}
	end := time.Now()
	r.w.tr.span("admission.admit", begin, end, -1, -1)
	r.set("admission.admit_ns", float64(end.Sub(begin))/calls, "ns")
	return nil
}

// metricNames lists the metrics of a run, sorted; TestSmoke holds
// BENCHMARK.json to it.
func metricNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
