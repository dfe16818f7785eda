package repro

// The repository benchmark harness: one benchmark per figure/table in
// the paper's evaluation (see README.md for the experiment index).
//
//	go test -bench=. -benchmem
//
// Absolute numbers depend on the host; the shapes — linear node
// scaling, salting ≫ unsalted, proxy preventing crashes, BH power vs
// Bonferroni, evaluation throughput in the hundreds of thousands of
// samples per second — are the reproduction targets.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/fdr"
	"repro/internal/hbase"
	"repro/internal/ingest"
	"repro/internal/proxy"
	"repro/internal/simdata"
	"repro/internal/stats"
	"repro/internal/tsdb"
	"repro/internal/viz"
)

// paperPerNodeRate is the emulated per-node service ceiling in
// samples/second, calibrated to the paper's ~11–13k samples/s/node.
const paperPerNodeRate = 13300.0

// benchFleet is the workload shape used by the storage benchmarks
// (scaled from the paper's 100×1000 so each step is a few thousand
// samples).
func benchFleet() *simdata.Fleet {
	return simdata.NewFleet(simdata.Config{Units: 20, SensorsPerUnit: 100, Seed: 42})
}

// storageRig boots region servers + TSDs + proxy for the ingestion
// benchmarks.
type storageRig struct {
	cluster *hbase.Cluster
	deploy  *tsdb.Deployment
	px      *proxy.Proxy
	fleet   *simdata.Fleet
}

func newStorageRig(b *testing.B, nodes int, perNodeRate float64, saltBuckets int) *storageRig {
	b.Helper()
	cluster, err := hbase.NewCluster(hbase.Config{
		RegionServers:    nodes,
		ServiceRatePerRS: perNodeRate,
	})
	if err != nil {
		b.Fatal(err)
	}
	deploy, err := tsdb.NewDeployment(cluster, nodes, tsdb.TSDConfig{SaltBuckets: saltBuckets})
	if err != nil {
		b.Fatal(err)
	}
	if err := deploy.CreateTable(); err != nil {
		b.Fatal(err)
	}
	px, err := proxy.New(cluster.Network(), deploy.Addrs(), proxy.Config{MaxInFlight: 2 * nodes})
	if err != nil {
		b.Fatal(err)
	}
	rig := &storageRig{cluster: cluster, deploy: deploy, px: px, fleet: benchFleet()}
	b.Cleanup(func() {
		rig.px.Close()
		rig.cluster.Stop()
	})
	return rig
}

// BenchmarkFig2IngestScaling is E1 — Figure 2 (left): ingestion
// throughput versus storage node count under the calibrated per-node
// service rate. The "paper-samples/s" metric should scale linearly at
// ≈13.3k per node (paper: ~11k, 399k total at 30 nodes).
func BenchmarkFig2IngestScaling(b *testing.B) {
	for _, nodes := range []int{10, 15, 20, 25, 30} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			rig := newStorageRig(b, nodes, paperPerNodeRate, nodes)
			driver := ingest.NewDriver(rig.fleet, rig.px, ingest.DriverConfig{BatchSize: 1000, Senders: 8})
			samplesPerStep := int64(rig.fleet.Units() * rig.fleet.Sensors())
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := driver.Run(int64(i), 1); err != nil {
					b.Fatal(err)
				}
			}
			rig.px.Flush()
			elapsed := time.Since(start).Seconds()
			total := float64(samplesPerStep) * float64(b.N)
			b.ReportMetric(total/elapsed, "paper-samples/s")
			b.ReportMetric(total/elapsed/float64(nodes), "samples/s/node")
		})
	}
}

// BenchmarkFig2StableRate is E2 — Figure 2 (right): the delivery rate
// at a fixed cluster size must be stable over time (the reported R² of
// the cumulative curve should be ≈1).
func BenchmarkFig2StableRate(b *testing.B) {
	rig := newStorageRig(b, 10, paperPerNodeRate, 10)
	// A small proxy buffer keeps delivery tightly coupled to
	// submission, so the delivered-vs-time curve reflects the steady
	// rate rather than buffer ramp-up.
	px, err := proxy.New(rig.cluster.Network(), rig.deploy.Addrs(), proxy.Config{MaxInFlight: 20, BufferBatches: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer px.Close()
	driver := ingest.NewDriver(rig.fleet, px, ingest.DriverConfig{BatchSize: 1000, Senders: 8})
	var xs, ys []float64
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := driver.Run(int64(i), 1); err != nil {
			b.Fatal(err)
		}
		if i >= 5 {
			xs = append(xs, time.Since(start).Seconds())
			ys = append(ys, float64(px.Delivered.Value()))
		}
	}
	px.Flush()
	if len(xs) >= 3 {
		_, slope, r2 := linearFit(xs, ys)
		b.ReportMetric(r2, "R2")
		b.ReportMetric(slope, "paper-samples/s")
	}
}

// BenchmarkAblationSalting is E3 — §III-B: unsalted sequential keys
// funnel every write to one RegionServer (throughput pinned at one
// node's rate); salting spreads them across all.
func BenchmarkAblationSalting(b *testing.B) {
	const nodes = 10
	for _, salted := range []bool{false, true} {
		b.Run(fmt.Sprintf("salted=%v", salted), func(b *testing.B) {
			buckets := 0
			if salted {
				buckets = nodes
			}
			rig := newStorageRig(b, nodes, paperPerNodeRate, buckets)
			driver := ingest.NewDriver(rig.fleet, rig.px, ingest.DriverConfig{BatchSize: 1000, Senders: 8})
			samplesPerStep := int64(rig.fleet.Units() * rig.fleet.Sensors())
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := driver.Run(int64(i), 1); err != nil {
					b.Fatal(err)
				}
			}
			rig.px.Flush()
			elapsed := time.Since(start).Seconds()
			b.ReportMetric(float64(samplesPerStep)*float64(b.N)/elapsed, "paper-samples/s")
			maxShare := 0.0
			for _, s := range rig.cluster.WriteShares() {
				if s > maxShare {
					maxShare = s
				}
			}
			b.ReportMetric(100*maxShare, "hottest-node-%")
		})
	}
}

// BenchmarkAblationBackpressure is E4 — §III-B: unbounded concurrent
// producers overflow RegionServer RPC queues and crash servers; the
// buffering proxy's bounded in-flight window prevents it.
func BenchmarkAblationBackpressure(b *testing.B) {
	const nodes = 4
	for _, buffered := range []bool{false, true} {
		b.Run(fmt.Sprintf("buffered=%v", buffered), func(b *testing.B) {
			cluster, err := hbase.NewCluster(hbase.Config{
				RegionServers:    nodes,
				ServiceRatePerRS: paperPerNodeRate,
				RSQueueCap:       8,
				CrashOnOverflow:  16,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Stop()
			deploy, err := tsdb.NewDeployment(cluster, nodes, tsdb.TSDConfig{
				SaltBuckets: nodes, Workers: 64, QueueCap: 256, FailFast: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := deploy.CreateTable(); err != nil {
				b.Fatal(err)
			}
			// 64 units so 64 producer goroutines are simultaneously
			// active — the unbounded-concurrency overload condition.
			fleet := simdata.NewFleet(simdata.Config{Units: 64, SensorsPerUnit: 100, Seed: 42})
			var delivered, failures int64
			if buffered {
				px, err := proxy.New(cluster.Network(), deploy.Addrs(), proxy.Config{MaxInFlight: nodes})
				if err != nil {
					b.Fatal(err)
				}
				driver := ingest.NewDriver(fleet, px, ingest.DriverConfig{BatchSize: 500, Senders: 64})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, _ = driver.Run(int64(i), 1)
					px.Flush() // timed: the honest cost is ingest + drain
				}
				delivered = px.Delivered.Value()
				failures = px.Dropped.Value()
				px.Close()
			} else {
				var rr atomic.Uint64
				addrs := deploy.Addrs()
				sink := ingest.SinkFunc(func(pts []tsdb.Point) error {
					addr := addrs[int(rr.Add(1))%len(addrs)]
					_, err := cluster.Network().Call(context.Background(), addr, "put", &tsdb.PutBatch{Points: pts})
					return err
				})
				driver := ingest.NewDriver(fleet, sink, ingest.DriverConfig{BatchSize: 100, Senders: 64})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					stats, _ := driver.Run(int64(i), 1)
					delivered += stats.Samples
					failures += stats.Failures
				}
			}
			crashed := 0
			for _, rs := range cluster.RegionServers() {
				if rs.Crashed() {
					crashed++
				}
			}
			b.ReportMetric(float64(crashed), "crashed-servers")
			b.ReportMetric(float64(delivered)/float64(b.N), "delivered/iter")
			b.ReportMetric(float64(failures)/float64(b.N), "failed-batches/iter")
		})
	}
}

// BenchmarkAblationRowCompaction is the §III-B compaction finding: row
// compaction multiplies RPC calls per stored sample, which is why the
// paper disabled it.
func BenchmarkAblationRowCompaction(b *testing.B) {
	for _, enabled := range []bool{false, true} {
		b.Run(fmt.Sprintf("enabled=%v", enabled), func(b *testing.B) {
			cluster, err := hbase.NewCluster(hbase.Config{RegionServers: 3})
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Stop()
			deploy, err := tsdb.NewDeployment(cluster, 1, tsdb.TSDConfig{SaltBuckets: 3, CompactionEnabled: enabled})
			if err != nil {
				b.Fatal(err)
			}
			if err := deploy.CreateTable(); err != nil {
				b.Fatal(err)
			}
			tsd := deploy.TSDs()[0]
			fleet := benchFleet()
			var pts []tsdb.Point
			for t := int64(0); t < 20; t++ {
				for u := 0; u < 5; u++ {
					for s := 0; s < 20; s++ {
						pts = append(pts, tsdb.EnergyPoint(u, s, t, fleet.Value(u, s, t)))
					}
				}
			}
			b.ResetTimer()
			var calls int64
			for i := 0; i < b.N; i++ {
				before := cluster.Network().Calls.Value()
				if err := tsd.Put(pts); err != nil {
					b.Fatal(err)
				}
				if _, err := tsd.CompactRows(1 << 40); err != nil {
					b.Fatal(err)
				}
				calls += cluster.Network().Calls.Value() - before
			}
			b.ReportMetric(float64(calls)/float64(b.N)/float64(len(pts)), "rpc-calls/sample")
		})
	}
}

// BenchmarkFDRCorrections is E5 — §IV: cost and operating
// characteristics of each multiple-testing correction on a
// 1000-sensor family (20% faulty at 4σ).
func BenchmarkFDRCorrections(b *testing.B) {
	const m, m1 = 1000, 200
	truth := make([]bool, m)
	for i := 0; i < m1; i++ {
		truth[i] = true
	}
	rng := rand.New(rand.NewSource(5))
	families := make([][]float64, 64)
	for f := range families {
		pv := make([]float64, m)
		for i := range pv {
			mu := 0.0
			if truth[i] {
				mu = 4
			}
			pv[i] = stats.ZTestPoint(rng.NormFloat64()+mu, 0, 1, stats.TwoSided).PValue
		}
		families[f] = pv
	}
	for _, proc := range []fdr.Procedure{fdr.Uncorrected, fdr.Bonferroni, fdr.Holm, fdr.BH, fdr.BY} {
		b.Run(proc.String(), func(b *testing.B) {
			var met fdr.Metrics
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := fdr.Apply(proc, families[i%len(families)], 0.05)
				if err != nil {
					b.Fatal(err)
				}
				met.Add(fdr.Score(res.Rejected, truth))
			}
			b.ReportMetric(met.FDR(), "empirical-FDR")
			b.ReportMetric(met.FWER(), "empirical-FWER")
			b.ReportMetric(met.Power(), "power")
		})
	}
}

// BenchmarkOnlineEvalThroughput is E6 — §IV-A: online evaluation rate
// in sensor samples/second ("939,000 sensor samples per second" in the
// paper; one matrix multiplication per iteration).
func BenchmarkOnlineEvalThroughput(b *testing.B) {
	eng := dataflow.NewEngine(0)
	defer eng.Close()
	fleet := simdata.NewFleet(simdata.Config{Units: 1, SensorsPerUnit: 1000, Seed: 9, FaultFraction: 0})
	trainer := core.NewTrainer(eng, core.TrainerConfig{})
	model, err := trainer.TrainUnit(0, fleet.UnitWindow(0, 0, 512))
	if err != nil {
		b.Fatal(err)
	}
	ev, err := core.NewEvaluator(model, core.EvaluatorConfig{Procedure: fdr.BH})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 64
	xs := fleet.UnitWindow(0, 1000, batch)
	ts := make([]int64, batch)
	for i := range ts {
		ts[i] = int64(1000 + i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := ev.EvaluateBatch(xs, ts); err != nil {
			b.Fatal(err)
		}
	}
	samples := float64(b.N) * batch * 1000
	b.ReportMetric(samples/time.Since(start).Seconds(), "samples/s")
}

// BenchmarkTrainingConcurrency is E7 — §IV-A: offline training of the
// fleet one unit at a time (the paper's current system) versus
// concurrently on the dataflow engine (the paper's ongoing work).
func BenchmarkTrainingConcurrency(b *testing.B) {
	eng := dataflow.NewEngine(0)
	defer eng.Close()
	fleet := simdata.NewFleet(simdata.Config{Units: 16, SensorsPerUnit: 120, Seed: 10, FaultOnset: 1 << 40})
	src := core.WindowFunc(func(unit int) ([][]float64, error) {
		return fleet.UnitWindow(unit, 0, 200), nil
	})
	trainer := core.NewTrainer(eng, core.TrainerConfig{})
	ids := make([]int, fleet.Units())
	for i := range ids {
		ids[i] = i
	}
	for _, concurrent := range []bool{false, true} {
		name := "serial"
		if concurrent {
			name = "concurrent"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := trainer.TrainFleet(ids, src, nil, concurrent); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVizMachinePage is E8 — Figure 3: rendering the machine page
// (status bar + per-sensor sparklines + red anomaly flags) over live
// TSDB data.
func BenchmarkVizMachinePage(b *testing.B) {
	cluster, err := hbase.NewCluster(hbase.Config{RegionServers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Stop()
	deploy, err := tsdb.NewDeployment(cluster, 1, tsdb.TSDConfig{SaltBuckets: 2})
	if err != nil {
		b.Fatal(err)
	}
	if err := deploy.CreateTable(); err != nil {
		b.Fatal(err)
	}
	tsd := deploy.TSDs()[0]
	fleet := simdata.NewFleet(simdata.Config{Units: 2, SensorsPerUnit: 40, Seed: 11})
	var pts []tsdb.Point
	for t := int64(0); t < 120; t++ {
		for s := 0; s < 40; s++ {
			pts = append(pts, tsdb.EnergyPoint(0, s, t, fleet.Value(0, s, t)))
		}
	}
	for i := int64(0); i < 10; i++ {
		pts = append(pts, tsdb.Point{Metric: tsdb.MetricAnomaly, Tags: tsdb.EnergyTags(0, 3), Timestamp: 100 + i, Value: 5})
	}
	if err := tsd.Put(pts); err != nil {
		b.Fatal(err)
	}
	backend := &viz.Backend{Q: tsd, Units: 2, Sensors: 40}
	server := viz.NewServer(backend, func() int64 { return 120 })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("GET", "/machine/0?from=0&to=120", nil)
		rec := httptest.NewRecorder()
		server.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkPipelinedPut is E10 — the async-fabric refactor: one
// multi-region batch issued through the client's pipelined futures
// versus the same cells written one region at a time, over a simulated
// 200µs RPC wire. The pipelined path should approach a single
// round-trip per batch regardless of the region count; the serial path
// pays one round trip per region.
func BenchmarkPipelinedPut(b *testing.B) {
	const regions = 8
	const perRegion = 64
	for _, mode := range []string{"serial-per-region", "pipelined"} {
		b.Run(mode, func(b *testing.B) {
			cluster, err := hbase.NewCluster(hbase.Config{
				RegionServers: 4,
				NetLatency:    200 * time.Microsecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Stop()
			splits := make([][]byte, 0, regions-1)
			for i := 1; i < regions; i++ {
				splits = append(splits, []byte{byte(i * 256 / regions)})
			}
			if err := cluster.CreateTable(splits); err != nil {
				b.Fatal(err)
			}
			cl := cluster.NewClient(hbase.ClientConfig{})
			// One chunk of cells per region, recognisable by row prefix.
			chunks := make([][]hbase.Cell, regions)
			var all []hbase.Cell
			for r := 0; r < regions; r++ {
				prefix := byte(r * 256 / regions)
				for i := 0; i < perRegion; i++ {
					cell := hbase.Cell{
						Row:   []byte{prefix, byte(i >> 8), byte(i)},
						Qual:  []byte{0},
						Value: []byte{byte(r)},
					}
					chunks[r] = append(chunks[r], cell)
					all = append(all, cell)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "pipelined" {
					if err := cl.Put(all); err != nil {
						b.Fatal(err)
					}
				} else {
					for _, chunk := range chunks {
						if err := cl.Put(chunk); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			b.ReportMetric(float64(len(all))*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

// linearFit mirrors telemetry.LinearFit without importing it here (the
// benches already import a dozen packages; keep the root file legible).
func linearFit(xs, ys []float64) (intercept, slope, r2 float64) {
	n := float64(len(xs))
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
	if sxx == 0 || syy == 0 {
		return my, 0, 0
	}
	slope = sxy / sxx
	return my - slope*mx, slope, (sxy * sxy) / (sxx * syy)
}
