package repro

// The repository benchmarks: the §IV workloads of the claims table's
// E5b and E6 rows (experiments.go), timed, and the Figure 3 page and
// pipelined-put costs.
//
//	go test -bench=. -benchmem

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/fdr"
	"repro/internal/hbase"
	"repro/internal/simdata"
	"repro/internal/tsdb"
	"repro/internal/viz"
)

// BenchmarkFDRCorrections times each multiple-testing correction on
// E5b's workload (1,000-sensor families, 20% faulty at 4σ) and reports
// its operating characteristics.
func BenchmarkFDRCorrections(b *testing.B) {
	families, truth := fdrFamilies(64)
	for _, proc := range fdr.Procedures {
		b.Run(proc.String(), func(b *testing.B) {
			var met fdr.Metrics
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := fdr.Apply(proc, families[i%len(families)], claimLevel)
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

// BenchmarkOnlineEvalThroughput times E6's workload: one batch through
// the online evaluator, one matrix multiplication per iteration, in
// sensor samples/second.
func BenchmarkOnlineEvalThroughput(b *testing.B) {
	ev, xs, ts, err := evalLoad()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := ev.EvaluateBatch(xs, ts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*len(xs)*len(xs[0]))/time.Since(start).Seconds(), "samples/s")
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
