package repro

// The repository benchmarks for the paper's §IV–V evaluation (see
// README.md for the experiment index; Figure 2 and the §III-B
// ablations are experiments.go, run by cmd/tsdbench).
//
//	go test -bench=. -benchmem
//
// Absolute numbers depend on the host; the shapes — BH power vs
// Bonferroni, evaluation throughput in the hundreds of thousands of
// samples per second — are the reproduction targets.

import (
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fdr"
	"repro/internal/hbase"
	"repro/internal/simdata"
	"repro/internal/stats"
	"repro/internal/tsdb"
	"repro/internal/viz"
)

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
	fleet := simdata.NewFleet(simdata.Config{Units: 1, SensorsPerUnit: 1000, Seed: 9, FaultFraction: 0})
	model, err := core.TrainUnit(0, fleet.UnitWindow(0, 0, 512))
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
// fleet one unit at a time (the paper's current system) versus up to
// GOMAXPROCS units at once (the paper's ongoing work).
func BenchmarkTrainingConcurrency(b *testing.B) {
	fleet := simdata.NewFleet(simdata.Config{Units: 16, SensorsPerUnit: 120, Seed: 10, FaultOnset: 1 << 40})
	src := core.WindowFunc(func(unit int) ([][]float64, error) {
		return fleet.UnitWindow(unit, 0, 200), nil
	})
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
				if _, err := core.TrainFleet(ids, src, nil, concurrent); err != nil {
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
