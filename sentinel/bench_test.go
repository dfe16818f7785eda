package sentinel

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/query"
	"repro/internal/tsdb"
)

// BenchmarkDetectorPoolFanout measures the streaming detector tier in
// isolation: a window of unit batches is staged on the commit log
// under a stopped timer, then a pool of N consumer-group workers
// drains and evaluates it. Only the consume-evaluate phase is timed,
// so the reported samples/s is the detector tier's own throughput and
// should scale with the worker count on multi-core (each worker owns a
// partition subset and evaluates through its private zero-allocation
// arena).
func BenchmarkDetectorPoolFanout(b *testing.B) {
	const (
		units   = 16
		sensors = 100
		window  = 32
	)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sys, err := New(Config{
				StorageNodes:   4,
				Units:          units,
				SensorsPerUnit: sensors,
				Partitions:     units,
				BusBuffer:      -1, // stage whole windows without backpressure
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			if _, err := sys.IngestRange(0, 64); err != nil {
				b.Fatal(err)
			}
			if err := sys.TrainFromTSDB(0, 64, true); err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// Stage the next window: the detector group accumulates
				// it as backlog while the storage tier drains it.
				sys.AttachDetectorGroup()
				if _, err := sys.IngestRange(64+int64(i)*window, window); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				pool := sys.StartDetectors(workers)
				if err := pool.Sync(ctx); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if got := pool.SamplesEvaluated.Value(); got != units*sensors*window {
					b.Fatalf("pool evaluated %d samples, want %d", got, units*sensors*window)
				}
				pool.Stop()
				b.StartTimer()
			}
			b.ReportMetric(float64(units*sensors*window)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}

// BenchmarkClusterQuery prices a read through the query engine of a
// four-node cluster's gateway, whose two stores it reaches over
// loopback TCP. "hit" repeats a window the engine has cached: one
// watermark rpc per store, no scan. "cold" bumps a store's watermark
// before every read, forcing the scatter-gather across both stores.
func BenchmarkClusterQuery(b *testing.B) {
	nodes, err := bootTestCluster(fourNodes)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	for i, name := range []string{"store-1", "store-2"} {
		var pts []tsdb.Point
		for u := 2 * i; u < 2*i+2; u++ {
			for s := 0; s < clusterSensors; s++ {
				for ts := int64(0); ts < 600; ts++ {
					pts = append(pts, tsdb.EnergyPoint(u, s, ts, float64(ts%17)))
				}
			}
		}
		if err := nodes[name].TSDB.TSDs()[0].Put(pts); err != nil {
			b.Fatal(err)
		}
	}
	e := nodes["dg"].QueryEngine(query.Config{})
	q := tsdb.Query{Metric: tsdb.MetricEnergy, Start: 0, End: 599, MaxPoints: 200}
	marks := nodes["store-1"].TSDB.Watermarks()
	for _, cold := range []bool{false, true} {
		b.Run(map[bool]string{false: "hit", true: "cold"}[cold], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if cold {
					marks.Bump(tsdb.MetricEnergy)
				}
				if series, err := e.QueryContext(context.Background(), q); err != nil || len(series) != clusterUnits*clusterSensors {
					b.Fatalf("read: %d series, %v", len(series), err)
				}
			}
		})
	}
}
