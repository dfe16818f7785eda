package query

import (
	"context"
	"testing"

	"repro/internal/hbase"
	"repro/internal/tsdb"
)

// benchEnv seeds units×sensors energy series, one sample every
// `every` seconds over [0, steps), behind nTSD daemons and returns the
// deployment (cleanup via b.Cleanup).
func benchEnv(b *testing.B, nTSD, units, sensors int, steps, every int64) *tsdb.Deployment {
	b.Helper()
	cluster, err := hbase.NewCluster(hbase.Config{RegionServers: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cluster.Stop)
	d, err := tsdb.NewDeployment(cluster, nTSD, tsdb.TSDConfig{SaltBuckets: 2})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.CreateTable(); err != nil {
		b.Fatal(err)
	}
	pts := make([]tsdb.Point, 0, units*sensors*int(steps/every))
	for u := 0; u < units; u++ {
		for s := 0; s < sensors; s++ {
			for ts := int64(0); ts < steps; ts += every {
				pts = append(pts, tsdb.EnergyPoint(u, s, ts, float64(u+s)+float64(ts%17)))
			}
		}
	}
	if err := d.TSDs()[0].Put(pts); err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkQueryCacheHit is the hot read path: an identical repeated
// window served straight from the LRU. Its allocs/op is pinned at 0 in
// PINS — a warmed cache serves without touching the heap.
func BenchmarkQueryCacheHit(b *testing.B) {
	d := benchEnv(b, 2, 1, 4, 600, 1)
	e := NewFromDeployment(d, Config{MaxEntries: 64})
	ctx := context.Background()
	q := tsdb.Query{Metric: tsdb.MetricEnergy, Tags: map[string]string{"unit": "0"}, Start: 0, End: 599, MaxPoints: 200}
	if _, err := e.QueryContext(ctx, q); err != nil { // warm the entry
		b.Fatal(err)
	}
	scans := d.QueriesServed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err := e.QueryContext(ctx, q)
		if err != nil || len(series) == 0 {
			b.Fatalf("hit failed: %v", err)
		}
	}
	b.StopTimer()
	if d.QueriesServed() != scans {
		b.Fatalf("cache-hit benchmark touched storage: %d extra scans", d.QueriesServed()-scans)
	}
}

// BenchmarkQueryColdScatterGather is the cold read path of a wide
// window: every iteration invalidates the metric's watermark, forcing a
// full scatter-gather of four row-hours across four TSDs (600 samples a
// series, as in the narrow windows).
func BenchmarkQueryColdScatterGather(b *testing.B) {
	const hours = 4
	d := benchEnv(b, 4, 1, 4, hours*tsdb.RowSeconds, hours*tsdb.RowSeconds/600)
	e := NewFromDeployment(d, Config{MaxEntries: 64})
	ctx := context.Background()
	q := tsdb.Query{Metric: tsdb.MetricEnergy, Tags: map[string]string{"unit": "0"}, Start: 0, End: hours*tsdb.RowSeconds - 1, MaxPoints: 200}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Watermarks().Bump(tsdb.MetricEnergy)
		if _, err := e.QueryContext(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if e.CacheHits.Value() != 0 {
		b.Fatalf("cold benchmark hit the cache %d times", e.CacheHits.Value())
	}
	b.ReportMetric(float64(e.SubQueries.Value())/float64(b.N), "subqueries/op")
}

// BenchmarkQueryColdNarrow is a dashboard panel's cold read: one series
// over the last 300 s, three TSDs. The window lies in one row-hour, so
// it is one shard — one sub-query scanning the row once — where a shard
// per TSD cut it three ways. subqueries/op is ratcheted in PINS.
func BenchmarkQueryColdNarrow(b *testing.B) {
	d := benchEnv(b, 3, 1, 4, 600, 1)
	e := NewFromDeployment(d, Config{MaxEntries: 64})
	ctx := context.Background()
	q := tsdb.Query{Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(0, 1), Start: 300, End: 599}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Watermarks().Bump(tsdb.MetricEnergy)
		series, err := e.QueryContext(ctx, q)
		if err != nil || len(series) != 1 || len(series[0].Samples) != 300 {
			b.Fatalf("narrow read = %v, %v", series, err)
		}
	}
	b.StopTimer()
	if e.CacheHits.Value() != 0 {
		b.Fatalf("cold benchmark hit the cache %d times", e.CacheHits.Value())
	}
	b.ReportMetric(float64(e.SubQueries.Value())/float64(b.N), "subqueries/op")
}

// BenchmarkQueryLTTB measures bounding a 100k-sample series to 400
// render points.
func BenchmarkQueryLTTB(b *testing.B) {
	in := make([]tsdb.Sample, 100_000)
	for i := range in {
		in[i] = tsdb.Sample{Timestamp: int64(i), Value: float64(i % 997)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := LTTB(in, 400); len(out) != 400 {
			b.Fatal("wrong size")
		}
	}
}
