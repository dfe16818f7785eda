package tsdb

import (
	"testing"

	"repro/internal/hbase"
)

func benchDeployment(b *testing.B, salt int) *Deployment {
	b.Helper()
	cluster, err := hbase.NewCluster(hbase.Config{RegionServers: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cluster.Stop)
	d, err := NewDeployment(cluster, 1, TSDConfig{SaltBuckets: salt})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.CreateTable(); err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkCodecEncode is one point to its cell on the write path: the
// series' key comes from the codec's cache for its interned tag set, and
// the cell is one allocation. Pinned in PINS.
func BenchmarkCodecEncode(b *testing.B) {
	d := benchDeployment(b, 8)
	codec := NewCodec(d.UIDs, 8)
	p := EnergyPoint(42, 867, 7249, 123.456)
	// Pre-intern the names so the bench isolates the encode path.
	if _, err := codec.Encode(&p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Encode(&p); err != nil {
			b.Fatal(err)
		}
	}
}

// energySink keeps BenchmarkEnergyPoint's result alive.
var energySink Point

// BenchmarkEnergyPoint is what every fleet feeder, loader and write-back
// pays per point: a lookup of the series' shared tag map. Pinned at 0
// allocs/op in PINS — a producer back on a map per point fails it.
func BenchmarkEnergyPoint(b *testing.B) {
	EnergyPoint(42, 867, 0, 0) // the series is known; the bench is the lookup
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		energySink = EnergyPoint(42, 867, int64(i), 123.456)
	}
}

func BenchmarkTSDPut(b *testing.B) {
	d := benchDeployment(b, 3)
	tsd := d.TSDs()[0]
	const batch = 1000
	pts := make([]Point, batch)
	for i := range pts {
		pts[i] = EnergyPoint(i%20, i%100, int64(i), float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range pts {
			pts[j].Timestamp = int64(i*batch + j)
		}
		if err := tsd.Put(pts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkTSDQuery reads 300 s of the hot tier of a metric holding 20
// series of one unit: /unit all of them, /series one. The tag filter
// rides the scan, so /series costs its one series' rows, not the
// metric's.
func BenchmarkTSDQuery(b *testing.B) {
	d := benchDeployment(b, 3)
	tsd := d.TSDs()[0]
	var pts []Point
	for s := 0; s < 20; s++ {
		for t := int64(0); t < 300; t++ {
			pts = append(pts, EnergyPoint(1, s, t, float64(t)))
		}
	}
	if err := tsd.Put(pts); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		tags   map[string]string
		series int
	}{
		{"unit", map[string]string{"unit": "1"}, 20},
		{"series", EnergyTags(1, 7), 1},
	} {
		b.Run(c.name, func(b *testing.B) {
			q := Query{Metric: MetricEnergy, Tags: c.tags, Start: 0, End: 299}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				series, err := tsd.Query(q)
				if err != nil {
					b.Fatal(err)
				}
				if len(series) != c.series {
					b.Fatalf("series = %d, want %d", len(series), c.series)
				}
			}
			b.ReportMetric(float64(300*c.series*b.N)/b.Elapsed().Seconds(), "samples-read/s")
		})
	}
}

// BenchmarkCompressedScan decodes one sealed hour through the
// zero-allocation iterator — the drill-down hot path. Pinned at
// 0 allocs/op in PINS.
func BenchmarkCompressedScan(b *testing.B) {
	samples := make([]Sample, RowSeconds)
	v := 500.0
	r := rng(3)
	for i := range samples {
		v += r.norm()
		samples[i] = Sample{Timestamp: int64(i), Value: QuantizeValue(v, 4)}
	}
	data := EncodeBlock(samples)
	var it BlockIter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.Reset(data)
		n := 0
		var sum float64
		for it.Next() {
			_, val := it.At()
			sum += val
			n++
		}
		if it.Err() != nil || n != len(samples) {
			b.Fatalf("decoded %d samples, err %v", n, it.Err())
		}
	}
	b.ReportMetric(float64(len(samples)*b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkCompressedScanTail reads the last 300 s of one sealed hour
// the way a drill-down reads a sealed block: seek to the last mark
// before the window, decode to its end. The BenchmarkCompressedScan
// prefix pins it at 0 allocs/op in PINS; samples/s counts the samples
// the window returns.
func BenchmarkCompressedScanTail(b *testing.B) {
	const window = 300
	samples := make([]Sample, RowSeconds)
	v := 500.0
	r := rng(3)
	for i := range samples {
		v += r.norm()
		samples[i] = Sample{Timestamp: int64(i), Value: QuantizeValue(v, 4)}
	}
	data, marks := encodeBlockMarked(samples)
	dst := make([]Sample, 0, window)
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = decodeWindow(dst[:0], data, marks, RowSeconds-window, RowSeconds-1)
		if err != nil || len(dst) != window {
			b.Fatalf("decoded %d samples, err %v", len(dst), err)
		}
	}
	b.ReportMetric(float64(window*b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkBlockCompress seals one sensor-shaped hour and reports the
// compression ratio the storage tier achieves — the bytes/sample
// figure the bench gate ratchets.
func BenchmarkBlockCompress(b *testing.B) {
	samples := make([]Sample, RowSeconds)
	v := 500.0
	r := rng(5)
	for i := range samples {
		v += r.norm()
		samples[i] = Sample{Timestamp: int64(i), Value: QuantizeValue(v, 4)}
	}
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		size = len(EncodeBlock(samples))
	}
	b.ReportMetric(float64(size)/float64(len(samples)), "bytes/sample")
	b.ReportMetric(float64(len(samples)*b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkRollupQuery serves a wide downsampled dashboard window
// entirely from sealed rollups — no block is decompressed.
func BenchmarkRollupQuery(b *testing.B) {
	d := benchDeployment(b, 3)
	bs := d.AttachBlockStore(BlockStoreConfig{})
	tsd := d.TSDs()[0]
	const hours = 6
	pts := make([]Point, 0, RowSeconds)
	for h := int64(0); h < hours; h++ {
		pts = pts[:0]
		for ts := h * RowSeconds; ts < (h+1)*RowSeconds; ts++ {
			pts = append(pts, EnergyPoint(1, 1, ts, QuantizeValue(500+float64(ts%600)/10, 4)))
		}
		if err := tsd.Put(pts); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := tsd.CompactRows(hours * RowSeconds); err != nil {
		b.Fatal(err)
	}
	q := Query{Metric: MetricEnergy, Tags: EnergyTags(1, 1),
		Start: 0, End: hours*RowSeconds - 1, DownsampleSeconds: 600, Aggregate: AggAvg}
	scans := bs.BlockScans.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err := tsd.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 1 || len(series[0].Samples) != hours*6 {
			b.Fatalf("rollup query = %+v", series)
		}
	}
	b.StopTimer()
	if bs.BlockScans.Value() != scans {
		b.Fatal("rollup bench decompressed blocks")
	}
	b.ReportMetric(float64(hours*RowSeconds*b.N)/b.Elapsed().Seconds(), "samples-covered/s")
}
