package tsdb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hbase"
)

func newDeployment(t *testing.T, rsCount, tsdCount int, cfg TSDConfig) *Deployment {
	t.Helper()
	cluster, err := hbase.NewCluster(hbase.Config{RegionServers: rsCount})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Stop)
	d, err := NewDeployment(cluster, tsdCount, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPointValidate(t *testing.T) {
	good := EnergyPoint(1, 2, 100, 3.5)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Point{
		{Metric: "", Tags: map[string]string{"a": "b"}, Timestamp: 1},
		{Metric: "m", Tags: nil, Timestamp: 1},
		{Metric: "m", Tags: map[string]string{"": "b"}, Timestamp: 1},
		{Metric: "m", Tags: map[string]string{"a": ""}, Timestamp: 1},
		{Metric: "m", Tags: map[string]string{"a": "b"}, Timestamp: -5},
	}
	for i, p := range bad {
		if err := p.Validate(); !errors.Is(err, ErrBadPoint) {
			t.Fatalf("bad point %d accepted", i)
		}
	}
}

func TestUIDTableRoundTripAndReload(t *testing.T) {
	d := newDeployment(t, 2, 1, TSDConfig{SaltBuckets: 4})
	u := d.UIDs
	id1, err := u.GetOrCreate(kindMetric, "energy")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := u.GetOrCreate(kindMetric, "energy")
	if err != nil || id2 != id1 {
		t.Fatal("GetOrCreate must be idempotent")
	}
	id3, _ := u.GetOrCreate(kindMetric, "anomaly")
	if id3 == id1 {
		t.Fatal("distinct names must get distinct ids")
	}
	name, ok := u.Name(kindMetric, id1)
	if !ok || name != "energy" {
		t.Fatal("reverse lookup wrong")
	}
	// Reload from HBase: assignments must survive.
	if err := u.Reload(); err != nil {
		t.Fatal(err)
	}
	got, ok := u.Lookup(kindMetric, "energy")
	if !ok || got != id1 {
		t.Fatalf("after reload: %d, %v", got, ok)
	}
	// New allocations continue above the reloaded maximum.
	id4, _ := u.GetOrCreate(kindMetric, "third")
	if id4 <= id3 {
		t.Fatalf("post-reload allocation %d must exceed %d", id4, id3)
	}
}

func TestCodecEncodeDecodeRoundTrip(t *testing.T) {
	d := newDeployment(t, 2, 1, TSDConfig{SaltBuckets: 8})
	codec := NewCodec(d.UIDs, 8)
	p := EnergyPoint(42, 867, 7249, 123.456)
	cell, err := codec.Encode(&p)
	if err != nil {
		t.Fatal(err)
	}
	// Key layout: salt(1) + metric(3) + base(4) + 2 tags × 6.
	if len(cell.Row) != 1+3+4+12 {
		t.Fatalf("row key length = %d", len(cell.Row))
	}
	meta, ok, err := codec.decodeRow(cell.Row)
	if err != nil || !ok {
		t.Fatalf("decodeRow: ok=%v err=%v", ok, err)
	}
	got, err := decodeCell(nil, meta.base, cell)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("decoded %d samples", len(got))
	}
	if meta.metric != MetricEnergy || got[0] != (Sample{Timestamp: 7249, Value: 123.456}) {
		t.Fatalf("decoded = %+v %+v", meta, got[0])
	}
	if meta.tags["unit"] != "42" || meta.tags["sensor"] != "867" {
		t.Fatalf("tags = %v", meta.tags)
	}
}

func TestCodecSaltingDeterministicPerSeries(t *testing.T) {
	d := newDeployment(t, 2, 1, TSDConfig{SaltBuckets: 16})
	codec := NewCodec(d.UIDs, 16)
	// Same series, consecutive seconds within one hour: same salt, same
	// row.
	p1 := EnergyPoint(1, 1, 1000, 1)
	p2 := EnergyPoint(1, 1, 1001, 2)
	c1, _ := codec.Encode(&p1)
	c2, _ := codec.Encode(&p2)
	if string(c1.Row) != string(c2.Row) {
		t.Fatal("same series+hour must share a row")
	}
	// Different series spread across salts.
	salts := map[byte]bool{}
	for u := 0; u < 64; u++ {
		p := EnergyPoint(u, 0, 1000, 1)
		c, err := codec.Encode(&p)
		if err != nil {
			t.Fatal(err)
		}
		salts[c.Row[0]] = true
	}
	if len(salts) < 8 {
		t.Fatalf("64 series hit only %d salt buckets", len(salts))
	}
}

func TestCodecUnsaltedKeysSharePrefix(t *testing.T) {
	d := newDeployment(t, 2, 1, TSDConfig{SaltBuckets: 0})
	codec := NewCodec(d.UIDs, 0)
	pa := EnergyPoint(1, 1, 1000, 1)
	pb := EnergyPoint(99, 99, 1000, 1)
	a, _ := codec.Encode(&pa)
	b, _ := codec.Encode(&pb)
	// Without salt, the first 7 bytes (metric + base hour) coincide —
	// this is exactly the §III-B hotspot.
	if string(a.Row[:7]) != string(b.Row[:7]) {
		t.Fatal("unsalted keys must share the metric+time prefix")
	}
}

func TestSplitKeysMatchSalting(t *testing.T) {
	d := newDeployment(t, 2, 1, TSDConfig{})
	if n := len(NewCodec(d.UIDs, 8).SplitKeys()); n != 8 {
		t.Fatalf("salted split keys = %d, want 8 (7 salts + meta)", n)
	}
	if n := len(NewCodec(d.UIDs, 0).SplitKeys()); n != 1 {
		t.Fatalf("unsalted split keys = %d, want 1 (meta only)", n)
	}
}

func TestPutQueryRoundTrip(t *testing.T) {
	d := newDeployment(t, 3, 2, TSDConfig{SaltBuckets: 6})
	tsd := d.TSDs()[0]
	var points []Point
	for unit := 0; unit < 3; unit++ {
		for sensor := 0; sensor < 4; sensor++ {
			for ts := int64(0); ts < 10; ts++ {
				points = append(points, EnergyPoint(unit, sensor, 100+ts, float64(unit*100+sensor)+float64(ts)/10))
			}
		}
	}
	if err := tsd.Put(points); err != nil {
		t.Fatal(err)
	}
	// Query one unit through the OTHER tsd (shared storage).
	other := d.TSDs()[1]
	series, err := other.Query(Query{
		Metric: MetricEnergy,
		Tags:   map[string]string{"unit": "1"},
		Start:  100,
		End:    109,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("series = %d, want 4 sensors", len(series))
	}
	for _, ser := range series {
		if len(ser.Samples) != 10 {
			t.Fatalf("series %s has %d samples", ser.ID(), len(ser.Samples))
		}
		for i := 1; i < len(ser.Samples); i++ {
			if ser.Samples[i].Timestamp <= ser.Samples[i-1].Timestamp {
				t.Fatal("samples not sorted")
			}
		}
	}
	if d.PointsWritten() != int64(len(points)) {
		t.Fatalf("PointsWritten = %d", d.PointsWritten())
	}
}

func TestQueryTimeRangeAndTagFilters(t *testing.T) {
	d := newDeployment(t, 2, 1, TSDConfig{SaltBuckets: 4})
	tsd := d.TSDs()[0]
	var pts []Point
	for ts := int64(0); ts < 7200; ts += 600 { // spans two row base hours
		pts = append(pts, EnergyPoint(5, 7, ts, float64(ts)))
	}
	if err := tsd.Put(pts); err != nil {
		t.Fatal(err)
	}
	series, err := tsd.Query(Query{Metric: MetricEnergy, Tags: EnergyTags(5, 7), Start: 600, End: 4200})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series[0].Samples {
		if s.Timestamp < 600 || s.Timestamp > 4200 {
			t.Fatalf("sample %d outside range", s.Timestamp)
		}
	}
	if len(series[0].Samples) != 7 {
		t.Fatalf("samples = %d, want 7", len(series[0].Samples))
	}
	// Unknown metric errors.
	if _, err := tsd.Query(Query{Metric: "nope", Start: 0, End: 10}); !errors.Is(err, ErrNoSuchMetric) {
		t.Fatalf("err = %v", err)
	}
}

func TestQueryDownsampling(t *testing.T) {
	d := newDeployment(t, 2, 1, TSDConfig{SaltBuckets: 2})
	tsd := d.TSDs()[0]
	var pts []Point
	for ts := int64(0); ts < 60; ts++ {
		pts = append(pts, EnergyPoint(1, 1, ts, 2))
	}
	if err := tsd.Put(pts); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		agg  AggFunc
		want float64
	}{
		{AggAvg, 2}, {AggSum, 20}, {AggMin, 2}, {AggMax, 2}, {AggCount, 10},
	} {
		series, err := tsd.Query(Query{
			Metric: MetricEnergy, Tags: EnergyTags(1, 1),
			Start: 0, End: 59, DownsampleSeconds: 10, Aggregate: tc.agg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(series[0].Samples) != 6 {
			t.Fatalf("%v: buckets = %d, want 6", tc.agg, len(series[0].Samples))
		}
		for _, s := range series[0].Samples {
			if math.Abs(s.Value-tc.want) > 1e-12 {
				t.Fatalf("%v: bucket value = %v, want %v", tc.agg, s.Value, tc.want)
			}
		}
	}
	if AggAvg.String() != "avg" || AggFunc(99).String() == "" {
		t.Fatal("AggFunc strings wrong")
	}
}

func TestRowCompactionPreservesReads(t *testing.T) {
	d := newDeployment(t, 2, 1, TSDConfig{SaltBuckets: 2, CompactionEnabled: true})
	tsd := d.TSDs()[0]
	var pts []Point
	for ts := int64(0); ts < 30; ts++ {
		pts = append(pts, EnergyPoint(1, 1, ts, float64(ts)))
	}
	if err := tsd.Put(pts); err != nil {
		t.Fatal(err)
	}
	n, err := tsd.CompactRows(rowBaseSeconds) // everything older than hour 1
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("compacted %d rows, want 1", n)
	}
	series, err := tsd.Query(Query{Metric: MetricEnergy, Tags: EnergyTags(1, 1), Start: 0, End: 29})
	if err != nil {
		t.Fatal(err)
	}
	if len(series[0].Samples) != 30 {
		t.Fatalf("samples after compaction = %d, want 30", len(series[0].Samples))
	}
	for i, s := range series[0].Samples {
		if s.Value != float64(i) {
			t.Fatalf("sample %d = %v", i, s.Value)
		}
	}
	// Disabled compaction is a no-op.
	d2 := newDeployment(t, 2, 1, TSDConfig{SaltBuckets: 2, CompactionEnabled: false})
	tsd2 := d2.TSDs()[0]
	if err := tsd2.Put(pts); err != nil {
		t.Fatal(err)
	}
	if n, err := tsd2.CompactRows(rowBaseSeconds); err != nil || n != 0 {
		t.Fatalf("disabled compaction did %d rows, %v", n, err)
	}
}

func TestCompactionReducesStoredCells(t *testing.T) {
	d := newDeployment(t, 2, 1, TSDConfig{SaltBuckets: 1, CompactionEnabled: true})
	tsd := d.TSDs()[0]
	var pts []Point
	for ts := int64(0); ts < 100; ts++ {
		pts = append(pts, EnergyPoint(1, 1, ts, 1))
	}
	if err := tsd.Put(pts); err != nil {
		t.Fatal(err)
	}
	if _, err := tsd.CompactRows(rowBaseSeconds); err != nil {
		t.Fatal(err)
	}
	// After compaction + HBase major compaction, the row is one wide
	// cell instead of 100 narrow ones.
	series, err := tsd.Query(Query{Metric: MetricEnergy, Tags: EnergyTags(1, 1), Start: 0, End: 99})
	if err != nil {
		t.Fatal(err)
	}
	if len(series[0].Samples) != 100 {
		t.Fatalf("samples = %d", len(series[0].Samples))
	}
	if tsd.RowsCompacted.Value() != 1 {
		t.Fatalf("RowsCompacted = %d", tsd.RowsCompacted.Value())
	}
}

func TestTSDRPCInterface(t *testing.T) {
	d := newDeployment(t, 2, 2, TSDConfig{SaltBuckets: 4})
	net := d.Cluster.Network()
	addrs := d.Addrs()
	if len(addrs) != 2 || addrs[0] != "tsd/tsd-1" {
		t.Fatalf("addrs = %v", addrs)
	}
	pts := []Point{EnergyPoint(1, 1, 50, 9.5)}
	if _, err := net.Call(context.Background(), addrs[0], "put", &PutBatch{Points: pts}); err != nil {
		t.Fatal(err)
	}
	resp, err := net.Call(context.Background(), addrs[1], "query", &QueryRequest{Query: Query{
		Metric: MetricEnergy, Tags: EnergyTags(1, 1), Start: 0, End: 100,
	}})
	if err != nil {
		t.Fatal(err)
	}
	series := resp.(*QueryResponse).Series
	if len(series) != 1 || series[0].Samples[0].Value != 9.5 {
		t.Fatalf("rpc query = %+v", series)
	}
	if _, err := net.Call(context.Background(), addrs[0], "bogus", nil); err == nil {
		t.Fatal("unknown method must error")
	}
}

func TestSeriesIDCanonical(t *testing.T) {
	a := seriesID("m", map[string]string{"b": "2", "a": "1"})
	b := seriesID("m", map[string]string{"a": "1", "b": "2"})
	if a != b || a != "m{a=1,b=2}" {
		t.Fatalf("seriesID = %q / %q", a, b)
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	d := newDeployment(t, 2, 1, TSDConfig{SaltBuckets: 10})
	codec := NewCodec(d.UIDs, 10)
	f := func(unit, sensor uint8, tsRaw uint32, val float64) bool {
		if math.IsNaN(val) {
			return true
		}
		ts := int64(tsRaw % 1e7)
		p := EnergyPoint(int(unit), int(sensor), ts, val)
		cell, err := codec.Encode(&p)
		if err != nil {
			return false
		}
		meta, ok, err := codec.decodeRow(cell.Row)
		if err != nil || !ok {
			return false
		}
		got, err := decodeCell(nil, meta.base, cell)
		if err != nil || len(got) != 1 {
			return false
		}
		return got[0] == (Sample{Timestamp: ts, Value: val}) &&
			meta.tags["unit"] == fmt.Sprint(unit) && meta.tags["sensor"] == fmt.Sprint(sensor)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMetaRowsInvisibleToQueries(t *testing.T) {
	// UID rows live above the data keyspace; a full-range data query
	// must never decode them.
	d := newDeployment(t, 2, 1, TSDConfig{SaltBuckets: 3})
	tsd := d.TSDs()[0]
	if err := tsd.Put([]Point{EnergyPoint(1, 1, 10, 5)}); err != nil {
		t.Fatal(err)
	}
	series, err := tsd.Query(Query{Metric: MetricEnergy, Start: 0, End: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 {
		t.Fatalf("series = %d, want 1", len(series))
	}
}

func TestBucketStartFloorsNegatives(t *testing.T) {
	cases := []struct{ ts, width, want int64 }{
		{0, 10, 0}, {9, 10, 0}, {10, 10, 10}, {15, 10, 10},
		{-1, 10, -10}, {-5, 10, -10}, {-10, 10, -10}, {-11, 10, -20},
		{-25, 7, -28}, {25, 7, 21}, {-7, 7, -7},
	}
	for _, c := range cases {
		if got := BucketStart(c.ts, c.width); got != c.want {
			t.Fatalf("BucketStart(%d, %d) = %d, want %d", c.ts, c.width, got, c.want)
		}
	}
}

// TestDownsampleNegativeTimestamps is the regression test for the
// truncate-toward-zero bucketing bug: samples at t in [-5, -1] and
// [0, 4] must land in buckets -10 and 0, not share bucket 0.
func TestDownsampleNegativeTimestamps(t *testing.T) {
	var in []Sample
	for ts := int64(-5); ts < 5; ts++ {
		in = append(in, Sample{Timestamp: ts, Value: 1})
	}
	out := downsample(in, 10, AggCount)
	if len(out) != 2 {
		t.Fatalf("buckets = %d (%v), want 2", len(out), out)
	}
	if out[0].Timestamp != -10 || out[0].Value != 5 {
		t.Fatalf("bucket 0 = %+v, want {-10, 5}", out[0])
	}
	if out[1].Timestamp != 0 || out[1].Value != 5 {
		t.Fatalf("bucket 1 = %+v, want {0, 5}", out[1])
	}
	// A width that doesn't divide the timestamps, fully negative.
	out = downsample([]Sample{{-15, 1}, {-14, 2}, {-8, 3}}, 7, AggSum)
	if len(out) != 2 || out[0].Timestamp != -21 || out[1].Timestamp != -14 {
		t.Fatalf("out = %v, want buckets -21 and -14", out)
	}
	if out[0].Value != 1 || out[1].Value != 5 {
		t.Fatalf("out = %v, want sums 1 and 5", out)
	}
}

// TestDownsampleBucketInvariants property-checks bucketing: bucket
// timestamps are width-aligned, strictly increasing, and the output
// count under AggCount sums back to the input length.
func TestDownsampleBucketInvariants(t *testing.T) {
	f := func(offsets []uint16, start int32, w uint8) bool {
		width := int64(w%50) + 1
		in := make([]Sample, 0, len(offsets))
		ts := int64(start)
		for _, o := range offsets {
			ts += int64(o % 97)
			in = append(in, Sample{Timestamp: ts, Value: 1})
		}
		in = dedupeSamples(in)
		out := downsample(in, width, AggCount)
		var total float64
		prev := int64(math.MinInt64)
		for _, s := range out {
			if BucketStart(s.Timestamp, width) != s.Timestamp {
				return false
			}
			if s.Timestamp <= prev {
				return false
			}
			prev = s.Timestamp
			total += s.Value
		}
		return int(total) == len(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDedupeSamplesProperty property-checks dedupeSamples over sorted
// inputs with runs of duplicate timestamps: the output keeps the
// first sample of every run, exactly once, in order.
func TestDedupeSamplesProperty(t *testing.T) {
	f := func(gaps []uint8, start int32) bool {
		in := make([]Sample, 0, len(gaps))
		ts := int64(start)
		for i, g := range gaps {
			ts += int64(g % 3) // runs of duplicates (gap 0) are common
			in = append(in, Sample{Timestamp: ts, Value: float64(i)})
		}
		out := dedupeSamples(in)
		want := make(map[int64]float64)
		order := make([]int64, 0, len(in))
		for _, s := range in {
			if _, ok := want[s.Timestamp]; !ok {
				want[s.Timestamp] = s.Value
				order = append(order, s.Timestamp)
			}
		}
		if len(out) != len(order) {
			return false
		}
		for i, s := range out {
			if s.Timestamp != order[i] || s.Value != want[s.Timestamp] {
				return false
			}
		}
		// Idempotence.
		again := dedupeSamples(out)
		return len(again) == len(out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWatermarksBumpOnPut(t *testing.T) {
	d := newDeployment(t, 2, 2, TSDConfig{SaltBuckets: 2})
	marks := d.Watermarks()
	if v := marks.Version(MetricEnergy); v != 0 {
		t.Fatalf("initial version = %d", v)
	}
	if err := d.TSDs()[0].Put([]Point{EnergyPoint(0, 0, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	if v := marks.Version(MetricEnergy); v != 1 {
		t.Fatalf("version after put = %d, want 1", v)
	}
	// Any TSD of the deployment bumps the shared watermark; other
	// metrics are untouched.
	if err := d.TSDs()[1].Put([]Point{{Metric: MetricAnomaly, Tags: EnergyTags(0, 0), Timestamp: 2, Value: 3}}); err != nil {
		t.Fatal(err)
	}
	if v := marks.Version(MetricEnergy); v != 1 {
		t.Fatalf("energy version moved to %d on anomaly write", v)
	}
	if v := marks.Version(MetricAnomaly); v != 1 {
		t.Fatalf("anomaly version = %d, want 1", v)
	}
	// Nil watermarks (a TSD outside a deployment) must be safe.
	var nilMarks *Watermarks
	nilMarks.Bump("x")
	if nilMarks.Version("x") != 0 {
		t.Fatal("nil watermark version")
	}
}
