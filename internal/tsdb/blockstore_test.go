package tsdb

import (
	"context"
	"os"
	"testing"
	"time"

	"repro/internal/simdata"
)

// sealedDeployment builds a deployment with the sealed tier attached.
func sealedDeployment(t *testing.T, cfg BlockStoreConfig) (*Deployment, *BlockStore) {
	t.Helper()
	d := newDeployment(t, 2, 1, TSDConfig{SaltBuckets: 2})
	return d, d.AttachBlockStore(cfg)
}

// putHours writes n hours of 1 Hz quantized sensor data for one series
// and returns the points written.
func putHours(t *testing.T, d *Deployment, unit, sensor, hours int) []Point {
	t.Helper()
	tsd := d.TSDs()[0]
	var pts []Point
	for ts := int64(0); ts < int64(hours)*RowSeconds; ts++ {
		v := QuantizeValue(500+float64(ts%600)/10, 4)
		pts = append(pts, EnergyPoint(unit, sensor, ts, v))
	}
	for off := 0; off < len(pts); off += 1000 {
		endIdx := off + 1000
		if endIdx > len(pts) {
			endIdx = len(pts)
		}
		if err := tsd.Put(pts[off:endIdx]); err != nil {
			t.Fatal(err)
		}
	}
	return pts
}

func TestSealServesIdenticalSamples(t *testing.T) {
	d, bs := sealedDeployment(t, BlockStoreConfig{})
	tsd := d.TSDs()[0]
	pts := putHours(t, d, 1, 1, 2)

	// Seal the first hour; the second stays hot.
	n, err := tsd.CompactRows(RowSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("sealed %d rows, want 1", n)
	}
	if bs.BlocksSealed.Value() != 1 || bs.SamplesSealed.Value() != RowSeconds {
		t.Fatalf("sealed counters = %d blocks / %d samples",
			bs.BlocksSealed.Value(), bs.SamplesSealed.Value())
	}

	// A raw query spanning sealed + hot tiers returns every sample,
	// bit-identical, in order.
	series, err := tsd.Query(Query{Metric: MetricEnergy, Tags: EnergyTags(1, 1), Start: 0, End: 2*RowSeconds - 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || len(series[0].Samples) != len(pts) {
		t.Fatalf("got %d series / %d samples, want 1 / %d", len(series), len(series[0].Samples), len(pts))
	}
	for i, s := range series[0].Samples {
		if s.Timestamp != pts[i].Timestamp || s.Value != pts[i].Value {
			t.Fatalf("sample %d = (%d, %v), want (%d, %v)", i,
				s.Timestamp, s.Value, pts[i].Timestamp, pts[i].Value)
		}
	}
	if bs.BlockScans.Value() == 0 {
		t.Fatal("raw query over a sealed hour must decompress a block")
	}
}

func TestWideWindowServedFromRollups(t *testing.T) {
	d, bs := sealedDeployment(t, BlockStoreConfig{})
	tsd := d.TSDs()[0]
	pts := putHours(t, d, 1, 1, 3)
	if _, err := tsd.CompactRows(2 * RowSeconds); err != nil {
		t.Fatal(err)
	}

	for _, agg := range []AggFunc{AggAvg, AggSum, AggMin, AggMax, AggCount} {
		q := Query{Metric: MetricEnergy, Tags: EnergyTags(1, 1),
			Start: 0, End: 3*RowSeconds - 1, DownsampleSeconds: 600, Aggregate: agg}
		before := bs.BlockScans.Value()
		series, err := tsd.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		// Scan-counter regression pin: the wide window must be answered
		// from rollups without decompressing a single sealed block.
		if got := bs.BlockScans.Value() - before; got != 0 {
			t.Fatalf("agg %v: wide window decompressed %d blocks", agg, got)
		}
		// And the rollup answer must be exactly what downsampling the raw
		// points would have produced.
		var raw []Sample
		for _, p := range pts {
			raw = append(raw, Sample{Timestamp: p.Timestamp, Value: p.Value})
		}
		want := downsample(raw, 600, agg)
		got := series[0].Samples
		if len(got) != len(want) {
			t.Fatalf("agg %v: %d buckets, want %d", agg, len(got), len(want))
		}
		for i := range want {
			if got[i].Timestamp != want[i].Timestamp || got[i].Value != want[i].Value {
				t.Fatalf("agg %v bucket %d = (%d, %v), want (%d, %v)", agg, i,
					got[i].Timestamp, got[i].Value, want[i].Timestamp, want[i].Value)
			}
		}
	}
	if bs.RollupServes.Value() == 0 {
		t.Fatal("rollup serve counter never moved")
	}

	// A drill-down (width not rollup-eligible) must decompress blocks.
	before := bs.BlockScans.Value()
	if _, err := tsd.Query(Query{Metric: MetricEnergy, Tags: EnergyTags(1, 1),
		Start: 100, End: 400, DownsampleSeconds: 7, Aggregate: AggAvg}); err != nil {
		t.Fatal(err)
	}
	if bs.BlockScans.Value() == before {
		t.Fatal("drill-down served without touching raw blocks")
	}
}

func TestRollupWidth(t *testing.T) {
	cases := map[int64]int64{
		60: RollupFine, 120: RollupFine, 600: RollupFine, 1800: RollupFine,
		3600: RollupCoarse, 7200: RollupCoarse, 86400: RollupCoarse,
		1: 0, 7: 0, 59: 0, 61: 0,
		90:   0, // not a whole number of 1m buckets
		2400: 0, // 40m buckets straddle the hour boundary
		5400: 0, // 90m buckets straddle hours
	}
	for w, want := range cases {
		if got := RollupWidth(w); got != want {
			t.Fatalf("RollupWidth(%d) = %d, want %d", w, got, want)
		}
	}
}

func TestSpillAndLazyReadback(t *testing.T) {
	// A negative budget spills every sealed block on the first pass.
	d, bs := sealedDeployment(t, BlockStoreConfig{HotBlockBytes: -1})
	tsd := d.TSDs()[0]
	pts := putHours(t, d, 1, 1, 1)
	if _, err := tsd.CompactRows(RowSeconds); err != nil {
		t.Fatal(err)
	}
	spilled, err := bs.SpillPass()
	if err != nil {
		t.Fatal(err)
	}
	if spilled != 1 || bs.HotBytes() != 0 {
		t.Fatalf("spilled %d blocks, %d hot bytes; want 1 and 0", spilled, bs.HotBytes())
	}
	if files := d.Cluster.DFS().ListFiles("/tsdb/blocks/"); len(files) != 1 {
		t.Fatalf("spill files = %v", files)
	}

	// Querying the spilled range reads the payload back lazily and the
	// result is still byte-identical.
	series, err := tsd.Query(Query{Metric: MetricEnergy, Tags: EnergyTags(1, 1), Start: 0, End: RowSeconds - 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || len(series[0].Samples) != len(pts) {
		t.Fatalf("readback gave %d samples, want %d", len(series[0].Samples), len(pts))
	}
	for i, s := range series[0].Samples {
		if s.Timestamp != pts[i].Timestamp || s.Value != pts[i].Value {
			t.Fatalf("readback sample %d = (%d, %v), want (%d, %v)", i,
				s.Timestamp, s.Value, pts[i].Timestamp, pts[i].Value)
		}
	}
	if bs.SpillReads.Value() == 0 {
		t.Fatal("spilled query must count a readback")
	}

	// Rollups stayed hot: wide windows over spilled data never touch
	// the HDFS tier.
	reads := bs.SpillReads.Value()
	if _, err := tsd.Query(Query{Metric: MetricEnergy, Tags: EnergyTags(1, 1),
		Start: 0, End: RowSeconds - 1, DownsampleSeconds: 600, Aggregate: AggAvg}); err != nil {
		t.Fatal(err)
	}
	if bs.SpillReads.Value() != reads {
		t.Fatal("rollup-served window must not read spill files")
	}
}

// TestSpilledBlockKeepsItsMarks: the spill pass writes the block's
// bytes unchanged and drops only the resident payload — the seek marks
// stay beside the block, and a tail read of the spilled hour seeks the
// bytes it reads back and returns exactly the window.
func TestSpilledBlockKeepsItsMarks(t *testing.T) {
	d, bs := sealedDeployment(t, BlockStoreConfig{HotBlockBytes: -1})
	tsd := d.TSDs()[0]
	pts := putHours(t, d, 1, 1, 1)
	if _, err := tsd.CompactRows(RowSeconds); err != nil {
		t.Fatal(err)
	}
	blk := bs.series[seriesID(MetricEnergy, EnergyTags(1, 1))].blocks[0]
	resident, marks := blk.data, append([]blockMark(nil), blk.marks...)
	if len(marks) != (RowSeconds-1)/blockMarkEvery {
		t.Fatalf("a sealed hour carries %d marks, want %d", len(marks), (RowSeconds-1)/blockMarkEvery)
	}
	samples := make([]Sample, len(pts))
	for i, p := range pts {
		samples[i] = Sample{Timestamp: p.Timestamp, Value: p.Value}
	}
	if string(resident) != string(EncodeBlock(samples)) {
		t.Fatal("the sealed payload differs from the block encoding of its samples")
	}
	if n, err := bs.SpillPass(); err != nil || n != 1 {
		t.Fatalf("spilled %d blocks, err %v", n, err)
	}
	if blk.data != nil || len(blk.marks) != len(marks) {
		t.Fatalf("after the spill: resident payload %v, %d marks (want nil, %d)", blk.data != nil, len(blk.marks), len(marks))
	}
	for i := range marks {
		if blk.marks[i] != marks[i] {
			t.Fatalf("mark %d changed across the spill: %+v, was %+v", i, blk.marks[i], marks[i])
		}
	}
	file, err := d.Cluster.DFS().ReadFile(blk.path)
	if err != nil || string(file) != string(resident) {
		t.Fatalf("spill file differs from the resident payload (err %v)", err)
	}

	const from = RowSeconds - 300
	scans, reads := bs.BlockScans.Value(), bs.SpillReads.Value()
	series, err := tsd.Query(Query{Metric: MetricEnergy, Tags: EnergyTags(1, 1), Start: from, End: RowSeconds - 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || len(series[0].Samples) != 300 {
		t.Fatalf("tail read of the spilled hour = %d series", len(series))
	}
	for i, s := range series[0].Samples {
		if p := pts[from+i]; s.Timestamp != p.Timestamp || s.Value != p.Value {
			t.Fatalf("sample %d = %+v, want (%d, %v)", i, s, p.Timestamp, p.Value)
		}
	}
	if bs.BlockScans.Value()-scans != 1 || bs.SpillReads.Value()-reads != 1 {
		t.Fatalf("tail read: %d block scans, %d spill reads; want 1 and 1",
			bs.BlockScans.Value()-scans, bs.SpillReads.Value()-reads)
	}
}

func TestMergeResealNoDoubleCount(t *testing.T) {
	d, bs := sealedDeployment(t, BlockStoreConfig{})
	tsd := d.TSDs()[0]
	putHours(t, d, 1, 1, 1)
	if _, err := tsd.CompactRows(RowSeconds); err != nil {
		t.Fatal(err)
	}

	// A late write lands inside the sealed hour (new timestamp) plus a
	// rewrite of an existing one; the next compaction pass re-seals.
	late := []Point{
		EnergyPoint(1, 1, 1800, 999), // overwrites the sealed value at t=1800
	}
	if err := tsd.Put(late); err != nil {
		t.Fatal(err)
	}
	if _, err := tsd.CompactRows(RowSeconds); err != nil {
		t.Fatal(err)
	}
	if got := len(bs.series[seriesID(MetricEnergy, EnergyTags(1, 1))].blocks); got != 1 {
		t.Fatalf("re-seal left %d blocks, want 1 merged", got)
	}

	// No double count: still exactly 3600 samples, and the bucket
	// holding t=1800 reflects exactly one value for that second.
	series, err := tsd.Query(Query{Metric: MetricEnergy, Tags: EnergyTags(1, 1), Start: 0, End: RowSeconds - 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(series[0].Samples) != RowSeconds {
		t.Fatalf("after re-seal: %d samples, want %d", len(series[0].Samples), RowSeconds)
	}
	// The late rewrite deterministically wins over the sealed original.
	if got := series[0].Samples[1800]; got.Timestamp != 1800 || got.Value != 999 {
		t.Fatalf("sample at t=1800 = %+v, want the late write's 999", got)
	}
	counts, err := tsd.Query(Query{Metric: MetricEnergy, Tags: EnergyTags(1, 1),
		Start: 0, End: RowSeconds - 1, DownsampleSeconds: 600, Aggregate: AggCount})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range counts[0].Samples {
		if s.Value != 600 {
			t.Fatalf("bucket %d count = %v, want 600 (double count?)", s.Timestamp, s.Value)
		}
	}
}

func TestSealGapFillSameHourRollups(t *testing.T) {
	// Two seal passes whose sample ranges do NOT overlap but share the
	// 1h rollup bucket: the second pass must absorb the first block, or
	// the rebuilt bucket drops the earlier samples' counts.
	d, bs := sealedDeployment(t, BlockStoreConfig{})
	tsd := d.TSDs()[0]
	var pts []Point
	for ts := int64(0); ts < 1800; ts++ {
		pts = append(pts, EnergyPoint(1, 1, ts, float64(ts)))
	}
	if err := tsd.Put(pts); err != nil {
		t.Fatal(err)
	}
	if n, err := tsd.CompactRows(RowSeconds); err != nil || n != 1 {
		t.Fatalf("first seal: %d rows (%v)", n, err)
	}
	// The gap at the end of the hour fills late and seals in a second
	// pass; [1800, 3599] never touches the first block's [0, 1799].
	pts = pts[:0]
	for ts := int64(1800); ts < RowSeconds; ts++ {
		pts = append(pts, EnergyPoint(1, 1, ts, float64(ts)))
	}
	if err := tsd.Put(pts); err != nil {
		t.Fatal(err)
	}
	if n, err := tsd.CompactRows(RowSeconds); err != nil || n != 1 {
		t.Fatalf("second seal: %d rows (%v)", n, err)
	}
	if got := len(bs.series[seriesID(MetricEnergy, EnergyTags(1, 1))].blocks); got != 1 {
		t.Fatalf("gap fill left %d blocks, want 1 merged", got)
	}

	// The shared 1h bucket must count both passes' samples — and still
	// be served from rollups, not a block decode.
	for _, w := range []int64{RollupCoarse, 600} {
		before := bs.BlockScans.Value()
		counts, err := tsd.Query(Query{Metric: MetricEnergy, Tags: EnergyTags(1, 1),
			Start: 0, End: RowSeconds - 1, DownsampleSeconds: w, Aggregate: AggCount})
		if err != nil {
			t.Fatal(err)
		}
		if bs.BlockScans.Value() != before {
			t.Fatalf("width %d: gap-filled hour not served from rollups", w)
		}
		if want := RowSeconds / int(w); len(counts[0].Samples) != want {
			t.Fatalf("width %d: %d buckets, want %d", w, len(counts[0].Samples), want)
		}
		for _, s := range counts[0].Samples {
			if s.Value != float64(w) {
				t.Fatalf("width %d bucket %d count = %v, want %v (earlier block dropped?)",
					w, s.Timestamp, s.Value, float64(w))
			}
		}
	}
	// And the sums reflect every sample exactly once: sum(0..3599).
	sums, err := tsd.Query(Query{Metric: MetricEnergy, Tags: EnergyTags(1, 1),
		Start: 0, End: RowSeconds - 1, DownsampleSeconds: RollupCoarse, Aggregate: AggSum})
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(RowSeconds) * float64(RowSeconds-1) / 2; sums[0].Samples[0].Value != want {
		t.Fatalf("hour sum = %v, want %v", sums[0].Samples[0].Value, want)
	}
}

func TestUnalignedDownsampleFallsBackToRaw(t *testing.T) {
	// A rollup-eligible width with window edges off the rollup grid
	// must decode raw blocks: whole edge buckets would otherwise admit
	// samples outside [Start, End] that the hot path excludes.
	d, bs := sealedDeployment(t, BlockStoreConfig{})
	tsd := d.TSDs()[0]
	pts := putHours(t, d, 1, 1, 1)
	if _, err := tsd.CompactRows(RowSeconds); err != nil {
		t.Fatal(err)
	}
	q := Query{Metric: MetricEnergy, Tags: EnergyTags(1, 1),
		Start: 30, End: 1229, DownsampleSeconds: 600, Aggregate: AggCount}
	before := bs.BlockScans.Value()
	series, err := tsd.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if bs.BlockScans.Value() == before {
		t.Fatal("unaligned window must fall back to decoding raw blocks")
	}
	var raw []Sample
	for _, p := range pts {
		if p.Timestamp >= q.Start && p.Timestamp <= q.End {
			raw = append(raw, Sample{Timestamp: p.Timestamp, Value: p.Value})
		}
	}
	want := downsample(raw, q.DownsampleSeconds, q.Aggregate)
	got := series[0].Samples
	if len(got) != len(want) {
		t.Fatalf("%d buckets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v (edge bucket counted out-of-window samples?)",
				i, got[i], want[i])
		}
	}
}

func TestRollupWidthForAlignment(t *testing.T) {
	cases := []struct {
		start, end, w, want int64
	}{
		{0, 3599, 600, RollupFine},
		{60, 3659, 600, RollupFine}, // edges on the 1m grid
		{0, 7199, 7200, RollupCoarse},
		{30, 3599, 600, 0},    // start off the grid
		{0, 3600, 600, 0},     // end+1 off the grid
		{1800, 5399, 7200, 0}, // edges off the 1h grid
		{0, 3599, 7, 0},       // width never rollup-eligible
		{30, 1229, 0, 0},      // no downsample at all
	}
	for _, c := range cases {
		q := Query{Start: c.start, End: c.end, DownsampleSeconds: c.w}
		if got := rollupWidthFor(q); got != c.want {
			t.Fatalf("rollupWidthFor([%d,%d] w=%d) = %d, want %d", c.start, c.end, c.w, got, c.want)
		}
	}
}

func TestSpillOrphanCleanup(t *testing.T) {
	// A block dropped (here: by retention) while its spill write is in
	// flight must not leak the just-written file in the HDFS tier.
	d, bs := sealedDeployment(t, BlockStoreConfig{HotBlockBytes: -1})
	tsd := d.TSDs()[0]
	putHours(t, d, 1, 1, 1)
	if _, err := tsd.CompactRows(RowSeconds); err != nil {
		t.Fatal(err)
	}
	bs.Observe(10 * RowSeconds) // age the sealed hour far past the TTL
	bs.testAfterSpillWrite = func() {
		if n, _ := bs.EnforceRetention(RetentionPolicy{RawTTL: RowSeconds}, nil); n != 1 {
			t.Errorf("retention dropped %d blocks mid-spill, want 1", n)
		}
	}
	spilled, err := bs.SpillPass()
	if err != nil {
		t.Fatal(err)
	}
	if spilled != 0 {
		t.Fatalf("spilled %d blocks, want 0 (block dropped mid-write)", spilled)
	}
	if files := d.Cluster.DFS().ListFiles("/tsdb/blocks/"); len(files) != 0 {
		t.Fatalf("orphan spill files leaked: %v", files)
	}
}

func TestRetentionTiers(t *testing.T) {
	d, bs := sealedDeployment(t, BlockStoreConfig{})
	tsd := d.TSDs()[0]
	putHours(t, d, 1, 1, 3)
	if _, err := tsd.CompactRows(3 * RowSeconds); err != nil {
		t.Fatal(err)
	}
	markBefore := d.Watermarks().Version(MetricEnergy, 2*RowSeconds, 3*RowSeconds-1)

	// A raw TTL just under 2h at a frontier of ~3h (the frontier is the
	// last sample timestamp, 3h-1s) drops the first hour's raw block;
	// its rollups survive.
	blocks, buckets := bs.EnforceRetention(RetentionPolicy{RawTTL: 2*RowSeconds - 60}, nil)
	if blocks == 0 || buckets != 0 {
		t.Fatalf("raw TTL dropped %d blocks / %d buckets, want >0 / 0", blocks, buckets)
	}
	if d.Watermarks().Version(MetricEnergy, 2*RowSeconds, 3*RowSeconds-1) == markBefore {
		t.Fatal("retention drop must bump the metric watermark")
	}

	// Drill-down into the dropped hour is empty; the wide window still
	// renders from surviving rollups.
	series, err := tsd.Query(Query{Metric: MetricEnergy, Tags: EnergyTags(1, 1), Start: 0, End: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 0 {
		t.Fatalf("drill-down into expired raw range returned %d series", len(series))
	}
	wide, err := tsd.Query(Query{Metric: MetricEnergy, Tags: EnergyTags(1, 1),
		Start: 0, End: 3*RowSeconds - 1, DownsampleSeconds: 3600, Aggregate: AggCount})
	if err != nil {
		t.Fatal(err)
	}
	if len(wide) != 1 || len(wide[0].Samples) != 3 || wide[0].Samples[0].Value != 3600 {
		t.Fatalf("rollups must survive raw expiry: %+v", wide)
	}

	// RollupTTL then expires the first hour's buckets too.
	_, buckets = bs.EnforceRetention(RetentionPolicy{RollupTTL: 2*RowSeconds - 60}, nil)
	if buckets == 0 {
		t.Fatal("rollup TTL dropped nothing")
	}
	wide, err = tsd.Query(Query{Metric: MetricEnergy, Tags: EnergyTags(1, 1),
		Start: 0, End: 3*RowSeconds - 1, DownsampleSeconds: 3600, Aggregate: AggCount})
	if err != nil {
		t.Fatal(err)
	}
	if len(wide[0].Samples) != 2 {
		t.Fatalf("after rollup expiry: %d buckets, want 2", len(wide[0].Samples))
	}

	// Per-metric override beats the default policy.
	d2, bs2 := sealedDeployment(t, BlockStoreConfig{})
	putHours(t, d2, 1, 1, 2)
	if _, err := d2.TSDs()[0].CompactRows(2 * RowSeconds); err != nil {
		t.Fatal(err)
	}
	blocks, _ = bs2.EnforceRetention(
		RetentionPolicy{RawTTL: RowSeconds - 60},
		map[string]RetentionPolicy{MetricEnergy: {}}, // keep everything
	)
	if blocks != 0 {
		t.Fatalf("per-metric keep-forever override ignored: dropped %d", blocks)
	}
}

func TestCompactorLifecycle(t *testing.T) {
	d := newDeployment(t, 2, 2, TSDConfig{SaltBuckets: 2})
	c := StartCompactor(d, BlockStoreConfig{}, CompactorConfig{
		Interval:  time.Millisecond,
		SealAfter: RowSeconds,
		Retention: RetentionPolicy{RawTTL: 48 * RowSeconds},
	})
	defer c.Stop()
	bs := d.BlockStore()
	if bs == nil {
		t.Fatal("StartCompactor must attach a block store")
	}
	putHours(t, d, 1, 1, 2)

	// The background loop seals the closed first hour on its own.
	deadline := time.Now().Add(5 * time.Second)
	for bs.BlocksSealed.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("compactor never sealed the closed hour")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Both TSDs serve the sealed data (the store is deployment-shared).
	for i, tsd := range d.TSDs() {
		series, err := tsd.Query(Query{Metric: MetricEnergy, Tags: EnergyTags(1, 1), Start: 0, End: 2*RowSeconds - 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(series) != 1 || len(series[0].Samples) != 2*RowSeconds {
			t.Fatalf("tsd %d sees %d samples", i, len(series[0].Samples))
		}
	}
	c.Stop()
	c.Stop() // idempotent
	if c.Passes.Value() == 0 {
		t.Fatal("no passes counted")
	}
}

func TestFleetCompressionRatio(t *testing.T) {
	// Acceptance: the synthetic fleet, quantized to sensor resolution
	// (1/16 — a 12–16 bit ADC), seals at <= 2.0 bytes/sample.
	fleet := simdata.NewFleet(simdata.PaperConfig(11))
	_, bs := sealedDeployment(t, BlockStoreConfig{})
	units, sensors := 4, 8
	hour := make([]Sample, RowSeconds)
	for u := 0; u < units; u++ {
		for sn := 0; sn < sensors; sn++ {
			for ts := range hour {
				hour[ts] = Sample{
					Timestamp: int64(ts),
					Value:     QuantizeValue(fleet.Value(u, sn, int64(ts)), 4),
				}
			}
			if err := bs.Seal(MetricEnergy, EnergyTags(u, sn), hour); err != nil {
				t.Fatal(err)
			}
		}
	}
	bps := float64(bs.BytesSealed.Value()) / float64(bs.SamplesSealed.Value())
	t.Logf("fleet: %d series × %d samples → %.3f bytes/sample",
		units*sensors, RowSeconds, bps)
	if bps > 2.0 {
		t.Fatalf("fleet compression = %.3f bytes/sample, want <= 2.0", bps)
	}
}

func TestBlockStoreNilSafe(t *testing.T) {
	var bs *BlockStore
	bs.Observe(5)
	if bs.Frontier() != 0 || bs.HotBytes() != 0 {
		t.Fatal("nil store must be empty")
	}
	if err := bs.Seal("m", nil, []Sample{{Timestamp: 1, Value: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := bs.collect(context.Background(), Query{}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if n, err := bs.SpillPass(); n != 0 || err != nil {
		t.Fatal("nil spill must be a no-op")
	}
	if b, r := bs.EnforceRetention(RetentionPolicy{RawTTL: 1}, nil); b != 0 || r != 0 {
		t.Fatal("nil retention must be a no-op")
	}
}

func TestSealAcrossManySeries(t *testing.T) {
	// Several series in one row-base hour all seal and stay queryable.
	d, bs := sealedDeployment(t, BlockStoreConfig{})
	tsd := d.TSDs()[0]
	var pts []Point
	for u := 1; u <= 3; u++ {
		for ts := int64(0); ts < 100; ts++ {
			pts = append(pts, EnergyPoint(u, 1, ts, float64(u*1000)+float64(ts)))
		}
	}
	if err := tsd.Put(pts); err != nil {
		t.Fatal(err)
	}
	if n, err := tsd.CompactRows(RowSeconds); err != nil || n != 3 {
		t.Fatalf("sealed %d rows (%v), want 3", n, err)
	}
	if bs.BlocksSealed.Value() != 3 {
		t.Fatalf("BlocksSealed = %d", bs.BlocksSealed.Value())
	}
	for u := 1; u <= 3; u++ {
		series, err := tsd.Query(Query{Metric: MetricEnergy, Tags: EnergyTags(u, 1), Start: 0, End: 99})
		if err != nil {
			t.Fatal(err)
		}
		if len(series) != 1 || len(series[0].Samples) != 100 {
			t.Fatalf("unit %d: %+v", u, series)
		}
		if got := series[0].Samples[42].Value; got != float64(u*1000)+42 {
			t.Fatalf("unit %d sample 42 = %v", u, got)
		}
	}
	// Tag-filterless query fans out to all sealed series.
	all, err := tsd.Query(Query{Metric: MetricEnergy, Start: 0, End: 99})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("unfiltered query saw %d series, want 3", len(all))
	}
}

func TestCompressionSoak(t *testing.T) {
	// Multi-hour ingest → seal → spill → query soak asserting
	// byte-identical readback end to end. Heavier than the unit tests;
	// runs nightly (TSDB_SOAK=1) and is skipped in the PR loop unless
	// -short is off and the env var is set.
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	hours := 2
	if soakEnv() {
		hours = 6
	}
	fleet := simdata.NewFleet(simdata.PaperConfig(23))
	d, bs := sealedDeployment(t, BlockStoreConfig{HotBlockBytes: -1})
	tsd := d.TSDs()[0]
	units, sensors := 2, 4
	want := make(map[string][]Sample)
	var pts []Point
	for h := 0; h < hours; h++ {
		pts = pts[:0]
		for ts := int64(h) * RowSeconds; ts < int64(h+1)*RowSeconds; ts += 10 {
			for u := 0; u < units; u++ {
				for sn := 0; sn < sensors; sn++ {
					v := QuantizeValue(fleet.Value(u, sn, ts), 4)
					pts = append(pts, EnergyPoint(u, sn, ts, v))
					key := seriesID(MetricEnergy, EnergyTags(u, sn))
					want[key] = append(want[key], Sample{Timestamp: ts, Value: v})
				}
			}
		}
		if err := tsd.Put(pts); err != nil {
			t.Fatal(err)
		}
		// Seal everything older than the hour that just closed, then
		// spill it all to the HDFS tier.
		if _, err := tsd.CompactRows(int64(h+1) * RowSeconds); err != nil {
			t.Fatal(err)
		}
		if _, err := bs.SpillPass(); err != nil {
			t.Fatal(err)
		}
	}
	if bs.HotBytes() != 0 {
		t.Fatalf("%d bytes still resident after full spill", bs.HotBytes())
	}
	for u := 0; u < units; u++ {
		for sn := 0; sn < sensors; sn++ {
			series, err := tsd.Query(Query{Metric: MetricEnergy, Tags: EnergyTags(u, sn),
				Start: 0, End: int64(hours)*RowSeconds - 1})
			if err != nil {
				t.Fatal(err)
			}
			key := seriesID(MetricEnergy, EnergyTags(u, sn))
			if len(series) != 1 || len(series[0].Samples) != len(want[key]) {
				t.Fatalf("series %s: %d samples, want %d", key, len(series[0].Samples), len(want[key]))
			}
			for i, s := range series[0].Samples {
				if s != want[key][i] {
					t.Fatalf("series %s sample %d = %+v, want %+v", key, i, s, want[key][i])
				}
			}
		}
	}
	bps := float64(bs.BytesSealed.Value()) / float64(bs.SamplesSealed.Value())
	t.Logf("soak: %d hours, %d samples sealed, %.3f bytes/sample, %d spill reads",
		hours, bs.SamplesSealed.Value(), bps, bs.SpillReads.Value())
}

func soakEnv() bool { return os.Getenv("TSDB_SOAK") == "1" }
