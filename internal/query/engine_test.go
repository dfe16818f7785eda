package query

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/hbase"
	"repro/internal/rpc"
	"repro/internal/tsdb"
)

// newEnv boots a cluster with tsds TSD daemons and seeds units×sensors
// energy series over [0, steps).
func newEnv(t testing.TB, tsds, units, sensors int, steps int64) *tsdb.Deployment {
	t.Helper()
	cluster, err := hbase.NewCluster(hbase.Config{RegionServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Stop)
	d, err := tsdb.NewDeployment(cluster, tsds, tsdb.TSDConfig{SaltBuckets: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable(); err != nil {
		t.Fatal(err)
	}
	seed(t, d, units, sensors, 0, steps, 1)
	return d
}

// hour is one row-hour: the unit a query's shards follow.
const hour = tsdb.RowSeconds

// seed writes units×sensors energy series at every step-th second of
// [from, to).
func seed(t testing.TB, d *tsdb.Deployment, units, sensors int, from, to, step int64) {
	t.Helper()
	var pts []tsdb.Point
	for u := 0; u < units; u++ {
		for s := 0; s < sensors; s++ {
			for ts := from; ts < to; ts += step {
				pts = append(pts, tsdb.EnergyPoint(u, s, ts, float64(u*100+s)+float64(ts%13)))
			}
		}
	}
	if err := d.TSDs()[0].Put(pts); err != nil {
		t.Fatal(err)
	}
}

func mustQuery(t *testing.T, e *Engine, q tsdb.Query) []tsdb.Series {
	t.Helper()
	series, err := e.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return series
}

// groundTruth queries one TSD directly — the pre-scatter-gather path.
func groundTruth(t *testing.T, d *tsdb.Deployment, q tsdb.Query) []tsdb.Series {
	t.Helper()
	series, err := d.TSDs()[0].Query(q)
	if err != nil {
		t.Fatal(err)
	}
	return series
}

func TestScatterGatherMatchesSingleTSD(t *testing.T) {
	d := newEnv(t, 3, 2, 3, 120)
	seed(t, d, 2, 3, 120, 4*hour, 11)
	e := NewFromDeployment(d, Config{MaxEntries: -1})
	for _, q := range []tsdb.Query{
		{Metric: tsdb.MetricEnergy, Start: 0, End: 119},
		{Metric: tsdb.MetricEnergy, Tags: map[string]string{"unit": "1"}, Start: 10, End: 97},
		{Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(0, 2), Start: 0, End: 4*hour - 1},
		{Metric: tsdb.MetricEnergy, Tags: map[string]string{"unit": "1"}, Start: 100, End: 3*hour + 500},
		// Downsample widths that don't divide the row-hour: alignment
		// must keep every bucket whole.
		{Metric: tsdb.MetricEnergy, Start: 0, End: 4*hour - 1, DownsampleSeconds: 7},
		{Metric: tsdb.MetricEnergy, Start: 3, End: 3*hour + 113, DownsampleSeconds: 13, Aggregate: tsdb.AggMax},
		{Metric: tsdb.MetricEnergy, Start: 0, End: 4*hour - 1, DownsampleSeconds: 2 * hour, Aggregate: tsdb.AggCount},
	} {
		got := mustQuery(t, e, q)
		want := groundTruth(t, d, q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %+v:\ngot  %v\nwant %v", q, got, want)
		}
	}
	if e.SubQueries.Value() == 0 {
		t.Fatal("no sub-queries issued — scatter-gather not exercised")
	}
}

func TestUnknownMetricSurfacesErrNoSuchMetric(t *testing.T) {
	d := newEnv(t, 2, 1, 1, 10)
	e := NewFromDeployment(d, Config{})
	_, err := e.QueryContext(context.Background(), tsdb.Query{Metric: "nope", Start: 0, End: 9})
	if !errors.Is(err, tsdb.ErrNoSuchMetric) {
		t.Fatalf("err = %v, want ErrNoSuchMetric", err)
	}
	// The metric is unknown tier-wide (shared UID table): no shard may
	// burn a failover RPC on it.
	if e.Failovers.Value() != 0 {
		t.Fatalf("failovers = %d on an unwritten metric, want 0", e.Failovers.Value())
	}
}

// failingHandler rejects every query.
func failingHandler(context.Context, string, any) (any, error) {
	return nil, errors.New("injected backend failure")
}

func TestScatterGatherFailsOverDeadTSD(t *testing.T) {
	// Three row-hours over three TSDs: the dead one is a shard's primary.
	d := newEnv(t, 2, 2, 2, 100)
	seed(t, d, 2, 2, 100, 3*hour, 60)
	net := d.Cluster.Network()
	if _, err := net.Register("tsd/dead", failingHandler, rpc.ServerConfig{}); err != nil {
		t.Fatal(err)
	}
	addrs := append(d.Addrs(), "tsd/dead")
	e := New(net, []Store{{Addrs: addrs, Marks: d.Watermarks()}}, Config{MaxEntries: -1})
	q := tsdb.Query{Metric: tsdb.MetricEnergy, Start: 0, End: 3*hour - 1}
	got := mustQuery(t, e, q)
	if want := groundTruth(t, d, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("failover result diverged:\ngot  %v\nwant %v", got, want)
	}
	if e.Failovers.Value() == 0 {
		t.Fatal("dead TSD never triggered a failover")
	}
}

// TestNarrowReadsRotateOverTSDs: a window inside one row-hour is one
// shard, and successive fetches start it on successive TSDs, so narrow
// reads — and the half-open probes of their breakers — reach every TSD
// of the store, not only the first.
func TestNarrowReadsRotateOverTSDs(t *testing.T) {
	d := newEnv(t, 3, 1, 1, 60)
	e := NewFromDeployment(d, Config{MaxEntries: -1})
	q := tsdb.Query{Metric: tsdb.MetricEnergy, Start: 0, End: 59}
	for i := 0; i < 2*len(d.TSDs()); i++ {
		mustQuery(t, e, q)
	}
	for _, tsd := range d.TSDs() {
		if got := tsd.QueriesServed.Value(); got != 2 {
			t.Fatalf("%s served %d of 6 one-shard reads, want 2", tsd.Name(), got)
		}
	}
	if e.SubQueries.Value() != 6 {
		t.Fatalf("sub-queries = %d for 6 one-hour reads, want 6", e.SubQueries.Value())
	}
}

// TestPartialFailurePolicy: a shard every TSD rejects fails the whole
// query — the engine never silently serves a hole in the data.
func TestPartialFailurePolicy(t *testing.T) {
	d := newEnv(t, 1, 1, 2, 100)
	net := d.Cluster.Network()
	// Two flaky daemons that reject any shard touching t >= 50: the
	// late shards have nowhere to fail over to.
	tsd0 := d.TSDs()[0]
	flaky := func(ctx context.Context, method string, payload any) (any, error) {
		q := payload.(*tsdb.QueryRequest).Query
		if q.End >= 50 {
			return nil, errors.New("late half down")
		}
		series, err := tsd0.QueryContext(ctx, q)
		if err != nil {
			return nil, err
		}
		return &tsdb.QueryResponse{Series: series}, nil
	}
	for _, addr := range []string{"tsd/flaky-1", "tsd/flaky-2"} {
		if _, err := net.Register(addr, flaky, rpc.ServerConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	e := New(net, []Store{{Addrs: []string{"tsd/flaky-1", "tsd/flaky-2"}, Marks: d.Watermarks()}}, Config{MaxEntries: -1})
	q := tsdb.Query{Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(0, 0), Start: 0, End: 99}
	if _, err := e.QueryContext(context.Background(), q); err == nil {
		t.Fatal("a dead shard must fail the query")
	}
}

func TestCacheHitMissAndWatermarkInvalidation(t *testing.T) {
	d := newEnv(t, 2, 1, 2, 60)
	e := NewFromDeployment(d, Config{MaxEntries: 64})
	q := tsdb.Query{Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(0, 1), Start: 0, End: 59}

	first := mustQuery(t, e, q)
	scans := d.QueriesServed()
	second := mustQuery(t, e, q)
	if d.QueriesServed() != scans {
		t.Fatalf("repeat query hit storage: %d → %d scans", scans, d.QueriesServed())
	}
	if e.CacheHits.Value() != 1 || e.CacheMisses.Value() != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", e.CacheHits.Value(), e.CacheMisses.Value())
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached result diverged from the original")
	}

	// A write to the metric moves the watermark: the next query must
	// re-scan and observe the new sample.
	if err := d.TSDs()[1].Put([]tsdb.Point{tsdb.EnergyPoint(0, 1, 55, 999)}); err != nil {
		t.Fatal(err)
	}
	third := mustQuery(t, e, q)
	if d.QueriesServed() == scans {
		t.Fatal("stale entry served after a write")
	}
	found := false
	for _, s := range third[0].Samples {
		if s.Timestamp == 55 && s.Value == 999 {
			found = true
		}
	}
	if !found {
		t.Fatal("post-invalidation result misses the new sample")
	}

	// A write to a different metric must not invalidate this one.
	scans = d.QueriesServed()
	if err := d.TSDs()[0].Put([]tsdb.Point{{Metric: tsdb.MetricAnomaly, Tags: tsdb.EnergyTags(0, 1), Timestamp: 10, Value: 3}}); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, e, q)
	if d.QueriesServed() != scans {
		t.Fatal("unrelated metric write invalidated the energy window")
	}
}

// TestCacheFollowsRowHours is the invalidation contract at row-hour
// grain: a write into one row-hour leaves the cached windows that end
// before it hits, and re-resolves the ones it lands in — a late write
// into a sealed hour included — while a retention drop re-resolves every
// window of the metric.
func TestCacheFollowsRowHours(t *testing.T) {
	d := newEnv(t, 2, 1, 2, 0)
	seed(t, d, 1, 2, 0, 2*hour, 10)
	bs := d.AttachBlockStore(tsdb.BlockStoreConfig{})
	if _, err := d.TSDs()[0].CompactRows(hour); err != nil { // seal hour 0
		t.Fatal(err)
	}
	e := NewFromDeployment(d, Config{MaxEntries: 64})
	sealed := tsdb.Query{Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(0, 1), Start: 0, End: hour - 1}
	wide := tsdb.Query{Metric: tsdb.MetricEnergy, Start: 0, End: hour - 1, DownsampleSeconds: tsdb.RollupFine, Aggregate: tsdb.AggAvg}
	live := tsdb.Query{Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(0, 1), Start: hour + 3000, End: 2*hour - 1}
	warm := func() {
		t.Helper()
		for _, q := range []tsdb.Query{sealed, wide, live} {
			mustQuery(t, e, q)
		}
	}
	// hitsOn reads q and reports whether it was a cache hit that left the
	// TSDs alone.
	hitsOn := func(q tsdb.Query) (bool, []tsdb.Series) {
		t.Helper()
		hits, scans := e.CacheHits.Value(), d.QueriesServed()
		series := mustQuery(t, e, q)
		hit := e.CacheHits.Value() == hits+1
		if hit != (d.QueriesServed() == scans) {
			t.Fatalf("window %d–%d: a hit %v that scanned %d times", q.Start, q.End, hit, d.QueriesServed()-scans)
		}
		return hit, series
	}
	warm()

	// A live write into hour 1 re-resolves only hour 1's window.
	if err := d.TSDs()[1].Put([]tsdb.Point{tsdb.EnergyPoint(0, 1, 2*hour-5, 42)}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []tsdb.Query{sealed, wide} {
		if hit, _ := hitsOn(q); !hit {
			t.Fatalf("a write into hour 1 invalidated the sealed window %d–%d (width %d)", q.Start, q.End, q.DownsampleSeconds)
		}
	}
	if hit, series := hitsOn(live); hit || series[0].Samples[len(series[0].Samples)-1].Value != 42 {
		t.Fatal("a write into hour 1 left hour 1's window cached")
	}

	// A late write into the sealed hour re-resolves its windows.
	if err := d.TSDs()[0].Put([]tsdb.Point{tsdb.EnergyPoint(0, 1, 15, 99)}); err != nil {
		t.Fatal(err)
	}
	hit, series := hitsOn(sealed)
	if hit || series[0].Samples[2] != (tsdb.Sample{Timestamp: 15, Value: 99}) {
		t.Fatalf("late write into the sealed hour: hit %v, samples %v", hit, series[0].Samples[:3])
	}
	if hit, _ := hitsOn(live); !hit {
		t.Fatal("a late write into hour 0 invalidated hour 1's window")
	}

	// Retention dropping hour 0 re-resolves every window of the metric,
	// hour 1's too.
	warm()
	if blocks, _ := bs.EnforceRetention(tsdb.RetentionPolicy{RawTTL: hour}, nil); blocks == 0 {
		t.Fatal("retention dropped nothing")
	}
	for _, q := range []tsdb.Query{sealed, wide, live} {
		if hit, _ := hitsOn(q); hit {
			t.Fatalf("window %d–%d served from cache after a retention drop", q.Start, q.End)
		}
	}
}

func TestCacheEviction(t *testing.T) {
	d := newEnv(t, 1, 1, 1, 90)
	e := NewFromDeployment(d, Config{MaxEntries: 2})
	windows := [][2]int64{{0, 9}, {10, 19}, {20, 29}}
	for _, w := range windows {
		mustQuery(t, e, tsdb.Query{Metric: tsdb.MetricEnergy, Start: w[0], End: w[1]})
	}
	// The first window was evicted by the third: re-querying it must
	// miss; the still-resident third must hit.
	mustQuery(t, e, tsdb.Query{Metric: tsdb.MetricEnergy, Start: 0, End: 9})
	if e.CacheMisses.Value() != 4 {
		t.Fatalf("misses = %d, want 4 (evicted window re-fetched)", e.CacheMisses.Value())
	}
	mustQuery(t, e, tsdb.Query{Metric: tsdb.MetricEnergy, Start: 20, End: 29})
	if e.CacheHits.Value() != 1 {
		t.Fatalf("hits = %d, want 1", e.CacheHits.Value())
	}
}

func TestSingleflightCollapsesConcurrentIdenticalQueries(t *testing.T) {
	d := newEnv(t, 1, 1, 1, 30)
	net := d.Cluster.Network()
	tsd0 := d.TSDs()[0]
	gate := make(chan struct{})
	gated := func(ctx context.Context, method string, payload any) (any, error) {
		<-gate
		series, err := tsd0.QueryContext(ctx, payload.(*tsdb.QueryRequest).Query)
		if err != nil {
			return nil, err
		}
		return &tsdb.QueryResponse{Series: series}, nil
	}
	if _, err := net.Register("tsd/gated", gated, rpc.ServerConfig{}); err != nil {
		t.Fatal(err)
	}
	e := New(net, []Store{{Addrs: []string{"tsd/gated"}, Marks: d.Watermarks()}}, Config{MaxEntries: 16})

	const callers = 8
	var wg sync.WaitGroup
	results := make([][]tsdb.Series, callers)
	errs := make([]error, callers)
	q := tsdb.Query{Metric: tsdb.MetricEnergy, Start: 0, End: 29}
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.QueryContext(context.Background(), q)
		}(i)
	}
	// Wait until every caller either leads the fetch or waits on it,
	// then release the storage tier.
	deadline := time.Now().Add(5 * time.Second)
	for e.Collapsed.Value() != callers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("collapsed = %d, want %d", e.Collapsed.Value(), callers-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("caller %d diverged", i)
		}
	}
	if got := e.SubQueries.Value(); got != 1 {
		t.Fatalf("sub-queries = %d, want 1 (one collapsed fetch)", got)
	}
}

// TestShardWindowCoversDisjointAligned: shards cover the window
// exactly, in order, one per run of whole row-hours — min(TSDs,
// row-hours spanned) of them — with every boundary on a row-hour start,
// moved down to a downsample bucket start where the width does not
// divide the hour.
func TestShardWindowCoversDisjointAligned(t *testing.T) {
	for _, c := range []struct {
		name     string
		from, to int64
		n        int
		width    int64
		want     int
	}{
		{"sub-hour window", 0, 299, 3, 0, 1},
		{"sub-hour window mid-hour", hour + 1000, hour + 1299, 3, 0, 1},
		{"single second", 5, 5, 4, 0, 1},
		{"sub-hour across a row boundary", hour - 150, hour + 149, 3, 0, 2},
		{"2 hours over 3 TSDs", 0, 2*hour - 1, 3, 0, 2},
		{"3 hours over 3 TSDs", 0, 3*hour - 1, 3, 0, 3},
		{"a day over 3 TSDs", 0, 24*hour - 1, 3, 0, 3},
		{"a day over 5 TSDs, ragged ends", 17, 24*hour - 18, 5, 0, 5},
		{"fine rollup width", 0, 3*hour - 1, 3, tsdb.RollupFine, 3},
		{"coarse rollup width", 0, 6*hour - 1, 3, tsdb.RollupCoarse, 3},
		{"width not dividing the hour", 0, 3*hour - 1, 3, 7, 3},
		{"width not dividing the hour, ragged", 3, 5*hour + 113, 5, 13, 5},
		{"width of two hours", 0, 4*hour - 1, 4, 2 * hour, 2},
		{"width wider than the window's hours", 0, 3*hour - 1, 3, 24 * hour, 1},
		{"negative hours", -2 * hour, -1, 3, 0, 2},
		{"negative to positive", -100, 100, 3, 0, 2},
		{"negative, width not dividing the hour", -3635, 2*hour + 64, 3, 10, 3},
		{"n below one", 0, 5 * hour, 0, 0, 1},
	} {
		shards := shardWindow(c.from, c.to, c.n, c.width)
		if len(shards) != c.want {
			t.Fatalf("%s: %d shards %v, want %d", c.name, len(shards), shards, c.want)
		}
		lo := c.from
		for i, sh := range shards {
			if sh[0] != lo || sh[1] < sh[0] {
				t.Fatalf("%s: shard %d = %v, want a non-empty one from %d", c.name, i, sh, lo)
			}
			if i > 0 && c.width < hour {
				// The row-hour the boundary was cut at lies less than one
				// bucket above it.
				w := max(c.width, 1)
				if want := tsdb.BucketStart(tsdb.BucketStart(sh[0]+w-1, hour), w); sh[0] != want {
					t.Fatalf("%s: shard %d starts at %d, want the row-hour boundary %d", c.name, i, sh[0], want)
				}
			}
			if i > 0 && c.width > 0 && sh[0] != tsdb.BucketStart(sh[0], c.width) {
				t.Fatalf("%s: shard %d starts mid-bucket at %d", c.name, i, sh[0])
			}
			lo = sh[1] + 1
		}
		if lo != c.to+1 {
			t.Fatalf("%s: shards end at %d, want %d", c.name, lo-1, c.to)
		}
	}
	if shardWindow(9, 2, 3, 0) != nil {
		t.Fatal("an inverted window has shards")
	}
}

// TestShardBoundaryAlignment: for a multi-hour window cut across TSDs,
// no downsample bucket straddles two shards, whatever the width — so the
// merge never sees two partial aggregates of one bucket.
func TestShardBoundaryAlignment(t *testing.T) {
	for _, width := range []int64{1, 7, 10, 13, 60, 300, 3599, tsdb.RollupFine, tsdb.RollupCoarse} {
		from, to := int64(-1234), int64(5*hour+977)
		shards := shardWindow(from, to, 4, width)
		if len(shards) < 2 {
			t.Fatalf("width %d: %d shards %v, want several to check", width, len(shards), shards)
		}
		for i, sh := range shards[1:] {
			if sh[0] != tsdb.BucketStart(sh[0], width) {
				t.Fatalf("width %d: shard %d starts mid-bucket at %d", width, i+1, sh[0])
			}
			if prev := shards[i]; prev[1]+1 != sh[0] {
				t.Fatalf("width %d: shards %v and %v are not contiguous", width, prev, sh)
			}
		}
		// Every bucket the window touches lies inside exactly one shard.
		for b := tsdb.BucketStart(from, width); b <= to; b += width {
			lo, hi := max(b, from), min(b+width-1, to)
			in := 0
			for _, sh := range shards {
				if lo <= sh[1] && hi >= sh[0] {
					in++
				}
			}
			if in != 1 {
				t.Fatalf("width %d: bucket at %d spans %d shards", width, b, in)
			}
		}
	}
}

func TestEngineNoBackends(t *testing.T) {
	e := New(rpc.NewNetwork(0, nil), nil, Config{})
	if _, err := e.QueryContext(context.Background(), tsdb.Query{Metric: "m", End: 1}); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("err = %v, want ErrNoBackends", err)
	}
}

func TestEngineInvertedWindowIsEmpty(t *testing.T) {
	d := newEnv(t, 1, 1, 1, 10)
	e := NewFromDeployment(d, Config{})
	series, err := e.QueryContext(context.Background(), tsdb.Query{Metric: tsdb.MetricEnergy, Start: 9, End: 2})
	if err != nil || len(series) != 0 {
		t.Fatalf("inverted window = %v, %v — want empty, nil", series, err)
	}
}

func TestMaxPointsBoundsEverySeries(t *testing.T) {
	d := newEnv(t, 2, 1, 3, 500)
	e := NewFromDeployment(d, Config{MaxEntries: 16})
	bounded := tsdb.Query{Metric: tsdb.MetricEnergy, Start: 0, End: 499, MaxPoints: 40}
	series := mustQuery(t, e, bounded)
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	for _, ser := range series {
		if len(ser.Samples) > 40 {
			t.Fatalf("series %s has %d samples > maxpoints", ser.ID(), len(ser.Samples))
		}
		if ser.Samples[0].Timestamp != 0 || ser.Samples[len(ser.Samples)-1].Timestamp != 499 {
			t.Fatalf("series %s lost its endpoints", ser.ID())
		}
	}
	// And the cached copy is the bounded one.
	again := mustQuery(t, e, bounded)
	if e.CacheHits.Value() != 1 || len(again[0].Samples) > 40 {
		t.Fatal("bounded result not served from cache")
	}
	// MaxPoints is part of the cache identity: an exact (counting)
	// query for the same window must not be served the bounded entry.
	exact := mustQuery(t, e, tsdb.Query{Metric: tsdb.MetricEnergy, Start: 0, End: 499})
	for _, ser := range exact {
		if len(ser.Samples) != 500 {
			t.Fatalf("exact query got %d samples — bounded entry leaked across keys", len(ser.Samples))
		}
	}
}

func TestScatterGatherOverSealedBlocks(t *testing.T) {
	// Seal two of three hours into the compressed tier, then check the
	// scatter-gather engine (shard alignment, caching, failover paths)
	// is oblivious: answers match a direct single-TSD query, wide
	// windows come from rollups, and retention drops invalidate the
	// window cache through the watermark.
	d := newEnv(t, 3, 2, 2, 3*hour)
	bs := d.AttachBlockStore(tsdb.BlockStoreConfig{})
	if _, err := d.TSDs()[0].CompactRows(2 * hour); err != nil {
		t.Fatal(err)
	}
	e := NewFromDeployment(d, Config{MaxEntries: 64})
	for _, q := range []tsdb.Query{
		{Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(1, 1), Start: 0, End: 3*hour - 1},
		{Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(0, 1), Start: hour - 50, End: hour + 50},
		// Rollup-eligible width spanning sealed and hot hours.
		{Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(1, 0), Start: 0, End: 3*hour - 1,
			DownsampleSeconds: 600, Aggregate: tsdb.AggAvg},
		// Raw-decode width (not rollup eligible).
		{Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(0, 0), Start: 100, End: hour + 100,
			DownsampleSeconds: 7, Aggregate: tsdb.AggMax},
	} {
		got := mustQuery(t, e, q)
		want := groundTruth(t, d, q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sealed query %+v:\ngot  %v\nwant %v", q, got, want)
		}
	}

	// The wide downsampled window is rollup-served on the sealed side.
	scans := bs.BlockScans.Value()
	wide := tsdb.Query{Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(1, 1),
		Start: 0, End: 3*hour - 1, DownsampleSeconds: 3600, Aggregate: tsdb.AggCount}
	first := mustQuery(t, e, wide)
	if bs.BlockScans.Value() != scans {
		t.Fatal("wide engine query decompressed sealed blocks")
	}
	if len(first) != 1 || len(first[0].Samples) != 3 || first[0].Samples[0].Value != 3600 {
		t.Fatalf("wide counts = %+v", first)
	}

	// Retention drops hour 0 (raw and rollups) and bumps the watermark;
	// the previously cached window must re-resolve, not serve stale.
	// (The store was attached after the seed ingest, so its frontier
	// only reaches the sealed end; a live put advances it to "now".)
	if err := d.TSDs()[0].Put([]tsdb.Point{tsdb.EnergyPoint(1, 1, 3*hour-1, 1)}); err != nil {
		t.Fatal(err)
	}
	bs.EnforceRetention(tsdb.RetentionPolicy{RawTTL: hour, RollupTTL: hour}, nil)
	second := mustQuery(t, e, wide)
	if len(second) != 1 || len(second[0].Samples) != 2 {
		t.Fatalf("after retention drop: %+v (stale cache?)", second)
	}
}
