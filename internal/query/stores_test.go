package query

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/hbase"
	"repro/internal/rpc"
	"repro/internal/tsdb"
)

// storeEnv boots one store group (its own cluster + TSD tier) and seeds
// the given units' energy series over [0, steps).
func storeEnv(t *testing.T, units []int, sensors int, steps int64) *tsdb.Deployment {
	t.Helper()
	cluster, err := hbase.NewCluster(hbase.Config{RegionServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Stop)
	d, err := tsdb.NewDeployment(cluster, 2, tsdb.TSDConfig{SaltBuckets: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable(); err != nil {
		t.Fatal(err)
	}
	var pts []tsdb.Point
	for _, u := range units {
		for s := 0; s < sensors; s++ {
			for ts := int64(0); ts < steps; ts++ {
				pts = append(pts, tsdb.EnergyPoint(u, s, ts, float64(u*100+s)+float64(ts%13)))
			}
		}
	}
	if len(pts) > 0 {
		if err := d.TSDs()[0].Put(pts); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// remote makes d a store reached over net: each of its TSDs is
// registered there under prefix, forwarding every call to d's own
// network, and the store carries no in-process watermarks — the engine
// asks its TSDs (the shape a cluster gateway reads a store node in).
func remote(t *testing.T, net *rpc.Network, prefix string, d *tsdb.Deployment) Store {
	t.Helper()
	var s Store
	for _, addr := range d.Addrs() {
		forward := func(ctx context.Context, method string, payload any) (any, error) {
			return d.Cluster.Network().Call(ctx, addr, method, payload)
		}
		if _, err := net.Register(prefix+addr, forward, rpc.ServerConfig{}); err != nil {
			t.Fatal(err)
		}
		s.Addrs = append(s.Addrs, prefix+addr)
	}
	return s
}

// twoStores builds an engine over d1 in process and d2 reached over
// d1's network.
func twoStores(t *testing.T, d1, d2 *tsdb.Deployment, cfg Config) *Engine {
	t.Helper()
	net := d1.Cluster.Network()
	return New(net, []Store{{Addrs: d1.Addrs(), Marks: d1.Watermarks()}, remote(t, net, "s2/", d2)}, cfg)
}

// TestEngineMergesStores queries two stores holding disjoint units plus
// one unit both landed (a batch replayed across a failover) and checks
// every series arrives exactly once, ID-sorted, with duplicate
// timestamps collapsed.
func TestEngineMergesStores(t *testing.T) {
	const sensors, steps = 2, 40
	d1 := storeEnv(t, []int{0, 1}, sensors, steps) // unit 1 duplicated
	d2 := storeEnv(t, []int{1, 2}, sensors, steps)
	e := twoStores(t, d1, d2, Config{})
	series := mustQuery(t, e, tsdb.Query{Metric: tsdb.MetricEnergy, Start: 0, End: steps - 1})
	if want := 3 * sensors; len(series) != want {
		t.Fatalf("got %d series, want %d", len(series), want)
	}
	prev := ""
	for i := range series {
		s := &series[i]
		id := s.ID()
		if id <= prev {
			t.Fatalf("series out of order or repeated: %s after %s", id, prev)
		}
		prev = id
		if len(s.Samples) != steps {
			t.Fatalf("series %s has %d samples, want %d (duplicates not collapsed?)", id, len(s.Samples), steps)
		}
		for j, smp := range s.Samples {
			if smp.Timestamp != int64(j) {
				t.Fatalf("series %s sample %d at ts %d", id, j, smp.Timestamp)
			}
		}
	}
}

// TestEngineReadsMetricOnOneStore: a flag stored on one store only is
// read back. A metric is unknown only when every store says so — the
// per-store fanout this engine replaced failed the whole read on the
// store that had never seen the metric, and the gateway rendered that
// as an empty answer.
func TestEngineReadsMetricOnOneStore(t *testing.T) {
	d1 := storeEnv(t, []int{0}, 1, 10)
	d2 := storeEnv(t, []int{1}, 1, 10)
	flag := tsdb.Point{Metric: tsdb.MetricAnomaly, Tags: tsdb.EnergyTags(1, 0), Timestamp: 5, Value: 4.2}
	if err := d2.TSDs()[1].Put([]tsdb.Point{flag}); err != nil {
		t.Fatal(err)
	}
	e := twoStores(t, d1, d2, Config{})
	q := tsdb.Query{Metric: tsdb.MetricAnomaly, Start: 0, End: 9}
	want := groundTruth(t, d2, q)
	if got := mustQuery(t, e, q); len(got) != 1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("anomaly on one store = %v, want %v", got, want)
	}
	if _, err := e.QueryContext(context.Background(), tsdb.Query{Metric: "nope", Start: 0, End: 9}); err == nil {
		t.Fatal("a metric no store holds must stay unknown")
	}
}

// TestEngineDeadStoreFailsQuery kills every TSD of one store: a fresh
// read fails (a dead store is a hole across the whole fleet), while a
// window cached before the outage is served stale and marked degraded —
// the dead store cannot say its version, so it is never served as
// fresh.
func TestEngineDeadStoreFailsQuery(t *testing.T) {
	d1 := storeEnv(t, []int{0}, 1, 10)
	d2 := storeEnv(t, []int{1}, 1, 10)
	e := twoStores(t, d1, d2, Config{ServeStale: true})
	warm := tsdb.Query{Metric: tsdb.MetricEnergy, Start: 0, End: 9}
	before := mustQuery(t, e, warm)
	for i := range d2.TSDs() {
		if err := d2.CrashTSD(fmt.Sprintf("tsd-%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.QueryContext(context.Background(), tsdb.Query{Metric: tsdb.MetricEnergy, Start: 0, End: 8}); err == nil {
		t.Fatal("query succeeded with a dead store")
	}
	ctx, marker := WithDegradedMarker(context.Background())
	got, err := e.QueryContext(ctx, warm)
	if err != nil || !marker.Degraded() || !reflect.DeepEqual(got, before) {
		t.Fatalf("cached window during the outage = %v, %v (degraded %v), want the warm answer marked", got, err, marker.Degraded())
	}
	if e.CacheHits.Value() != 0 {
		t.Fatalf("cache hits = %d with a store unable to say its version", e.CacheHits.Value())
	}
}

// TestEngineSingleStoreCaches: one store reached over rpc is cached like
// an in-process one. A repeat is a hit that scans nothing and costs one
// watermark call; a write anywhere in the store invalidates the window.
func TestEngineSingleStoreCaches(t *testing.T) {
	d := storeEnv(t, []int{0}, 1, 10)
	net := rpc.NewNetwork(0, nil)
	t.Cleanup(net.Close)
	e := New(net, []Store{remote(t, net, "s1/", d)}, Config{})
	q := tsdb.Query{Metric: tsdb.MetricEnergy, Start: 0, End: 9}
	first := mustQuery(t, e, q)
	scans := d.QueriesServed()
	if again := mustQuery(t, e, q); !reflect.DeepEqual(again, first) {
		t.Fatal("cached answer diverged")
	}
	if e.CacheHits.Value() != 1 || d.QueriesServed() != scans {
		t.Fatalf("repeat: %d hits, %d extra scans — want 1 hit, 0 scans", e.CacheHits.Value(), d.QueriesServed()-scans)
	}
	if err := d.TSDs()[1].Put([]tsdb.Point{tsdb.EnergyPoint(0, 0, 9, 999)}); err != nil {
		t.Fatal(err)
	}
	got := mustQuery(t, e, q)
	if last := got[0].Samples[len(got[0].Samples)-1]; last.Value != 999 {
		t.Fatalf("post-write read = %+v, want the new sample", last)
	}
}
