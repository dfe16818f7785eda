package sentinel

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	v1 "repro/internal/api/v1"
	"repro/internal/tsdb"
	"repro/sentinel/client"
)

// getJSON serves GET path on h, requires a 200 and decodes the body
// into out.
func getJSON(t *testing.T, h http.Handler, path string, out any) *httptest.ResponseRecorder {
	t.Helper()
	rec := do(h, "GET", path, "", "")
	if rec.Code != 200 {
		t.Fatalf("GET %s = %d (%s)", path, rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("GET %s: %v (%s)", path, err, rec.Body)
	}
	return rec
}

// TestClusterReadsFlagOnOneStore: the rpc anomaly sink writes each flag
// to one store's TSD, so a flag routinely sits on one store only. The
// gateway must still read it: a metric one store has never seen is not
// unknown to the cluster. (It answered 200 with no series and no
// ranking while the gateway fanned out one engine per store.)
func TestClusterReadsFlagOnOneStore(t *testing.T) {
	nodes := startTestCluster(t, fourNodes)
	flag := tsdb.Point{Metric: tsdb.MetricAnomaly, Tags: tsdb.EnergyTags(1, 2), Timestamp: 50, Value: 7.5}
	if err := nodes["store-1"].TSDB.TSDs()[0].Put([]tsdb.Point{flag}); err != nil {
		t.Fatal(err)
	}
	h := nodes["dg"].Handler()
	var q v1.QueryResponse
	getJSON(t, h, "/api/v1/query?metric=anomaly&from=0&to=100", &q)
	if len(q.Series) != 1 || !reflect.DeepEqual(q.Series[0].Samples, []v1.Sample{{Timestamp: 50, Value: 7.5}}) {
		t.Fatalf("anomaly series = %+v, want the one flag", q.Series)
	}
	var top v1.TopResponse
	getJSON(t, h, "/api/v1/anomalies/top?from=0&to=100", &top)
	if len(top.Anomalies) != 1 || top.Anomalies[0].Unit != 1 || top.Anomalies[0].Sensor != 2 || top.Anomalies[0].Timestamp != 50 {
		t.Fatalf("top anomalies = %+v, want unit 1 sensor 2 at 50", top.Anomalies)
	}
}

// TestClusterReadContract: a cluster gateway reads through the same
// cached, degradable engine as a lone node. A repeated query is a
// cache hit that scans no store, and stays one after a write into a
// later row-hour; a write drained into the window shows in the next
// query; with a store's TSDs all down the repeat answers the
// cached window, marked degraded.
func TestClusterReadContract(t *testing.T) {
	nodes := startTestCluster(t, fourNodes)
	dg, stores := nodes["dg"], []*Node{nodes["store-1"], nodes["store-2"]}
	ts := httptest.NewServer(dg.Handler())
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	val := func(u, s int) float64 { return float64(10*u + s) }
	acked := 0
	for step := int64(0); step < 5; step++ {
		acked += putStep(t, c, step, val)
	}
	waitEnergySamples(t, c, 100, acked)
	h := dg.Handler()
	const path = "/api/v1/query?from=0&to=100"
	samples := func(q v1.QueryResponse) (n int) {
		for _, s := range q.Series {
			n += len(s.Samples)
		}
		return n
	}

	var first, again v1.QueryResponse
	getJSON(t, h, path, &first)
	hits := metricValue(t, h, "query_cache_hits")
	scans := []int64{stores[0].TSDB.QueriesServed(), stores[1].TSDB.QueriesServed()}
	getJSON(t, h, path, &again)
	if got := metricValue(t, h, "query_cache_hits"); got != hits+1 {
		t.Fatalf("query_cache_hits %d → %d on a repeated query, want +1", hits, got)
	}
	for i, s := range stores {
		if got := s.TSDB.QueriesServed(); got != scans[i] {
			t.Fatalf("%s: tsdb_queries_served %d → %d on a cache hit", s.Name(), scans[i], got)
		}
	}
	if !reflect.DeepEqual(again, first) || samples(first) != acked {
		t.Fatalf("cached answer: %d samples (want %d), equal to the first: %v", samples(again), acked, reflect.DeepEqual(again, first))
	}

	// A drained write into a later row-hour leaves the window over the
	// earlier one a hit: each store's watermark rpc versions the window's
	// own row-hours.
	putStep(t, c, tsdb.RowSeconds+5, val)
	for _, s := range stores {
		flush(t, s)
	}
	hits = metricValue(t, h, "query_cache_hits")
	getJSON(t, h, path, &again)
	if got := metricValue(t, h, "query_cache_hits"); got != hits+1 {
		t.Fatalf("query_cache_hits %d → %d after a write into a later row-hour, want +1", hits, got)
	}
	for i, s := range stores {
		if got := s.TSDB.QueriesServed(); got != scans[i] {
			t.Fatalf("%s: tsdb_queries_served %d → %d after a write into a later row-hour", s.Name(), scans[i], got)
		}
	}

	acked += putStep(t, c, 5, val)
	for _, s := range stores {
		flush(t, s)
	}
	var fresh v1.QueryResponse
	getJSON(t, h, path, &fresh)
	if samples(fresh) != acked {
		t.Fatalf("after a drained put: %d samples, want %d", samples(fresh), acked)
	}

	for _, name := range []string{"tsd-1", "tsd-2"} {
		if err := stores[1].TSDB.CrashTSD(name); err != nil {
			t.Fatal(err)
		}
	}
	var stale v1.QueryResponse
	rec := getJSON(t, h, path, &stale)
	if rec.Header().Get(v1.HeaderDegraded) != "true" || !stale.Degraded {
		t.Fatalf("read with store-2 down: header %q, degraded %v — want marked stale", rec.Header().Get(v1.HeaderDegraded), stale.Degraded)
	}
	if !reflect.DeepEqual(stale.Series, fresh.Series) {
		t.Fatal("degraded answer differs from the cached window")
	}
}
