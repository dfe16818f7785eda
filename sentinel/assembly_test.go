package sentinel

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	v1 "repro/internal/api/v1"
	"repro/internal/tsdb"
	"repro/sentinel/client"
)

var quietLog = log.New(io.Discard, "", 0)

// metricsByRole is the one metric name set: what /api/v1/metrics must
// carry for each role a node holds, in every topology.
var metricsByRole = map[Role]string{
	RoleBroker: `bus_published bus_polled bus_rebalances`,
	RoleStore: `bus_published bus_polled bus_rebalances storage_lag
		writer_delivered writer_failures writer_parks writer_parked
		proxy_accepted proxy_delivered proxy_dropped proxy_retries proxy_queue_depth
		hbase_memstore_bytes hbase_wal_bytes hbase_storefile_bytes tsdb_points_written tsdb_queries_served
		blocks_sealed samples_sealed bytes_sealed blocks_spilled spill_reads block_scans
		rollup_serves blocks_expired rollups_expired blocks_hot_bytes
		compactor_passes compactor_pass_errors`,
	RoleDetect: `samples_evaluated anomalies_written detector_parks detector_parked`,
	RoleGateway: `query_fanout_queries query_group_errors query_cache_hits query_cache_misses
		query_subqueries query_failovers query_hedged query_hedge_wins query_degraded_serves`,
}

const (
	metricsEveryNode = `breaker_opens breaker_half_opens breaker_closes breakers_open`
	metricsWithPeers = `cluster_nodes cluster_partition_groups_led`
	metricsReplica   = `cluster_promotions cluster_replicated cluster_member_evictions cluster_follower_lag`
)

// do serves one request on h and returns the recorder.
func do(h http.Handler, method, path, body, contentType string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// metricNames returns the sorted names h exposes, without the
// per-route http_* instruments (they appear as routes are hit).
func metricNames(t *testing.T, h http.Handler) []string {
	t.Helper()
	rec := do(h, "GET", "/api/v1/metrics", "", "")
	if rec.Code != 200 {
		t.Fatalf("GET /api/v1/metrics = %d (%s)", rec.Code, rec.Body)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		if name, _, _ := strings.Cut(line, " "); !strings.HasPrefix(name, "http_") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// TestAssemblyParity: the library System, a daemon-style node holding
// every role alone, and the nodes of a four-node cluster all come out
// of one assembly, so for the roles a node carries they expose the
// same metric names, the same readiness checks, and the detector
// report wherever detect and gateway are co-located.
func TestAssemblyParity(t *testing.T) {
	sys, err := New(Config{StorageNodes: 2, Units: 2, SensorsPerUnit: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sysHandler, tail := sys.Gateway(0, GatewayConfig{AccessLog: quietLog})
	defer tail.Close()
	defer sys.StartDetectors(1).Stop()
	solo := startSolo(t)
	cluster := startTestCluster(t, fourNodes)

	type surface struct {
		name      string
		h         http.Handler
		roles     []Role
		withPeers bool
	}
	surfaces := []surface{
		{"sentinel.New", sysHandler, allRoles, false},
		{"solo all-roles node", solo.Handler(), allRoles, false},
	}
	for name, roles := range fourNodes {
		surfaces = append(surfaces, surface{"cluster " + name, cluster[name].Handler(), roles, true})
	}
	for _, s := range surfaces {
		has := make(map[Role]bool)
		want := strings.Fields(metricsEveryNode)
		checks := []string{"bus", "storage"}
		for _, r := range s.roles {
			has[r] = true
			want = append(want, strings.Fields(metricsByRole[r])...)
		}
		if s.withPeers {
			want = append(want, strings.Fields(metricsWithPeers)...)
			checks = append([]string{"coordination"}, checks...)
			if has[RoleBroker] || has[RoleStore] {
				want = append(want, strings.Fields(metricsReplica)...)
			}
		}
		if has[RoleDetect] {
			checks = append(checks, "detectors")
		}
		sort.Strings(want)
		want = slices.Compact(want)
		if got := metricNames(t, s.h); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: metric names\n got %v\nwant %v", s.name, got, want)
		}

		var ready v1.ReadyResponse
		rec := do(s.h, "GET", "/readyz", "", "")
		if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
			t.Fatalf("%s: /readyz = %d (%s)", s.name, rec.Code, rec.Body)
		}
		var got []string
		for _, c := range ready.Checks {
			got = append(got, c.Name)
		}
		if !ready.Ready || strings.Join(got, " ") != strings.Join(checks, " ") {
			t.Errorf("%s: /readyz = %+v, want ready with checks %v", s.name, ready, checks)
		}

		wantCode := 503
		if has[RoleDetect] {
			wantCode = 200
		}
		if rec := do(s.h, "GET", "/api/v1/detectors", "", ""); rec.Code != wantCode {
			t.Errorf("%s: GET /api/v1/detectors = %d, want %d (%s)", s.name, rec.Code, wantCode, rec.Body)
		}
	}
}

// TestTwoGatewaysSeeEveryFlag: each gateway node tails the flag feed
// under its own consumer group, so with two gateways in one cluster
// both SSE tails deliver every flag. Sharing a group would split the
// feed's partitions between them.
func TestTwoGatewaysSeeEveryFlag(t *testing.T) {
	roles := map[string][]Role{"gw2": {RoleGateway}}
	for name, r := range fourNodes {
		roles[name] = r
	}
	nodes := startTestCluster(t, roles)
	dg, gw2 := nodes["dg"], nodes["gw2"]
	ts := httptest.NewServer(gw2.Handler())
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline past the shortened warmup, then a level shift every
	// unit's detector flags — on every partition of the feed.
	for step := int64(0); step < 30; step++ {
		putStep(t, c, step, func(u, s int) float64 { return float64(10*u + s) })
	}
	for step := int64(30); step < 40; step++ {
		putStep(t, c, step, func(u, s int) float64 { return 1e6 })
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		published := dg.Pool.FlagsPublished.Value()
		a, b := dg.tail.Events.Value(), gw2.tail.Events.Value()
		if published >= clusterUnits && dg.Pool.Group().Lag() == 0 && a == published && b == published {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flags published %d; tails delivered dg=%d gw2=%d (each must see all)", published, a, b)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestClusterSeal: a cluster's store nodes own the sealed block tier.
// A closed hour ingested through the gateway seals on each store's
// compaction pass, and the gateway's fanout reads sealed+hot exactly
// as it read the hot tier before.
func TestClusterSeal(t *testing.T) {
	nodes := startTestCluster(t, fourNodes)
	ts := httptest.NewServer(nodes["dg"].Handler())
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	// Two sparse "hours": the second moves the ingest frontier so the
	// first one's rows have closed.
	acked := 0
	for _, base := range []int64{0, 3600} {
		for step := base; step < base+20; step++ {
			acked += putStep(t, c, step, func(u, s int) float64 { return float64(step) + float64(10*u+s) })
		}
	}
	before := waitEnergySamples(t, c, 3700, acked)
	var sealed int64
	for _, name := range []string{"store-1", "store-2"} {
		if err := nodes[name].CompactNow(context.Background()); err != nil {
			t.Fatalf("%s: compaction pass: %v", name, err)
		}
		sealed += nodes[name].Blocks.BlocksSealed.Value()
	}
	if sealed == 0 {
		t.Fatal("blocks_sealed = 0 on both stores after a pass over a closed hour")
	}
	after := waitEnergySamples(t, c, 3700, acked)
	if fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("sealed+hot answer differs from the pre-seal answer:\n got %v\nwant %v", after, before)
	}
}

// startSolo boots the daemon topology `sentineld -role all`: one node,
// every role, no peers.
func startSolo(t *testing.T) *Node {
	t.Helper()
	roles, err := ParseRoles("all")
	if err != nil {
		t.Fatal(err)
	}
	n, err := StartNode(NodeConfig{
		Name:          "solo",
		Roles:         roles,
		Units:         8,
		GatewayConfig: GatewayConfig{AccessLog: quietLog},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	if n.Addr() != "" || n.BusSvc != nil || n.zkc != nil {
		t.Fatalf("a node without peers joined a fabric: addr %q, bus service %v", n.Addr(), n.BusSvc)
	}
	return n
}

// flush blocks until everything published has reached storage.
func flush(t *testing.T, n *Node) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.storage.Sync(ctx); err != nil {
		t.Fatalf("storage group never drained: %v", err)
	}
	n.Proxy.Flush()
}

func stored(t *testing.T, n *Node, unit, sensor int) []tsdb.Sample {
	t.Helper()
	series, err := n.TSDB.TSDs()[0].Query(tsdb.Query{Metric: "energy", Tags: tsdb.EnergyTags(unit, sensor), Start: 0, End: 100})
	if err != nil || len(series) != 1 {
		t.Fatalf("stored unit %d sensor %d = %+v, %v", unit, sensor, series, err)
	}
	return series[0].Samples
}

// The six tests below drove cmd/ingestd's hand-wired stack; they now
// drive the all-roles node that replaced it.

func TestPutJSONEndpoint(t *testing.T) {
	n := startSolo(t)
	body := `[{"metric":"energy","timestamp":11,"value":3.5,"tags":{"unit":"1","sensor":"2"}}]`
	rec := do(n.Handler(), "POST", "/api/v1/points", body, "application/json")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"accepted":1`) {
		t.Fatalf("put = %d (%s)", rec.Code, rec.Body)
	}
	flush(t, n)
	if got := stored(t, n, 1, 2); got[0].Value != 3.5 {
		t.Fatalf("stored = %+v", got)
	}
	// Errors: wrong method is 405; a bad body is a 400 envelope.
	if rec = do(n.Handler(), "GET", "/api/v1/points", "", ""); rec.Code != 405 {
		t.Fatalf("GET status = %d", rec.Code)
	}
	rec = do(n.Handler(), "POST", "/api/v1/points", "{bad", "application/json")
	if rec.Code != 400 || !strings.Contains(rec.Body.String(), `"code":"bad_request"`) {
		t.Fatalf("bad body status = %d (%s)", rec.Code, rec.Body)
	}
}

// TestPutLinesV1 covers the text/plain spelling of the v1 write path.
func TestPutLinesV1(t *testing.T) {
	n := startSolo(t)
	rec := do(n.Handler(), "POST", "/api/v1/points", "put energy 30 2.25 unit=6 sensor=0\n", "text/plain")
	if rec.Code != 200 {
		t.Fatalf("status = %d (%s)", rec.Code, rec.Body)
	}
	flush(t, n)
	stored(t, n, 6, 0)
}

// TestQueryServedFromCacheNotTSD: a repeated identical query must be a
// cache hit — zero additional TSD scans.
func TestQueryServedFromCacheNotTSD(t *testing.T) {
	n := startSolo(t)
	body := `[{"metric":"energy","timestamp":40,"value":2.5,"tags":{"unit":"1","sensor":"0"}},
	          {"metric":"energy","timestamp":41,"value":2.75,"tags":{"unit":"1","sensor":"0"}}]`
	if rec := do(n.Handler(), "POST", "/api/v1/points", body, "application/json"); rec.Code != 200 {
		t.Fatalf("put status = %d", rec.Code)
	}
	flush(t, n)
	const url = "/api/v1/query?unit=1&sensor=0&from=0&to=100"
	rec := do(n.Handler(), "GET", url, "", "")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"v":2.75`) {
		t.Fatalf("first query = %d (%s)", rec.Code, rec.Body)
	}
	scans := n.TSDB.QueriesServed()
	if rec = do(n.Handler(), "GET", url, "", ""); rec.Code != 200 {
		t.Fatalf("repeat query = %d", rec.Code)
	}
	if got := n.TSDB.QueriesServed(); got != scans {
		t.Fatalf("repeated query hit storage: %d → %d TSD scans (query tier bypassed)", scans, got)
	}
	if m := do(n.Handler(), "GET", "/api/v1/metrics", "", "").Body.String(); !strings.Contains(m, "query_cache_hits 1\n") {
		t.Fatalf("repeated query did not hit the window cache:\n%s", m)
	}
}

// TestMetricsUnified: the pipeline's counters move on the one registry
// exposition, under the one name set.
func TestMetricsUnified(t *testing.T) {
	n := startSolo(t)
	if rec := do(n.Handler(), "POST", "/api/v1/points",
		`[{"metric":"energy","timestamp":1,"value":1,"tags":{"unit":"0","sensor":"0"}}]`, "application/json"); rec.Code != 200 {
		t.Fatalf("put = %d", rec.Code)
	}
	flush(t, n)
	body := do(n.Handler(), "GET", "/api/v1/metrics", "", "").Body.String()
	for _, want := range []string{"bus_published 1\n", "proxy_accepted 1\n", "proxy_delivered 1\n", "storage_lag 0\n", "http_requests"} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	// The proxy signal's limit is the proxy's own buffer, not a copy of
	// its default.
	if sig := n.AdmissionSignals(0); len(sig) != 2 || sig[1].Name != "proxy_queue" || sig[1].Limit != int64(n.Proxy.Buffer()) || sig[1].Limit <= 0 {
		t.Fatalf("admission signals = %+v, proxy buffer %d", sig, n.Proxy.Buffer())
	}
	// The stored point is held by the hot tier, and its footprint shows.
	for _, gauge := range []string{"hbase_memstore_bytes", "hbase_wal_bytes"} {
		if !strings.Contains(body, gauge+" ") || strings.Contains(body, gauge+" 0\n") {
			t.Fatalf("%s is absent or zero after a stored point:\n%s", gauge, body)
		}
	}
}

// TestReadyzDistinctFromHealthz: liveness always answers; readiness
// reflects the bus state.
func TestReadyzDistinctFromHealthz(t *testing.T) {
	n := startSolo(t)
	for _, path := range []string{"/healthz", "/readyz"} {
		if rec := do(n.Handler(), "GET", path, "", ""); rec.Code != 200 {
			t.Fatalf("%s = %d (%s)", path, rec.Code, rec.Body)
		}
	}
	n.Bus.Close()
	if rec := do(n.Handler(), "GET", "/healthz", "", ""); rec.Code != 200 {
		t.Fatalf("healthz after close = %d (liveness must not depend on the bus)", rec.Code)
	}
	rec := do(n.Handler(), "GET", "/readyz", "", "")
	if rec.Code != 503 || !strings.Contains(rec.Body.String(), `"ready":false`) {
		t.Fatalf("readyz after close = %d (%s)", rec.Code, rec.Body)
	}
}

// TestPublishRoutesMixedUnits proves one HTTP request carrying many
// units fans out across partitions keyed by unit.
func TestPublishRoutesMixedUnits(t *testing.T) {
	n := startSolo(t)
	var sb strings.Builder
	for u := 0; u < 8; u++ {
		fmt.Fprintf(&sb, "put energy 40 2.5 unit=%d sensor=0\n", u)
	}
	if rec := do(n.Handler(), "POST", "/api/v1/points", sb.String(), "text/plain"); rec.Code != 200 {
		t.Fatalf("status = %d (%s)", rec.Code, rec.Body)
	}
	topic, touched := n.Bus.Topic(TopicEnergy), 0
	for p := 0; p < topic.Partitions(); p++ {
		if topic.HighWater(p) > 0 {
			touched++
		}
	}
	if touched < 2 {
		t.Fatalf("8 units landed on %d partitions; want spread", touched)
	}
	flush(t, n)
	for u := 0; u < 8; u++ {
		stored(t, n, u, 0)
	}
}

// TestGracefulShutdown: Shutdown returns only once everything the
// gateway acked is in storage — bus drained through the writers, proxy
// drained into the TSDs — so a SIGTERM right behind a burst loses
// nothing.
func TestGracefulShutdown(t *testing.T) {
	n := startSolo(t)
	acked := 0
	for step := 0; step < 50; step++ {
		var sb strings.Builder
		for u := 0; u < 8; u++ {
			for s := 0; s < 8; s++ {
				fmt.Fprintf(&sb, "put energy %d 1.5 unit=%d sensor=%d\n", step, u, s)
			}
		}
		if rec := do(n.Handler(), "POST", "/api/v1/points", sb.String(), "text/plain"); rec.Code != 200 {
			t.Fatalf("put step %d = %d (%s)", step, rec.Code, rec.Body)
		}
		acked += 64
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := n.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got, dropped := n.Proxy.Delivered.Value(), n.Proxy.Dropped.Value(); got != int64(acked) || dropped != 0 {
		t.Fatalf("after shutdown: delivered %d of %d acked, dropped %d", got, acked, dropped)
	}
}
