package viz

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/hbase"
	"repro/internal/query"
	"repro/internal/tsdb"
)

// testEnv stands up a tiny TSDB with sensor data and injected anomaly
// flags: 3 units × 4 sensors × 60 seconds; unit 1 sensor 2 carries 12
// anomalies (critical), unit 2 sensor 0 carries 2 (warning).
func testEnv(t *testing.T) (*Backend, *Server) {
	t.Helper()
	cluster, err := hbase.NewCluster(hbase.Config{RegionServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Stop)
	d, err := tsdb.NewDeployment(cluster, 1, tsdb.TSDConfig{SaltBuckets: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable(); err != nil {
		t.Fatal(err)
	}
	tsd := d.TSDs()[0]
	var pts []tsdb.Point
	for u := 0; u < 3; u++ {
		for s := 0; s < 4; s++ {
			for ts := int64(0); ts < 60; ts++ {
				pts = append(pts, tsdb.EnergyPoint(u, s, ts, float64(u*10+s)+float64(ts%7)))
			}
		}
	}
	if err := tsd.Put(pts); err != nil {
		t.Fatal(err)
	}
	var flags []tsdb.Point
	for i := int64(0); i < 12; i++ {
		flags = append(flags, tsdb.Point{
			Metric: tsdb.MetricAnomaly, Tags: tsdb.EnergyTags(1, 2),
			Timestamp: 10 + i, Value: 5.5,
		})
	}
	flags = append(flags,
		tsdb.Point{Metric: tsdb.MetricAnomaly, Tags: tsdb.EnergyTags(2, 0), Timestamp: 20, Value: 4.0},
		tsdb.Point{Metric: tsdb.MetricAnomaly, Tags: tsdb.EnergyTags(2, 0), Timestamp: 21, Value: 4.2},
	)
	if err := tsd.Put(flags); err != nil {
		t.Fatal(err)
	}
	backend := &Backend{Q: tsd, Units: 3, Sensors: 4, WarnAt: 1, CritAt: 10}
	server := NewServer(backend, func() int64 { return 59 })
	return backend, server
}

func get(t *testing.T, s *Server, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func TestBackendFleetStatus(t *testing.T) {
	backend, _ := testEnv(t)
	fleet, err := backend.Fleet(context.Background(), 0, 59)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Healthy != 1 || fleet.Warning != 1 || fleet.Critical != 1 {
		t.Fatalf("fleet = %d/%d/%d, want 1/1/1", fleet.Healthy, fleet.Warning, fleet.Critical)
	}
	if fleet.Anomalies != 14 {
		t.Fatalf("anomalies = %d, want 14", fleet.Anomalies)
	}
	if fleet.Units[1].Status != StatusCritical || fleet.Units[2].Status != StatusWarning || fleet.Units[0].Status != StatusHealthy {
		t.Fatalf("unit statuses = %+v", fleet.Units)
	}
	if fleet.Units[1].FlaggedSensors != 1 {
		t.Fatalf("flagged sensors = %d", fleet.Units[1].FlaggedSensors)
	}
}

func TestBackendMachineView(t *testing.T) {
	backend, _ := testEnv(t)
	mv, err := backend.Machine(context.Background(), 1, 0, 59)
	if err != nil {
		t.Fatal(err)
	}
	if len(mv.Sensors) != 4 {
		t.Fatalf("sensors = %d", len(mv.Sensors))
	}
	if mv.Status != StatusCritical || mv.Anomalies != 12 {
		t.Fatalf("machine 1 = %s/%d", mv.Status, mv.Anomalies)
	}
	s2 := mv.Sensors[2]
	if len(s2.Samples) != 60 || len(s2.Anomalies) != 12 {
		t.Fatalf("sensor 2 = %d samples, %d anomalies", len(s2.Samples), len(s2.Anomalies))
	}
	if _, err := backend.Machine(context.Background(), 99, 0, 59); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown unit error = %v, want ErrNotFound", err)
	}
}

func TestBackendSensorDetail(t *testing.T) {
	backend, _ := testEnv(t)
	det, err := backend.Sensor(context.Background(), 1, 2, 0, 59)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Samples) != 60 || len(det.Anomalies) != 12 {
		t.Fatalf("detail = %d/%d", len(det.Samples), len(det.Anomalies))
	}
	if _, err := backend.Sensor(context.Background(), 0, 99, 0, 59); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown sensor error = %v, want ErrNotFound", err)
	}
}

func TestFleetPageRenders(t *testing.T) {
	_, server := testEnv(t)
	code, body := get(t, server, "/")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{
		"Fleet overview",
		`class="statusbar"`, // Figure-3 status bar
		"seg-critical",
		`href="/machine/1?`,
		"1 healthy",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("fleet page missing %q", want)
		}
	}
}

func TestMachinePageShowsSparklinesAndRedFlags(t *testing.T) {
	_, server := testEnv(t)
	code, body := get(t, server, "/machine/1")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if got := strings.Count(body, `class="spark"`); got != 4 {
		t.Fatalf("sparklines = %d, want 4 (one per sensor)", got)
	}
	// Red anomaly markers (fill #d94a4a) on the flagged sensor.
	if !strings.Contains(body, `class="anomaly"`) || !strings.Contains(body, "#d94a4a") {
		t.Fatal("machine page missing red anomaly flags")
	}
	// Drill-down links.
	if !strings.Contains(body, `href="/machine/1/sensor/2?`) {
		t.Fatal("machine page missing drill-down link")
	}
	if !strings.Contains(body, "critical") {
		t.Fatal("machine page missing status")
	}
}

func TestDrillDownPage(t *testing.T) {
	_, server := testEnv(t)
	code, body := get(t, server, "/machine/1/sensor/2")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{
		"sensor 2",
		`id="anomalies"`,
		"anomaly-row",
		"5.50", // severity column
		`href="/machine/1?`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("drill-down missing %q", want)
		}
	}
	if got := strings.Count(body, "anomaly-row"); got != 12 {
		t.Fatalf("anomaly rows = %d, want 12", got)
	}
}

func TestPageErrors(t *testing.T) {
	_, server := testEnv(t)
	if code, _ := get(t, server, "/machine/99"); code != 404 {
		t.Fatalf("unknown machine status = %d", code)
	}
	if code, _ := get(t, server, "/machine/abc"); code != 404 {
		t.Fatalf("bad unit status = %d", code)
	}
	if code, _ := get(t, server, "/nope"); code != 404 {
		t.Fatalf("unknown path status = %d", code)
	}
	if code, _ := get(t, server, "/machine/1/bogus/2"); code != 404 {
		t.Fatalf("bad subpath status = %d", code)
	}
}

// The JSON API surfaces formerly tested here migrated into the
// /api/v1 gateway; their contract tests live in internal/api now.

func TestWindowParameters(t *testing.T) {
	backend, _ := testEnv(t)
	// Narrow window excluding all anomalies: everything healthy.
	fleet, err := backend.Fleet(context.Background(), 40, 59)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Critical != 0 || fleet.Healthy != 3 {
		t.Fatalf("windowed fleet = %+v", fleet)
	}
}

func TestSparklineRendering(t *testing.T) {
	samples := []tsdb.Sample{{Timestamp: 0, Value: 1}, {Timestamp: 1, Value: 3}, {Timestamp: 2, Value: 2}}
	anoms := []tsdb.Sample{{Timestamp: 1, Value: 6}}
	svg := string(Sparkline(samples, anoms, 100, 20))
	if !strings.Contains(svg, "<polyline") || !strings.Contains(svg, "<circle") {
		t.Fatalf("sparkline = %s", svg)
	}
	// Empty samples yields an empty frame, not a panic.
	empty := string(Sparkline(nil, nil, 0, 0))
	if !strings.Contains(empty, "<svg") {
		t.Fatal("empty sparkline must still be an svg")
	}
	// Constant series must not divide by zero.
	flat := string(Sparkline([]tsdb.Sample{{Timestamp: 5, Value: 2}, {Timestamp: 6, Value: 2}}, nil, 50, 10))
	if !strings.Contains(flat, "polyline") {
		t.Fatal("flat sparkline broken")
	}
}

func TestStatusBarRendering(t *testing.T) {
	svg := string(StatusBar(2, 1, 1, 100, 10))
	for _, want := range []string{"seg-healthy", "seg-warning", "seg-critical", "2 healthy, 1 warning, 1 critical"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("status bar missing %q", want)
		}
	}
	if s := string(StatusBar(0, 0, 0, 0, 0)); !strings.Contains(s, "<svg") {
		t.Fatal("empty status bar must render")
	}
	if s := string(StatusBar(3, 0, 0, 100, 10)); strings.Contains(s, "seg-warning") {
		t.Fatal("zero segments must be omitted")
	}
}

func TestTopAnomaliesRanking(t *testing.T) {
	backend, _ := testEnv(t)
	top, err := backend.TopAnomalies(context.Background(), 0, 59, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 {
		t.Fatalf("top = %d entries, want 3", len(top))
	}
	// Unit 1 sensor 2 flags carry severity 5.5; unit 2 sensor 0 carry
	// 4.0/4.2 — the top entries must all be the severe ones.
	for i, a := range top {
		if a.Unit != 1 || a.Sensor != 2 || a.Severity != 5.5 {
			t.Fatalf("top[%d] = %+v, want unit 1 sensor 2 severity 5.5", i, a)
		}
	}
	// Severity-descending overall.
	all, err := backend.TopAnomalies(context.Background(), 0, 59, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 14 {
		t.Fatalf("all = %d entries, want 14", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Severity > all[i-1].Severity {
			t.Fatal("ranking not severity-descending")
		}
	}
	// Default limit.
	def, err := backend.TopAnomalies(context.Background(), 0, 59, 0)
	if err != nil || len(def) != 10 {
		t.Fatalf("default limit = %d, %v", len(def), err)
	}
}

// scanEnv builds a backend over a fleet of the given size with energy
// data on 4 sensors × 30 s per unit and 3 anomaly flags on every
// unit's sensor 2.
func scanEnv(t *testing.T, units int) (*Backend, *tsdb.TSD) {
	t.Helper()
	cluster, err := hbase.NewCluster(hbase.Config{RegionServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Stop)
	d, err := tsdb.NewDeployment(cluster, 1, tsdb.TSDConfig{SaltBuckets: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable(); err != nil {
		t.Fatal(err)
	}
	tsd := d.TSDs()[0]
	var pts []tsdb.Point
	for u := 0; u < units; u++ {
		for s := 0; s < 4; s++ {
			for ts := int64(0); ts < 30; ts++ {
				pts = append(pts, tsdb.EnergyPoint(u, s, ts, float64(u+s+int(ts))))
			}
		}
		for i := int64(0); i < 3; i++ {
			pts = append(pts, tsdb.Point{Metric: tsdb.MetricAnomaly, Tags: tsdb.EnergyTags(u, 2), Timestamp: 10 + i, Value: 4})
		}
	}
	if err := tsd.Put(pts); err != nil {
		t.Fatal(err)
	}
	return &Backend{Q: tsd, Units: units, Sensors: 4}, tsd
}

// TestDrillDownScansDontScaleWithFleet is the regression test for the
// fleet-wide anomaly scan bug: Sensor and Machine used to fetch the
// whole fleet's anomaly metric, so a drill-down's payload grew with
// fleet size. With tag-filtered queries, the query count and the
// samples shipped per page are identical on a 4-unit and a 16-unit
// fleet.
func TestDrillDownScansDontScaleWithFleet(t *testing.T) {
	measure := func(units int) (queries, samples [2]int64) {
		backend, tsd := scanEnv(t, units)
		ctx := context.Background()
		q0, s0 := tsd.QueriesServed.Value(), tsd.SamplesReturned.Value()
		det, err := backend.Sensor(ctx, 1, 2, 0, 29)
		if err != nil {
			t.Fatal(err)
		}
		if len(det.Samples) != 30 || len(det.Anomalies) != 3 {
			t.Fatalf("units=%d: detail = %d/%d", units, len(det.Samples), len(det.Anomalies))
		}
		queries[0] = tsd.QueriesServed.Value() - q0
		samples[0] = tsd.SamplesReturned.Value() - s0
		q0, s0 = tsd.QueriesServed.Value(), tsd.SamplesReturned.Value()
		if _, err := backend.Machine(ctx, 1, 0, 29); err != nil {
			t.Fatal(err)
		}
		queries[1] = tsd.QueriesServed.Value() - q0
		samples[1] = tsd.SamplesReturned.Value() - s0
		return queries, samples
	}
	qSmall, sSmall := measure(4)
	qBig, sBig := measure(16)
	if qSmall != qBig {
		t.Fatalf("drill-down query count scales with fleet: %v → %v", qSmall, qBig)
	}
	if sSmall != sBig {
		t.Fatalf("drill-down samples returned scale with fleet: %v → %v", sSmall, sBig)
	}
}

func TestInvertedWindowRejected(t *testing.T) {
	_, server := testEnv(t)
	if code, _ := get(t, server, "/?from=50&to=10"); code != 400 {
		t.Fatalf("inverted HTML window status = %d, want 400", code)
	}
	if code, _ := get(t, server, "/machine/1?from=50&to=10"); code != 400 {
		t.Fatalf("inverted machine window status = %d, want 400", code)
	}
}

func TestErrorStatusMapping(t *testing.T) {
	_, server := testEnv(t)
	// Unknown unit/sensor are the client's fault: 404, not 500.
	if code, _ := get(t, server, "/machine/0/sensor/99"); code != 404 {
		t.Fatalf("unknown sensor HTML status = %d, want 404", code)
	}
	// A storage failure stays 500: drop the backend's querier.
	backend := &Backend{Units: 3, Sensors: 4}
	broken := NewServer(backend, func() int64 { return 59 })
	if code, _ := get(t, broken, "/machine/1"); code != 500 {
		t.Fatalf("storage failure HTML status = %d, want 500", code)
	}
}

// TestFleetSurfacesIgnoredAnomalies covers the silent-drop bug:
// anomalies written for units outside the configured fleet used to
// vanish from every surface; now the overview counts them.
func TestFleetSurfacesIgnoredAnomalies(t *testing.T) {
	backend, _ := testEnv(t)
	tsd := backend.Q.(*tsdb.TSD)
	if err := tsd.Put([]tsdb.Point{
		{Metric: tsdb.MetricAnomaly, Tags: tsdb.EnergyTags(7, 0), Timestamp: 30, Value: 9},
		{Metric: tsdb.MetricAnomaly, Tags: tsdb.EnergyTags(7, 0), Timestamp: 31, Value: 9},
	}); err != nil {
		t.Fatal(err)
	}
	fleet, err := backend.Fleet(context.Background(), 0, 59)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Ignored != 2 {
		t.Fatalf("ignored = %d, want 2", fleet.Ignored)
	}
	if fleet.Anomalies != 14 {
		t.Fatalf("anomalies = %d, want 14 (out-of-range flags must not count)", fleet.Anomalies)
	}
	if backend.IgnoredAnomalies.Value() != 2 {
		t.Fatalf("counter = %d, want 2", backend.IgnoredAnomalies.Value())
	}
}

// TestAnomalyCountsExactUnderRenderBound pins the split between the
// render bound and the analytics: sample series are LTTB-bounded, but
// anomaly counts, drill-down flag lists and the severity ranking stay
// exact even when one sensor carries far more flags than MaxPoints.
func TestAnomalyCountsExactUnderRenderBound(t *testing.T) {
	const flags = 300
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
	for ts := int64(0); ts < 400; ts++ {
		pts = append(pts, tsdb.EnergyPoint(0, 0, ts, float64(ts%11)))
	}
	for i := int64(0); i < flags; i++ {
		pts = append(pts, tsdb.Point{Metric: tsdb.MetricAnomaly, Tags: tsdb.EnergyTags(0, 0), Timestamp: i, Value: 3 + float64(i%5)})
	}
	if err := d.TSDs()[0].Put(pts); err != nil {
		t.Fatal(err)
	}
	engine := query.NewFromDeployment(d, query.Config{MaxEntries: 32})
	backend := &Backend{Q: engine, Units: 1, Sensors: 1, MaxPoints: 50}
	ctx := context.Background()

	mv, err := backend.Machine(ctx, 0, 0, 399)
	if err != nil {
		t.Fatal(err)
	}
	if mv.Anomalies != flags {
		t.Fatalf("machine anomalies = %d, want %d (render bound must not truncate counts)", mv.Anomalies, flags)
	}
	if len(mv.Sensors[0].Samples) > 50 {
		t.Fatalf("samples = %d, want ≤ 50", len(mv.Sensors[0].Samples))
	}
	fleet, err := backend.Fleet(ctx, 0, 399)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Anomalies != flags {
		t.Fatalf("fleet anomalies = %d, want %d", fleet.Anomalies, flags)
	}
	det, err := backend.Sensor(ctx, 0, 0, 0, 399)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Anomalies) != flags {
		t.Fatalf("drill-down anomalies = %d, want %d", len(det.Anomalies), flags)
	}
	// The single most severe flag (value 7, last written at t=299) must
	// top the exact ranking.
	top, err := backend.TopAnomalies(ctx, 0, 399, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0].Severity != 7 {
		t.Fatalf("top = %+v, want severity 7", top)
	}
}

// TestMachinePageBoundedAndCached is the acceptance criterion: a
// machine-page render over a 100k-sample window returns at most
// MaxPoints samples per sensor, and an immediately repeated identical
// request is served entirely from the query tier's cache — zero
// additional TSD scans.
func TestMachinePageBoundedAndCached(t *testing.T) {
	const (
		sensors   = 4
		steps     = 25_000 // × 4 sensors = 100k samples in the window
		maxPoints = 100
	)
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
	tsd := d.TSDs()[0]
	pts := make([]tsdb.Point, 0, sensors*steps)
	for s := 0; s < sensors; s++ {
		for ts := int64(0); ts < steps; ts++ {
			pts = append(pts, tsdb.EnergyPoint(0, s, ts, float64(s)+float64(ts%101)))
		}
		if err := tsd.Put(pts); err != nil {
			t.Fatal(err)
		}
		pts = pts[:0]
	}
	if err := tsd.Put([]tsdb.Point{
		{Metric: tsdb.MetricAnomaly, Tags: tsdb.EnergyTags(0, 1), Timestamp: 500, Value: 6},
	}); err != nil {
		t.Fatal(err)
	}
	engine := query.NewFromDeployment(d, query.Config{MaxEntries: 64})
	backend := &Backend{Q: engine, Units: 1, Sensors: sensors, MaxPoints: maxPoints}
	server := NewServer(backend, func() int64 { return steps - 1 })

	url := "/machine/0?from=0&to=24999"
	code, body := get(t, server, url)
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if got := strings.Count(body, `class="spark"`); got != sensors {
		t.Fatalf("sparklines = %d, want %d", got, sensors)
	}
	// The backend view proves the per-sensor bound.
	mv, err := backend.Machine(context.Background(), 0, 0, 24999)
	if err != nil {
		t.Fatal(err)
	}
	if len(mv.Sensors) != sensors {
		t.Fatalf("sensors = %d", len(mv.Sensors))
	}
	for _, sv := range mv.Sensors {
		if len(sv.Samples) == 0 || len(sv.Samples) > maxPoints {
			t.Fatalf("sensor %d renders %d samples, want (0, %d]", sv.Sensor, len(sv.Samples), maxPoints)
		}
	}

	// An identical repeat must not touch the storage tier at all.
	scans := d.QueriesServed()
	hits := engine.CacheHits.Value()
	if code, _ = get(t, server, url); code != 200 {
		t.Fatalf("repeat status = %d", code)
	}
	if got := d.QueriesServed(); got != scans {
		t.Fatalf("repeated render hit storage: %d → %d TSD queries", scans, got)
	}
	if engine.CacheHits.Value() <= hits {
		t.Fatal("repeated render did not hit the cache")
	}
}

func TestTopAnomaliesFleetSection(t *testing.T) {
	_, server := testEnv(t)
	// The fleet page surfaces the section with drill-down links.
	code, page := get(t, server, "/")
	if code != 200 {
		t.Fatal("fleet page down")
	}
	if !strings.Contains(page, "Most concerning anomalies") || !strings.Contains(page, `id="top-anomalies"`) {
		t.Fatal("fleet page missing the most-concerning section")
	}
	if !strings.Contains(page, `href="/machine/1/sensor/2?`) {
		t.Fatal("top anomalies must link to the drill-down")
	}
}
