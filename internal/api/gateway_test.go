package api

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	v1 "repro/internal/api/v1"
	"repro/internal/hbase"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
	"repro/internal/viz"
)

func testLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// querierFunc adapts a function to Querier.
type querierFunc func(ctx context.Context, q tsdb.Query) ([]tsdb.Series, error)

func (f querierFunc) QueryContext(ctx context.Context, q tsdb.Query) ([]tsdb.Series, error) {
	return f(ctx, q)
}

// publisherFunc adapts a function to Publisher.
type publisherFunc func(ctx context.Context, pts []tsdb.Point) (int, error)

func (f publisherFunc) PublishPoints(ctx context.Context, pts []tsdb.Point) (int, error) {
	return f(ctx, pts)
}

// testBackend stands up a tiny TSDB with sensor data and injected
// anomaly flags: 3 units × 4 sensors × 60 seconds; unit 1 sensor 2
// carries 12 anomalies (critical), unit 2 sensor 0 carries 2
// (warning) — the same fixture internal/viz uses.
func testBackend(t *testing.T) (*viz.Backend, *tsdb.Deployment) {
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
	for i := int64(0); i < 12; i++ {
		pts = append(pts, tsdb.Point{Metric: tsdb.MetricAnomaly, Tags: tsdb.EnergyTags(1, 2), Timestamp: 10 + i, Value: 5.5})
	}
	pts = append(pts,
		tsdb.Point{Metric: tsdb.MetricAnomaly, Tags: tsdb.EnergyTags(2, 0), Timestamp: 20, Value: 4.0},
		tsdb.Point{Metric: tsdb.MetricAnomaly, Tags: tsdb.EnergyTags(2, 0), Timestamp: 21, Value: 4.2},
	)
	if err := tsd.Put(pts); err != nil {
		t.Fatal(err)
	}
	return &viz.Backend{Q: tsd, Units: 3, Sensors: 4, WarnAt: 1, CritAt: 10}, d
}

func testGateway(t *testing.T, mutate func(*Config)) *Gateway {
	t.Helper()
	backend, d := testBackend(t)
	cfg := Config{
		Backend:   backend,
		Query:     d.TSDs()[0],
		Registry:  telemetry.NewRegistry(),
		Now:       func() int64 { return 59 },
		AccessLog: testLogger(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg)
}

func get(t *testing.T, gw http.Handler, path string, hdr ...string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, req)
	return rec
}

func envelope(t *testing.T, rec *httptest.ResponseRecorder) *v1.Error {
	t.Helper()
	var env v1.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil {
		t.Fatalf("body is not an error envelope: %q (%v)", rec.Body, err)
	}
	return env.Error
}

// TestV1Conformance is the route-contract table the CI conformance
// step runs: every v1 route answers, and every error class maps onto
// the documented status + envelope code.
func TestV1Conformance(t *testing.T) {
	gw := testGateway(t, func(c *Config) {
		c.Publisher = publisherFunc(func(ctx context.Context, pts []tsdb.Point) (int, error) {
			return len(pts), nil
		})
		c.MaxBody = 1 << 10
		c.Detectors = func() v1.DetectorsResponse {
			return v1.DetectorsResponse{
				Primary: "mgd",
				Detectors: []v1.DetectorInfo{
					{Name: "mgd", Mode: "primary", Flags: 7},
					{Name: "cusum", Mode: "shadow", Agreements: 3, Disagreements: 1},
				},
				Ensemble: v1.EnsembleConfig{Members: []string{"cusum", "zscore"}, MinVotes: 2},
			}
		}
		c.Cluster = func() v1.ClusterResponse {
			return v1.ClusterResponse{Nodes: []v1.ClusterNode{
				{Name: "broker-1", Roles: []string{"broker"}, Addr: "127.0.0.1:7401", PartitionGroupsLed: []int{0}},
				{Name: "gw-1", Roles: []string{"gateway"}, Addr: "127.0.0.1:7404"},
			}}
		}
	})
	okCases := []struct {
		path string
		want string // substring of the 200 body
	}{
		{"/api/v1/fleet", `"units"`},
		{"/api/v1/fleet?from=0&to=59", `"critical":1`},
		{"/api/v1/machines/1?from=0&to=59", `"status":"critical"`},
		{"/api/v1/machines/1/sensors/2?from=0&to=59", `"anomalies"`},
		{"/api/v1/series?unit=1&sensor=2&from=0&to=59", `"sensor":2`},
		{"/api/v1/query?unit=1&sensor=2&from=0&to=59", `"series"`},
		{"/api/v1/anomalies/top?from=0&to=59", `"anomalies"`},
		{"/api/v1/detectors", `"mode":"primary"`},
		{"/api/v1/cluster", `"partitionGroupsLed":[0]`},
		{"/api/v1/metrics", "http_requests"},
		{"/api/v1/healthz", "ok"},
		{"/api/v1/readyz", `"ready":true`},
		{"/healthz", "ok"},
		{"/readyz", `"ready":true`},
	}
	for _, tc := range okCases {
		rec := get(t, gw, tc.path)
		if rec.Code != 200 {
			t.Errorf("GET %s = %d (%s), want 200", tc.path, rec.Code, rec.Body)
			continue
		}
		if !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("GET %s body missing %q:\n%s", tc.path, tc.want, rec.Body)
		}
	}

	errCases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   string
	}{
		{"bad unit", "GET", "/api/v1/machines/zzz", "", 400, v1.CodeBadRequest},
		{"unknown unit", "GET", "/api/v1/machines/99", "", 404, v1.CodeNotFound},
		{"unknown sensor", "GET", "/api/v1/series?unit=0&sensor=99", "", 404, v1.CodeNotFound},
		{"missing series params", "GET", "/api/v1/series", "", 400, v1.CodeBadRequest},
		{"inverted window", "GET", "/api/v1/fleet?from=50&to=10", "", 400, v1.CodeBadRequest},
		{"bad cursor", "GET", "/api/v1/fleet?cursor=%21%21", "", 400, v1.CodeBadRequest},
		{"bad limit", "GET", "/api/v1/fleet?limit=-2", "", 400, v1.CodeBadRequest},
		{"bad maxpoints", "GET", "/api/v1/query?maxpoints=x&from=0&to=9", "", 400, v1.CodeBadRequest},
		{"unknown route", "GET", "/api/v1/nope", "", 404, v1.CodeNotFound},
		{"wrong method", "GET", "/api/v1/points", "", 405, v1.CodeBadRequest},
		{"empty put", "POST", "/api/v1/points", "[]", 400, v1.CodeBadRequest},
		{"malformed put", "POST", "/api/v1/points", "{bad", 400, v1.CodeBadRequest},
		{"oversized put", "POST", "/api/v1/points", strings.Repeat("x", 2<<10), 413, v1.CodeTooLarge},
	}
	for _, tc := range errCases {
		var req *http.Request
		if tc.body == "" {
			req = httptest.NewRequest(tc.method, tc.path, nil)
		} else {
			req = httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
		}
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code != tc.status {
			t.Errorf("%s: %s %s = %d (%s), want %d", tc.name, tc.method, tc.path, rec.Code, rec.Body, tc.status)
			continue
		}
		if e := envelope(t, rec); e.Code != tc.code || e.Status != tc.status {
			t.Errorf("%s: envelope = %+v, want code %q status %d", tc.name, e, tc.code, tc.status)
		}
	}

	// 500: a backend whose storage is gone.
	broken := New(Config{
		Backend:   &viz.Backend{Units: 3, Sensors: 4},
		Now:       func() int64 { return 59 },
		AccessLog: testLogger(),
	})
	rec := get(t, broken, "/api/v1/fleet")
	if rec.Code != 500 || envelope(t, rec).Code != v1.CodeInternal {
		t.Errorf("storage failure = %d (%s), want 500 internal", rec.Code, rec.Body)
	}
	// 503: routes whose dependency is absent.
	for _, path := range []string{"/api/v1/anomalies/stream", "/api/v1/detectors", "/api/v1/cluster", "/api/v1/metrics"} {
		rec := get(t, broken, path)
		if rec.Code != 503 || envelope(t, rec).Code != v1.CodeUnavailable {
			t.Errorf("GET %s without dependency = %d, want 503 unavailable", path, rec.Code)
		}
	}
	recPut := httptest.NewRecorder()
	broken.ServeHTTP(recPut, httptest.NewRequest("POST", "/api/v1/points",
		strings.NewReader(`[{"metric":"energy","timestamp":1,"value":1,"tags":{"unit":"0","sensor":"0"}}]`)))
	if recPut.Code != 503 {
		t.Errorf("put without publisher = %d, want 503", recPut.Code)
	}
}

// TestWrongMethodNeverHTML: with the HTML catch-all mounted, a
// wrong-method request on a claimed route still answers the 405
// envelope with an Allow header — it must not fall through to a 200
// HTML page.
func TestWrongMethodNeverHTML(t *testing.T) {
	withHTML := testGateway(t, func(c *Config) {
		c.HTML = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte("<html>fleet</html>"))
		})
	})
	for _, tc := range []struct{ method, path string }{
		{"GET", "/api/v1/points"},
		{"POST", "/api/v1/fleet"},
		{"DELETE", "/api/v1/query"},
		{"POST", "/healthz"},
	} {
		rec := httptest.NewRecorder()
		withHTML.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader("x")))
		if rec.Code != 405 {
			t.Errorf("%s %s = %d, want 405", tc.method, tc.path, rec.Code)
		}
		if rec.Header().Get("Allow") == "" {
			t.Errorf("%s %s missing Allow header", tc.method, tc.path)
		}
		if envelope(t, rec).Code != v1.CodeBadRequest {
			t.Errorf("%s %s body is not the error envelope: %s", tc.method, tc.path, rec.Body)
		}
	}
	// The HTML catch-all still serves everything unclaimed.
	if rec := get(t, withHTML, "/machine/1"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "<html>") {
		t.Errorf("HTML catch-all broken: %d (%s)", rec.Code, rec.Body)
	}
}

// TestPaginationCursors walks the fleet listing page by page and
// proves the pages tile the full listing exactly once, with
// fleet-wide aggregates on every page.
func TestPaginationCursors(t *testing.T) {
	gw := testGateway(t, nil)
	var (
		seen   []int
		cursor string
		pages  int
	)
	for {
		path := "/api/v1/fleet?from=0&to=59&limit=2"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		rec := get(t, gw, path)
		if rec.Code != 200 {
			t.Fatalf("page %d = %d (%s)", pages, rec.Code, rec.Body)
		}
		var page v1.FleetPage
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		if len(page.Units) > 2 {
			t.Fatalf("page %d has %d units, limit 2", pages, len(page.Units))
		}
		if page.Critical != 1 || page.Warning != 1 || page.Healthy != 1 {
			t.Fatalf("page %d aggregates = %d/%d/%d, want fleet-wide 1/1/1",
				pages, page.Healthy, page.Warning, page.Critical)
		}
		for _, u := range page.Units {
			seen = append(seen, u.Unit)
		}
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if pages != 2 || len(seen) != 3 {
		t.Fatalf("walk = %d pages, units %v; want 2 pages of 3 units", pages, seen)
	}
	for i, u := range seen {
		if u != i {
			t.Fatalf("units out of order or duplicated: %v", seen)
		}
	}
	// A cursor past the end is an empty page, not an error.
	rec := get(t, gw, "/api/v1/fleet?cursor="+encodeCursor(99, 0, 59))
	var page v1.FleetPage
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil || len(page.Units) != 0 || page.NextCursor != "" {
		t.Fatalf("past-end page = %+v (%v)", page, err)
	}
	// The cursor pins the window: a follow-up page with no from/to
	// parameters serves the first page's snapshot window, not "now".
	rec = get(t, gw, "/api/v1/fleet?from=0&to=59&limit=1")
	var first v1.FleetPage
	if err := json.Unmarshal(rec.Body.Bytes(), &first); err != nil || first.NextCursor == "" {
		t.Fatalf("first page = %+v (%v)", first, err)
	}
	rec = get(t, gw, "/api/v1/fleet?limit=1&cursor="+first.NextCursor)
	var second v1.FleetPage
	if err := json.Unmarshal(rec.Body.Bytes(), &second); err != nil {
		t.Fatal(err)
	}
	if second.From != 0 || second.To != 59 || second.Anomalies != first.Anomalies {
		t.Fatalf("cursor lost the window: second page = %+v", second)
	}
}

// TestContentNegotiation: JSON by default, NDJSON on request — one
// series object per line.
func TestContentNegotiation(t *testing.T) {
	gw := testGateway(t, nil)
	rec := get(t, gw, "/api/v1/query?unit=1&from=0&to=59")
	if ct := rec.Header().Get("Content-Type"); ct != v1.ContentTypeJSON {
		t.Fatalf("default Content-Type = %q", ct)
	}
	var out v1.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Series) != 4 {
		t.Fatalf("series = %d, want 4 (one per sensor)", len(out.Series))
	}

	rec = get(t, gw, "/api/v1/query?unit=1&from=0&to=59", "Accept", v1.ContentTypeNDJSON)
	if ct := rec.Header().Get("Content-Type"); ct != v1.ContentTypeNDJSON {
		t.Fatalf("negotiated Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("NDJSON lines = %d, want 4", len(lines))
	}
	for i, line := range lines {
		var s v1.Series
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("line %d is not a series: %v", i, err)
		}
		if len(s.Samples) != 60 {
			t.Fatalf("line %d has %d samples", i, len(s.Samples))
		}
	}
	// An unrelated Accept still serves JSON (lenient negotiation).
	rec = get(t, gw, "/api/v1/query?unit=1&from=0&to=59", "Accept", "text/csv")
	if ct := rec.Header().Get("Content-Type"); ct != v1.ContentTypeJSON {
		t.Fatalf("fallback Content-Type = %q", ct)
	}
}

// TestRateLimit429RetryAfter: the per-client budget refuses with
// 429 + Retry-After; distinct configured clients have distinct
// buckets, and unvalidated X-API-Key values cannot mint fresh ones.
func TestRateLimit429RetryAfter(t *testing.T) {
	gw := testGateway(t, func(c *Config) {
		c.Admission = admission.NewController(admission.Config{
			RatePerSec: 0.001, // effectively no refill within the test
			Burst:      2,
		})
		c.APIKeys = []string{"tenant-a"}
	})
	for i := 0; i < 2; i++ {
		if rec := get(t, gw, "/api/v1/fleet?from=0&to=59"); rec.Code != 200 {
			t.Fatalf("request %d = %d (%s)", i, rec.Code, rec.Body)
		}
	}
	rec := get(t, gw, "/api/v1/fleet?from=0&to=59")
	if rec.Code != 429 {
		t.Fatalf("over-budget request = %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	e := envelope(t, rec)
	if e.Code != v1.CodeRateLimited || e.RetryAfterSeconds <= 0 {
		t.Fatalf("envelope = %+v", e)
	}
	// The 429 still carries a request id (RequestID wraps Admission).
	if rec.Header().Get(HeaderRequestID) == "" {
		t.Fatal("429 without request id")
	}
	// A configured API key has its own bucket.
	if rec := get(t, gw, "/api/v1/fleet?from=0&to=59", "X-API-Key", "tenant-a"); rec.Code != 200 {
		t.Fatalf("configured key = %d, want 200", rec.Code)
	}
	// Rotating unrecognized keys must NOT evade the limit: identity
	// falls back to the remote IP, whose bucket is already empty.
	for _, bogus := range []string{"made-up-1", "made-up-2"} {
		if rec := get(t, gw, "/api/v1/fleet?from=0&to=59", "X-API-Key", bogus); rec.Code != 429 {
			t.Fatalf("rotated key %q = %d, want 429 (limiter bypassed)", bogus, rec.Code)
		}
	}
}

// TestMiddlewareOrdering pins the chain structure by its observable
// effects: panics become logged 500 envelopes with request ids (and
// are not gzipped — Recover sits outside Gzip); gzip engages only on
// success bodies when requested; timeouts surface as 504 envelopes.
func TestMiddlewareOrdering(t *testing.T) {
	panicking := testGateway(t, func(c *Config) {
		c.Query = querierFunc(func(ctx context.Context, q tsdb.Query) ([]tsdb.Series, error) {
			panic("storage exploded")
		})
	})
	rec := get(t, panicking, "/api/v1/query?from=0&to=9", "Accept-Encoding", "gzip")
	if rec.Code != 500 {
		t.Fatalf("panicked request = %d, want 500", rec.Code)
	}
	if rec.Header().Get(HeaderRequestID) == "" {
		t.Fatal("panicked request lost its request id")
	}
	if rec.Header().Get("Content-Encoding") == "gzip" {
		t.Fatal("panic envelope must not be gzip-encoded (Recover is outside Gzip)")
	}
	if envelope(t, rec).Code != v1.CodeInternal {
		t.Fatalf("panic envelope = %s", rec.Body)
	}

	// Success bodies gzip when asked.
	gw := testGateway(t, nil)
	rec = get(t, gw, "/api/v1/fleet?from=0&to=59", "Accept-Encoding", "gzip")
	if rec.Code != 200 || rec.Header().Get("Content-Encoding") != "gzip" {
		t.Fatalf("gzip negotiation: code %d encoding %q", rec.Code, rec.Header().Get("Content-Encoding"))
	}
	zr, err := gzip.NewReader(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil || !strings.Contains(string(raw), `"units"`) {
		t.Fatalf("gzip body = %q (%v)", raw, err)
	}

	// A handler that outlives RequestTimeout surfaces as 504 timeout.
	slow := testGateway(t, func(c *Config) {
		c.RequestTimeout = 20 * time.Millisecond
		c.Query = querierFunc(func(ctx context.Context, q tsdb.Query) ([]tsdb.Series, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		})
	})
	rec = get(t, slow, "/api/v1/query?from=0&to=9")
	if rec.Code != 504 || envelope(t, rec).Code != v1.CodeTimeout {
		t.Fatalf("timeout = %d (%s), want 504 timeout", rec.Code, rec.Body)
	}

	// Per-route latency histograms appear in the registry.
	rec = get(t, gw, "/api/v1/metrics")
	if !strings.Contains(rec.Body.String(), `http_ms{route="GET /api/v1/fleet"}_count`) {
		t.Fatalf("metrics missing per-route histogram:\n%s", rec.Body)
	}
}

// TestGzipErrorEnvelopeMarked: an explicit-WriteHeader error body
// must either be marked gzip or not compressed at all — never
// compressed bytes without the header (the broken-middleware shape).
func TestGzipErrorEnvelopeMarked(t *testing.T) {
	gw := testGateway(t, nil)
	rec := get(t, gw, "/api/v1/machines/99?from=0&to=59", "Accept-Encoding", "gzip")
	if rec.Code != 404 {
		t.Fatalf("status = %d", rec.Code)
	}
	if rec.Header().Get("Content-Encoding") != "gzip" {
		t.Fatalf("error body Content-Encoding = %q", rec.Header().Get("Content-Encoding"))
	}
	zr, err := gzip.NewReader(rec.Body)
	if err != nil {
		t.Fatalf("error body is not gzip despite the header: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var env v1.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil || env.Error.Code != v1.CodeNotFound {
		t.Fatalf("decoded envelope = %s (%v)", raw, err)
	}
	// A bodyless 204 must not claim an encoding.
	bodyless := Gzip()(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	req := httptest.NewRequest("POST", "/", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	rec204 := httptest.NewRecorder()
	bodyless.ServeHTTP(rec204, req)
	if rec204.Code != 204 || rec204.Header().Get("Content-Encoding") != "" {
		t.Fatalf("204 = %d, Content-Encoding %q", rec204.Code, rec204.Header().Get("Content-Encoding"))
	}
}
