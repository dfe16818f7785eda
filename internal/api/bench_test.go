package api

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/bus"
	"repro/internal/hbase"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
	"repro/internal/viz"
)

// putBody is the hot-path payload: one point, the minimal ingest unit.
const putBody = `[{"metric":"energy","timestamp":11,"value":3.5,"tags":{"unit":"1","sensor":"2"}}]`

func benchTopic(b *testing.B) *bus.Topic {
	b.Helper()
	// No consumer groups attached: the topic is a plain log, publishes
	// never block on backpressure, and the benchmark measures the HTTP
	// path rather than the drain rate.
	broker := bus.New(bus.Config{Partitions: 4})
	b.Cleanup(broker.Close)
	return broker.Topic("energy")
}

// BenchmarkGatewayPutPathAdmission is the ingest edge with the
// overload controller in the chain: the admitted-path cost of the
// admission stage must be invisible (two atomic loads, the latency
// EWMA feed) — it shares BenchmarkGatewayPutPath's PINS prefix,
// so a controller that starts allocating per request fails the gate.
func BenchmarkGatewayPutPathAdmission(b *testing.B) {
	gw := New(Config{
		Publisher: &BusPublisher{Topic: bus.LocalTopic{Topic: benchTopic(b)}},
		Registry:  telemetry.NewRegistry(),
		AccessLog: testLogger(),
		Admission: admission.NewController(admission.Config{
			Signals: []admission.Signal{{Name: "idle", Load: func() int64 { return 0 }, Limit: 1 << 20}},
		}),
	})
	for i := 0; i < 64; i++ {
		req := httptest.NewRequest("POST", "/api/v1/points", strings.NewReader(putBody))
		gw.ServeHTTP(httptest.NewRecorder(), req)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/api/v1/points", strings.NewReader(putBody))
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status = %d (%s)", rec.Code, rec.Body)
		}
	}
}

// BenchmarkGatewayPutPath measures the full v1 ingest edge: routing,
// the complete standard middleware chain, body parse, per-unit
// grouping and the bus publish. Its allocs/op is pinned in PINS
// so a new middleware cannot silently tax ingestion — compare
// BenchmarkIngestPutBaseline for the chain's overhead.
func BenchmarkGatewayPutPath(b *testing.B) {
	gw := New(Config{
		Publisher: &BusPublisher{Topic: bus.LocalTopic{Topic: benchTopic(b)}},
		Registry:  telemetry.NewRegistry(),
		AccessLog: testLogger(),
	})
	// Warm the wrapper pools and per-route instruments so the pin
	// measures the steady state the ingest edge actually runs at.
	for i := 0; i < 64; i++ {
		req := httptest.NewRequest("POST", "/api/v1/points", strings.NewReader(putBody))
		gw.ServeHTTP(httptest.NewRecorder(), req)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/api/v1/points", strings.NewReader(putBody))
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status = %d (%s)", rec.Code, rec.Body)
		}
	}
}

// rowBody is one unit's row as the v1 envelope: sensors points, the
// shape the fleet's collectors (and the repo benchmark) post.
func rowBody(unit, sensors int, ts int64) []byte {
	b := []byte(`{"points":[`)
	for s := 0; s < sensors; s++ {
		if s > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"metric":"energy","timestamp":%d,"value":%v,"tags":{"unit":"%d","sensor":"%d"}}`,
			ts, 0.25+float64(s)*1.0625, unit, s)
	}
	return append(b, `]}`...)
}

// BenchmarkGatewayPutRow is BenchmarkGatewayPutPath for a whole row:
// the decode must cost the same number of allocations at any row
// width (PINS holds both widths to one number) — the points
// slice, the unit batch and the chain, nothing per point.
func BenchmarkGatewayPutRow(b *testing.B) {
	for _, sensors := range []int{50, 200} {
		b.Run(fmt.Sprintf("sensors=%d", sensors), func(b *testing.B) {
			gw := New(Config{
				Publisher: &BusPublisher{Topic: bus.LocalTopic{Topic: benchTopic(b)}},
				Registry:  telemetry.NewRegistry(),
				AccessLog: testLogger(),
			})
			body := rowBody(7, sensors, 11)
			put := func() {
				req := httptest.NewRequest("POST", "/api/v1/points", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				gw.ServeHTTP(rec, req)
				if rec.Code != 200 {
					b.Fatalf("status = %d (%s)", rec.Code, rec.Body)
				}
			}
			for i := 0; i < 64; i++ {
				put()
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				put()
			}
		})
	}
}

// BenchmarkIngestPutBaseline is a bare handler — read, parse, publish,
// 204 — under the same harness, the reference
// the put-path pin is judged against (the acceptance criterion allows
// the chain one attributable allocation per layer over this).
func BenchmarkIngestPutBaseline(b *testing.B) {
	topic := benchTopic(b)
	h := func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
		if err != nil {
			http.Error(w, err.Error(), 400)
			return
		}
		points, err := ingest.ParseJSON(body)
		if err != nil {
			http.Error(w, err.Error(), 400)
			return
		}
		for key, batch := range ingest.GroupByUnit(points) {
			if _, err := topic.Publish(r.Context(), key, batch); err != nil {
				http.Error(w, err.Error(), 503)
				return
			}
		}
		w.WriteHeader(http.StatusNoContent)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/put", strings.NewReader(putBody))
		rec := httptest.NewRecorder()
		h(rec, req)
		if rec.Code != 204 {
			b.Fatalf("status = %d", rec.Code)
		}
	}
}

// BenchmarkGatewayCachedQuery measures the read hot path: a repeated
// identical window query served from the query tier's cache through
// the full middleware chain and JSON encoding.
func BenchmarkGatewayCachedQuery(b *testing.B) {
	cluster, err := hbase.NewCluster(hbase.Config{RegionServers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cluster.Stop)
	d, err := tsdb.NewDeployment(cluster, 1, tsdb.TSDConfig{SaltBuckets: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.CreateTable(); err != nil {
		b.Fatal(err)
	}
	var pts []tsdb.Point
	for ts := int64(0); ts < 300; ts++ {
		pts = append(pts, tsdb.EnergyPoint(1, 2, ts, float64(ts%17)))
	}
	if err := d.TSDs()[0].Put(pts); err != nil {
		b.Fatal(err)
	}
	engine := query.NewFromDeployment(d, query.Config{MaxEntries: 64})
	gw := New(Config{
		Backend:   &viz.Backend{Q: engine, Units: 2, Sensors: 4},
		Query:     engine,
		Registry:  telemetry.NewRegistry(),
		Now:       func() int64 { return 299 },
		AccessLog: testLogger(),
	})
	const path = "/api/v1/query?unit=1&sensor=2&from=0&to=299"
	// Warm the window cache.
	warm := httptest.NewRecorder()
	gw.ServeHTTP(warm, httptest.NewRequest("GET", path, nil))
	if warm.Code != 200 {
		b.Fatalf("warmup = %d", warm.Code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status = %d", rec.Code)
		}
	}
}
