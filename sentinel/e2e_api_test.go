package sentinel

import (
	"context"
	"io"
	"log"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	v1 "repro/internal/api/v1"
	"repro/sentinel/client"
)

// TestEndToEndThroughPublicAPI is the acceptance test for the /api/v1
// gateway: the whole loop — ingest, streaming detection, cached
// queries, fleet analytics and the live SSE anomaly feed — driven
// exclusively through the sentinel/client SDK against the public
// surface. No direct writes to the bus, storage or detector tiers.
func TestEndToEndThroughPublicAPI(t *testing.T) {
	const (
		units   = 2
		sensors = 8
		train   = 60
	)
	sys, err := New(Config{
		StorageNodes:   2,
		Units:          units,
		SensorsPerUnit: sensors,
		Seed:           7,
		// Fault onset far beyond the test horizon: the only anomalies
		// are the ones injected through the API below.
		FaultOnset: 1 << 20,
		// A streaming family shadows the primary so the detectors
		// endpoint exercises the full mode taxonomy.
		ShadowDetectors: []string{"cusum"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	handler, tail := sys.Gateway(train, GatewayConfig{AccessLog: log.New(io.Discard, "", 0)})
	defer tail.Close()
	srv := httptest.NewServer(handler)
	defer srv.Close()
	c, err := client.New(srv.URL, client.WithHTTPClient(srv.Client()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// --- Ingest: the training range goes in through POST /points. ---
	var pts []v1.Point
	for u := 0; u < units; u++ {
		for ts := int64(0); ts < train; ts++ {
			for s := 0; s < sensors; s++ {
				pts = append(pts, v1.Point{
					Metric:    "energy",
					Timestamp: ts,
					Value:     sys.Fleet.Value(u, s, ts),
					Tags:      map[string]string{"unit": strconv.Itoa(u), "sensor": strconv.Itoa(s)},
				})
			}
		}
	}
	if n, err := c.PutPoints(ctx, pts); err != nil || n != len(pts) {
		t.Fatalf("training put = %d, %v (want %d)", n, err, len(pts))
	}
	// Wait until the storage group drained the put into the TSD tier.
	if err := sys.Topic().Group(GroupStorage).Sync(ctx); err != nil {
		t.Fatalf("storage drain: %v", err)
	}
	sys.Proxy.Flush()

	// --- Train (an operator-side batch job, not an API surface). ---
	if err := sys.TrainFromTSDB(0, train, true); err != nil {
		t.Fatalf("train: %v", err)
	}

	// --- Detect: streaming workers consume everything published next. ---
	pool := sys.StartDetectors(1)
	defer pool.Stop()

	// Readiness now reports every tier up.
	ready, err := c.Ready(ctx)
	if err != nil || !ready.Ready {
		t.Fatalf("readyz = %+v, %v", ready, err)
	}

	// --- Stream: subscribe before injecting the faults. ---
	stream, err := c.StreamAnomalies(ctx)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer stream.Close()
	waitDeadline := time.Now().Add(10 * time.Second)
	for tail.Subscribers() == 0 {
		if time.Now().After(waitDeadline) {
			t.Fatal("stream never subscribed")
		}
		time.Sleep(time.Millisecond)
	}

	// Inject three grossly anomalous rows for unit 0 through the API —
	// complete rows (every sensor, one timestamp) so the detector
	// evaluates them as published.
	for ts := int64(100); ts < 103; ts++ {
		row := make([]v1.Point, sensors)
		for s := 0; s < sensors; s++ {
			row[s] = v1.Point{
				Metric:    "energy",
				Timestamp: ts,
				Value:     sys.Fleet.Value(0, s, ts) + 50,
				Tags:      map[string]string{"unit": "0", "sensor": strconv.Itoa(s)},
			}
		}
		if _, err := c.PutPoints(ctx, row); err != nil {
			t.Fatalf("anomalous put t=%d: %v", ts, err)
		}
	}
	if err := pool.Sync(ctx); err != nil {
		t.Fatalf("detector sync: %v", err)
	}
	// The storage group drains independently of the detectors: wait for
	// it too, or a row landing late moves the write watermark under the
	// cached-read check at the end.
	if err := sys.Topic().Group(GroupStorage).Sync(ctx); err != nil {
		t.Fatalf("storage drain: %v", err)
	}
	sys.Proxy.Flush()
	if pool.AnomaliesWritten.Value() == 0 {
		t.Fatal("detector flagged nothing; the stream has nothing to show")
	}

	// --- Stream delivers the flags live. ---
	ev, err := stream.Next()
	if err != nil {
		t.Fatalf("stream.Next: %v", err)
	}
	if ev.Unit != 0 || ev.Timestamp < 100 || ev.Timestamp > 102 {
		t.Fatalf("streamed event = %+v, want unit 0 in [100,102]", ev)
	}
	if ev.Z == 0 {
		t.Fatalf("streamed event carries no severity: %+v", ev)
	}
	if ev.Detector != "mgd" || ev.Score == 0 {
		t.Fatalf("streamed event missing detector attribution: %+v", ev)
	}

	// --- Detector tier status over the typed SDK. ---
	if err := pool.DrainShadows(ctx); err != nil {
		t.Fatalf("drain shadows: %v", err)
	}
	ds, err := c.Detectors(ctx)
	if err != nil {
		t.Fatalf("detectors: %v", err)
	}
	if ds.Primary != "mgd" {
		t.Fatalf("primary = %q, want mgd", ds.Primary)
	}
	modes := map[string]string{}
	var shadowBatches int64
	for _, d := range ds.Detectors {
		modes[d.Name] = d.Mode
		if d.Name == "cusum" {
			shadowBatches = d.Agreements + d.Disagreements
		}
	}
	if modes["mgd"] != "primary" || modes["cusum"] != "shadow" || modes["iforest"] != "off" {
		t.Fatalf("detector modes = %v", modes)
	}
	// The primary flagged rows; the shadow compared them (agreement or
	// not — cusum is still warming up on this short horizon).
	if shadowBatches == 0 {
		t.Fatalf("shadow never compared a flagged row: %+v", ds.Detectors)
	}

	// --- Query: raw series reads come back through the cached tier. ---
	series, err := c.Query(ctx, client.QueryParams{Unit: "0", Sensor: "0", From: 95, To: 105})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	found := false
	for _, s := range series {
		for _, smp := range s.Samples {
			if smp.Timestamp == 100 {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("query did not surface the injected samples: %+v", series)
	}

	// --- Analytics: fleet, machine and ranking see the flags. ---
	fleet, err := c.FleetAll(ctx, client.FleetParams{From: 95, To: 105, Limit: 1})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if len(fleet.Units) != units || fleet.Anomalies == 0 {
		t.Fatalf("fleet = %+v, want %d units with anomalies", fleet, units)
	}
	mv, err := c.Machine(ctx, 0, 95, 105)
	if err != nil || mv.Anomalies == 0 {
		t.Fatalf("machine = %+v, %v", mv, err)
	}
	top, err := c.TopAnomalies(ctx, 95, 105, 5)
	if err != nil || len(top) == 0 || top[0].Unit != 0 {
		t.Fatalf("top = %+v, %v", top, err)
	}

	// --- Reads go through the cached engine, not a raw TSD bypass: a
	// repeated query is served with zero extra storage scans. ---
	scans := sys.TSDB.QueriesServed()
	again, err := c.Query(ctx, client.QueryParams{Unit: "0", Sensor: "0", From: 95, To: 105})
	if err != nil || len(again) != len(series) {
		t.Fatalf("repeat query = %+v, %v", again, err)
	}
	if got := sys.TSDB.QueriesServed(); got != scans {
		t.Fatalf("repeat query hit storage: %d → %d scans", scans, got)
	}
}
