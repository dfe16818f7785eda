// Fleetmonitor: the full integrated architecture from Figure 1 —
// ingest, detect, write back — served through the unified /api/v1
// gateway and driven programmatically with the sentinel/client SDK:
// paginated fleet listing, machine and drill-down views, the severity
// ranking, and the live SSE anomaly stream.
//
//	go run ./examples/fleetmonitor           # one-shot walk-through
//	go run ./examples/fleetmonitor -serve    # then keep serving on :8080, live
//
// With -serve the walk-through is followed by a live loop: one fleet
// second is ingested per wall-clock second, the streaming detectors
// flag it, and the pages at http://localhost:8080/ (fleet overview →
// machine sparklines with red anomaly flags → sensor drill-down) and
// the SSE stream follow along.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"time"

	v1 "repro/internal/api/v1"
	"repro/sentinel"
	"repro/sentinel/client"
)

func main() {
	serve := flag.Bool("serve", false, "keep the web app running on :8080, ingesting one fleet second per second")
	flag.Parse()

	sys, err := sentinel.New(sentinel.Config{
		StorageNodes:   3,
		Units:          12,
		SensorsPerUnit: 30,
		FaultFraction:  0.4,
		FaultOnset:     100,
		// Run the streaming CUSUM family in shadow mode beside the
		// primary MGD evaluator: it scores the same batches and counts
		// agreements without emitting flags.
		ShadowDetectors: []string{"cusum"},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// Ingest 160 fleet-seconds (training + faulty tail), train, detect.
	if _, err := sys.IngestRange(0, 160); err != nil {
		log.Fatal(err)
	}
	if err := sys.TrainFromTSDB(0, 100, true); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Detect(120, 40); err != nil {
		log.Fatal(err)
	}

	// One handler serves everything: /api/v1 and the Figure-3 HTML
	// pages. now is the fleet time they treat as current.
	var now atomic.Int64
	now.Store(160)
	handler, tail := sys.Gateway(0, sentinel.GatewayConfig{Now: now.Load})
	defer tail.Close()
	srv := httptest.NewServer(handler)
	defer srv.Close()

	c, err := client.New(srv.URL, client.WithHTTPClient(srv.Client()))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Fleet overview through the paginated v1 listing (3 units/page).
	fleet, err := c.FleetAll(ctx, client.FleetParams{From: 120, To: 160, Limit: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet API: %d units (%d healthy / %d warning / %d critical), %d anomalies in window\n",
		len(fleet.Units), fleet.Healthy, fleet.Warning, fleet.Critical, fleet.Anomalies)

	// The HTML surface still renders over the same backend.
	page := fetch(srv.URL + "/?from=120&to=160")
	fmt.Printf("fleet page: %d unit rows, status bar present: %v\n",
		strings.Count(page, "unit-row"), strings.Contains(page, "statusbar"))

	// Find a machine with anomalies and drill in — all through the SDK.
	target := -1
	for _, u := range fleet.Units {
		if u.Anomalies > 0 {
			target = u.Unit
			break
		}
	}
	if target < 0 {
		log.Fatal("no machine shows anomalies; detection failed")
	}
	mv, err := c.Machine(ctx, target, 120, 160)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("machine %d: status %s, %d sensors, %d anomalies\n",
		target, mv.Status, len(mv.Sensors), mv.Anomalies)
	for _, sv := range mv.Sensors {
		if len(sv.Anomalies) == 0 {
			continue
		}
		det, err := c.Sensor(ctx, target, sv.Sensor, 120, 160)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("drill-down unit %d sensor %d: %d samples, %d anomaly rows\n",
			target, sv.Sensor, len(det.Samples), len(det.Anomalies))
		break
	}
	top, err := c.TopAnomalies(ctx, 120, 160, 3)
	if err != nil {
		log.Fatal(err)
	}
	if len(top) > 0 {
		fmt.Printf("most concerning: unit %d sensor %d severity %.1f\n",
			top[0].Unit, top[0].Sensor, top[0].Severity)
	}

	// Live detection streamed over SSE: start the detector pool, open
	// the stream, ingest fresh (faulty) fleet-seconds and watch flags
	// arrive through the public API.
	pool := sys.StartDetectors(2)
	defer pool.Stop()
	streamCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	stream, err := c.StreamAnomalies(streamCtx)
	if err != nil {
		log.Fatal(err)
	}
	defer stream.Close()
	go func() {
		if _, err := sys.IngestRange(160, 5); err != nil {
			log.Printf("live ingest: %v", err)
		}
		now.Store(165)
	}()
	var first v1.AnomalyEvent
	if first, err = stream.Next(); err != nil {
		log.Fatalf("stream: %v", err)
	}
	fmt.Printf("live stream: first flag unit %d sensor %d at t=%d (detector=%s score=%.1f)\n",
		first.Unit, first.Sensor, first.Timestamp, first.Detector, first.Score)

	// The detector tier over the typed SDK: which families run as
	// primary or shadow, and how often the shadows agreed.
	if err := pool.DrainShadows(ctx); err != nil {
		log.Fatal(err)
	}
	ds, err := c.Detectors(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range ds.Detectors {
		if d.Mode == "off" {
			continue
		}
		fmt.Printf("detector %s: mode=%s flags=%d agreements=%d disagreements=%d\n",
			d.Name, d.Mode, d.Flags, d.Agreements, d.Disagreements)
	}

	if *serve {
		fmt.Println("serving on http://localhost:8080/ — Ctrl-C to stop")
		go func() {
			for range time.Tick(time.Second) {
				if _, err := sys.IngestRange(now.Load(), 1); err != nil {
					log.Printf("live ingest t=%d: %v", now.Load(), err)
					continue
				}
				now.Add(1)
			}
		}()
		log.Fatal(http.ListenAndServe(":8080", handler))
	}
}

func fetch(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != 200 {
		log.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return string(body)
}
