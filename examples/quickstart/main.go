// Quickstart: the smallest end-to-end use of the public API — boot a
// laptop-scale system, stream sensor data, train the FDR detector,
// and print the anomalies it flags after a fault begins.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/simdata"
	"repro/sentinel"
)

func main() {
	// A small fleet: 6 assets × 20 sensors at 1 Hz, with 50% of units
	// carrying an injected fault from t=80 onward (fast drift / 5σ
	// shift so the 40-second evaluation window sees clear signal).
	sys, err := sentinel.New(sentinel.Config{
		StorageNodes:   2,
		Units:          6,
		SensorsPerUnit: 20,
		FaultFraction:  0.5,
		FaultOnset:     80,
		DriftPerStep:   0.1,
		ShiftSigma:     5,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// 1. Stream two minutes of sensor data through the ingestion proxy.
	stats, err := sys.IngestRange(0, 120)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d samples at %.0f samples/s\n", stats.Samples, stats.Rate)

	// 2. Train per-unit models from the stored healthy window (t<80).
	if err := sys.TrainFromTSDB(0, 80, true); err != nil {
		log.Fatal(err)
	}
	fmt.Println("trained FDR models for all units (covariance → SVD, cached to HDFS)")

	// 3. Score the post-onset window; flags are written back to the
	// TSDB under the "anomaly" metric and returned, ordered by unit.
	flags, err := sys.Detect(100, 20)
	if err != nil {
		log.Fatal(err)
	}
	perUnit := make(map[int]int)
	for _, a := range flags {
		perUnit[a.Unit]++
	}
	for _, u := range sys.Units() {
		fmt.Printf("unit %d: injected fault=%-6s flags=%d\n", u, sys.Fleet.UnitFault(u).Class, perUnit[u])
	}

	// 4. Cross-check one flagged unit against ground truth.
	for _, a := range flags {
		if sys.Fleet.UnitFault(a.Unit).Class == simdata.FaultNone {
			continue
		}
		truth := "false alarm"
		if sys.Fleet.Faulty(a.Unit, a.Sensor, a.Timestamp) {
			truth = "true fault"
		}
		fmt.Printf("example flag: unit %d sensor %d t=%d severity=%.1f (%s)\n",
			a.Unit, a.Sensor, a.Timestamp, a.Score, truth)
		return
	}
}
