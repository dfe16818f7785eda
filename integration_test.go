package repro

// Cross-module integration tests that don't fit a single package:
// the external-dataset path (CSV → detector).

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fdr"
	"repro/internal/hdfs"
	"repro/internal/ingest"
	"repro/internal/simdata"
)

// TestCSVDatasetEndToEnd exports a faulted fleet to the datagen CSV
// schema, loads it back through ingest.ReadCSV, trains on the healthy
// prefix and verifies the detector finds the injected faults — the
// workflow an external user with real telemetry follows.
func TestCSVDatasetEndToEnd(t *testing.T) {
	fleet := simdata.NewFleet(simdata.Config{
		Units: 4, SensorsPerUnit: 15, Seed: 31,
		FaultFraction: 0.9, FaultOnset: 120, ShiftSigma: 6, DriftPerStep: 0.08,
	})
	// Emit CSV exactly as cmd/datagen does.
	var buf bytes.Buffer
	buf.WriteString("timestamp,unit,sensor,value,faulty\n")
	for ts := int64(0); ts < 160; ts++ {
		for u := 0; u < fleet.Units(); u++ {
			for s := 0; s < fleet.Sensors(); s++ {
				faulty := 0
				if fleet.Faulty(u, s, ts) {
					faulty = 1
				}
				fmt.Fprintf(&buf, "%d,%d,%d,%g,%d\n", ts, u, s, fleet.Value(u, s, ts), faulty)
			}
		}
	}

	ds, err := ingest.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Sensors() != 15 || len(ds.Units()) != 4 {
		t.Fatalf("dataset shape %d sensors / %d units", ds.Sensors(), len(ds.Units()))
	}

	cat := &core.ModelCatalog{Store: &hdfs.Store{C: hdfs.NewCluster(), Prefix: "/detector/"}}
	src := core.WindowFunc(func(unit int) ([][]float64, error) {
		return ds.Window(unit, 0, 120) // healthy prefix
	})
	if _, err := core.TrainFleet(ds.Units(), src, cat, true); err != nil {
		t.Fatal(err)
	}

	tp, fp := 0, 0
	for _, u := range ds.Units() {
		m, err := cat.Load(u)
		if err != nil {
			t.Fatal(err)
		}
		det, err := core.NewMGDDetector(m, core.EvaluatorConfig{Procedure: fdr.BH, Level: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		xs, ts, err := ds.Observations(u, 140, 20)
		if err != nil {
			t.Fatal(err)
		}
		var out core.Detections
		if err := det.DetectBatchInto(xs, ts, &out); err != nil {
			t.Fatal(err)
		}
		for _, f := range out.Flags {
			if ds.Faulty(u, f.Sensor, ts[f.Row]) {
				tp++
			} else {
				fp++
			}
		}
	}
	if tp == 0 {
		t.Fatal("CSV dataset raised no true detections despite injected faults")
	}
	if fp > tp {
		t.Fatalf("false alarms (%d) exceed true detections (%d)", fp, tp)
	}
}
