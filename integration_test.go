package repro

// Cross-module integration tests that don't fit a single package:
// the external-dataset path (CSV → detector) and the scale-out path
// (grow the cluster, rebalance, keep serving).

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fdr"
	"repro/internal/hbase"
	"repro/internal/hdfs"
	"repro/internal/ingest"
	"repro/internal/simdata"
	"repro/internal/tsdb"
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

// TestScaleOutUnderLoad grows the storage tier mid-stream, rebalances,
// and verifies ingestion and reads keep working with the new server
// carrying traffic — §VI's first ongoing-work item end to end.
func TestScaleOutUnderLoad(t *testing.T) {
	cluster, err := hbase.NewCluster(hbase.Config{RegionServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	deploy, err := tsdb.NewDeployment(cluster, 2, tsdb.TSDConfig{SaltBuckets: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := deploy.CreateTable(); err != nil {
		t.Fatal(err)
	}
	tsd := deploy.TSDs()[0]
	put := func(from, to int64) {
		var pts []tsdb.Point
		for ts := from; ts < to; ts++ {
			for s := 0; s < 10; s++ {
				pts = append(pts, tsdb.EnergyPoint(1, s, ts, float64(ts)))
			}
		}
		if err := tsd.Put(pts); err != nil {
			t.Fatal(err)
		}
	}
	put(0, 30)

	rs3, err := cluster.AddRegionServer()
	if err != nil {
		t.Fatal(err)
	}
	m, err := cluster.ActiveMaster()
	if err != nil {
		t.Fatal(err)
	}
	moved, err := m.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("rebalance moved nothing onto the new server")
	}
	put(30, 60)

	// All data readable across the move; new server took writes.
	series, err := tsd.Query(tsdb.Query{Metric: tsdb.MetricEnergy, Tags: map[string]string{"unit": "1"}, Start: 0, End: 59})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, ser := range series {
		total += len(ser.Samples)
	}
	if total != 600 {
		t.Fatalf("read back %d samples, want 600", total)
	}
	deadline := time.Now().Add(time.Second)
	for rs3.CellsWritten.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("scaled-out server received no writes")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
