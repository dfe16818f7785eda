package sentinel

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	v1 "repro/internal/api/v1"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/fdr"
	"repro/internal/query"
	"repro/internal/simdata"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// newSmallSystem boots a laptop-scale deployment with aggressive
// faults so the integration paths all fire.
func newSmallSystem(t *testing.T, mods ...func(*Config)) *System {
	t.Helper()
	cfg := Config{
		StorageNodes:   2,
		Units:          4,
		SensorsPerUnit: 12,
		Seed:           7,
		FaultFraction:  0.6,
		FaultOnset:     60,
		Procedure:      fdr.BH,
	}
	for _, mod := range mods {
		mod(&cfg)
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

// metricValue reads one figure off the node's /api/v1/metrics surface.
func metricValue(t *testing.T, h http.Handler, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(do(h, "GET", "/api/v1/metrics", "", "").Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("metric line %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("metric %q not on /api/v1/metrics", name)
	return 0
}

// storedFlags reads the "anomaly" metric back over [from, to] as sorted
// "unit/sensor/timestamp/value" keys: the flag set storage holds.
func storedFlags(t *testing.T, sys *System, from, to int64) []string {
	t.Helper()
	series, err := sys.TSDB.TSDs()[0].Query(tsdb.Query{Metric: tsdb.MetricAnomaly, Start: from, End: to})
	if err != nil && !errors.Is(err, tsdb.ErrNoSuchMetric) { // no flag ever written
		t.Fatal(err)
	}
	var keys []string
	for _, ser := range series {
		for _, smp := range ser.Samples {
			keys = append(keys, fmt.Sprintf("%s/%s/%d/%v", ser.Tags["unit"], ser.Tags["sensor"], smp.Timestamp, smp.Value))
		}
	}
	sort.Strings(keys)
	return keys
}

// flagKeys renders flags the way storedFlags renders stored ones.
func flagKeys(flags []core.Anomaly) []string {
	keys := make([]string, len(flags))
	for i, a := range flags {
		keys[i] = fmt.Sprintf("%d/%d/%d/%v", a.Unit, a.Sensor, a.Timestamp, a.Z)
	}
	sort.Strings(keys)
	return keys
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.StorageNodes != 3 || cfg.SaltBuckets != 3 || cfg.Units != 10 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.Procedure != fdr.BH || cfg.Level != 0.05 {
		t.Fatal("detection defaults wrong")
	}
	if c := (Config{SaltBuckets: -1}).withDefaults(); c.SaltBuckets != 0 {
		t.Fatal("SaltBuckets=-1 must disable salting")
	}
}

func TestEndToEndIngestTrainDetectVisualize(t *testing.T) {
	sys := newSmallSystem(t, func(c *Config) { c.ShadowDetectors = []string{"cusum"} })

	// Ingest 100 steps: 50 healthy (training) + post-onset faults.
	stats, err := sys.IngestRange(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	wantSamples := int64(4 * 12 * 100)
	if stats.Samples != wantSamples {
		t.Fatalf("ingested %d samples, want %d", stats.Samples, wantSamples)
	}
	if got := sys.TSDB.PointsWritten(); got != wantSamples {
		t.Fatalf("TSD tier saw %d points, want %d", got, wantSamples)
	}

	// Train from the stored healthy window, concurrently (E7 mode).
	if err := sys.TrainFromTSDB(0, 50, true); err != nil {
		t.Fatal(err)
	}
	units, err := sys.Catalog.Units()
	if err != nil || len(units) != 4 {
		t.Fatalf("catalog units = %v, %v", units, err)
	}

	// The gateway, like production; its tail is attached before Detect
	// runs, so the flags are also published on the live feed.
	handler, tail := sys.Gateway(100, GatewayConfig{AccessLog: log.New(io.Discard, "", 0)})
	defer tail.Close()

	// Detect over the post-onset window.
	flags, err := sys.Detect(80, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSortedFunc(flags, func(a, b core.Anomaly) int {
		return cmp.Or(cmp.Compare(a.Unit, b.Unit), cmp.Compare(a.Timestamp, b.Timestamp), cmp.Compare(a.Sensor, b.Sensor))
	}) {
		t.Fatal("Detect's flags are not ordered by unit, timestamp, sensor")
	}
	// Detect's work shows on the node's own surfaces, exactly.
	if got := metricValue(t, handler, "samples_evaluated"); got != 4*12*20 {
		t.Fatalf("samples_evaluated = %d, want %d", got, 4*12*20)
	}
	if got := metricValue(t, handler, "anomalies_written"); got != int64(len(flags)) {
		t.Fatalf("anomalies_written = %d, Detect returned %d flags", got, len(flags))
	}
	if got := sys.feeder.FlagsPublished.Value(); got != int64(len(flags)) {
		t.Fatalf("published %d flags on the feed with a tail attached, want %d", got, len(flags))
	}
	if got, want := storedFlags(t, sys, 80, 99), flagKeys(flags); !slices.Equal(got, want) {
		t.Fatalf("storage holds %d flags, Detect returned %d", len(got), len(want))
	}
	// Every faulted unit should have flags.
	flagged := make(map[int]bool)
	for _, a := range flags {
		if a.Detector != "mgd" || a.Z != a.Score || a.Z < 0 {
			t.Fatalf("flag %+v: want detector mgd and Z = Score = |z|", a)
		}
		flagged[a.Unit] = true
	}
	faulty := 0
	for _, u := range sys.Units() {
		if sys.Fleet.UnitFault(u).Class == simdata.FaultNone {
			continue
		}
		faulty++
		if !flagged[u] {
			t.Fatalf("faulty unit %d raised no flags", u)
		}
	}
	if faulty == 0 {
		t.Fatal("test fleet has no faulty units; raise FaultFraction")
	}

	// The shadow family saw Detect's batches.
	if err := sys.feeder.DrainShadows(context.Background()); err != nil {
		t.Fatal(err)
	}
	var ds v1.DetectorsResponse
	if err := json.Unmarshal(do(handler, "GET", "/api/v1/detectors", "", "").Body.Bytes(), &ds); err != nil {
		t.Fatal(err)
	}
	// The ensemble's configuration is the registry's own, read from an
	// instance it builds.
	if got := ds.Ensemble; strings.Join(got.Members, "+") != "cusum+zscore+iforest" || got.MinVotes != 2 {
		t.Fatalf("detectors report the ensemble as %+v", got)
	}
	for _, d := range ds.Detectors {
		switch {
		case d.Name == "mgd" && (d.Mode != "primary" || d.Flags != int64(len(flags))):
			t.Fatalf("detectors report for the primary = %+v, want %d flags", d, len(flags))
		case d.Name == "cusum" && (d.Mode != "shadow" || d.Agreements+d.Disagreements == 0):
			t.Fatalf("shadow never compared a row Detect flagged: %+v", d)
		}
	}

	// The visualization must surface the flags (Figure 3 path).
	req := httptest.NewRequest("GET", "/?from=80&to=100", nil)
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("fleet page status = %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "statusbar") {
		t.Fatal("fleet page missing status bar")
	}
	if !strings.Contains(body, "warning") && !strings.Contains(body, "critical") {
		t.Fatal("fleet page shows no unhealthy units despite flags")
	}
}

func TestTrainFromFleetMatchesTSDBPath(t *testing.T) {
	sys := newSmallSystem(t)
	if _, err := sys.IngestRange(0, 50); err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainFromTSDB(0, 50, false); err != nil {
		t.Fatal(err)
	}
	mTSDB, err := sys.Catalog.Load(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainFromFleet(0, 50, false); err != nil {
		t.Fatal(err)
	}
	mFleet, err := sys.Catalog.Load(0)
	if err != nil {
		t.Fatal(err)
	}
	// The TSDB round trip must preserve the data exactly, so the two
	// models agree to floating-point equality.
	for j := range mTSDB.Mean {
		if mTSDB.Mean[j] != mFleet.Mean[j] {
			t.Fatalf("sensor %d mean differs: %v vs %v", j, mTSDB.Mean[j], mFleet.Mean[j])
		}
	}
}

// TestDetectWithoutTrainingFails pins Detect's contract on untrained
// units: it scores the whole fleet, not the catalog's entries, so under
// "mgd" an untrained unit fails the call with nothing written, and a
// model-free primary needs no catalog at all.
func TestDetectWithoutTrainingFails(t *testing.T) {
	sys := newSmallSystem(t)
	if _, err := sys.IngestRange(0, 10); err != nil {
		t.Fatal(err)
	}
	flags, err := sys.Detect(0, 5)
	if !errors.Is(err, core.ErrNotTrained) {
		t.Fatalf("Detect without models = %v, want core.ErrNotTrained", err)
	}
	if len(flags) != 0 || sys.feeder.AnomaliesWritten.Value() != 0 || len(storedFlags(t, sys, 0, 10)) != 0 {
		t.Fatalf("untrained Detect wrote flags: returned %d, counted %d", len(flags), sys.feeder.AnomaliesWritten.Value())
	}

	free := newSmallSystem(t, func(c *Config) { c.PrimaryDetector = "zscore" })
	if _, err := free.IngestRange(0, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := free.Detect(0, 100); err != nil {
		t.Fatalf("model-free primary with an empty catalog: %v", err)
	}
	if got := free.feeder.SamplesEvaluated.Value(); got != 4*12*100 {
		t.Fatalf("zscore evaluated %d samples, want %d", got, 4*12*100)
	}
}

// TestDetectPropagatesUnitErrors: one unit's failure (a corrupt model)
// surfaces through the per-worker fan-out and fails the whole call
// before anything is written.
func TestDetectPropagatesUnitErrors(t *testing.T) {
	sys := newSmallSystem(t)
	if _, err := sys.IngestRange(0, 80); err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainFromTSDB(0, 50, true); err != nil {
		t.Fatal(err)
	}
	data, err := (&core.Model{Unit: 1, Sensors: 12}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Catalog.Store.Put("models/unit-1", data); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Detect(60, 20); err == nil {
		t.Fatal("corrupt model must fail the fleet evaluation")
	}
	if got := sys.feeder.AnomaliesWritten.Value(); got != 0 {
		t.Fatalf("failed Detect wrote %d flags", got)
	}
}

// TestDetectParksOnTransientStorageFault: Detect rides out a storage
// blackout the way a pool worker does — parked, retrying, then done —
// instead of failing on the first refused write.
func TestDetectParksOnTransientStorageFault(t *testing.T) {
	sys := newSmallSystem(t)
	if _, err := sys.IngestRange(0, 80); err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainFromTSDB(0, 50, true); err != nil {
		t.Fatal(err)
	}
	handler, tail := sys.Gateway(80, GatewayConfig{AccessLog: log.New(io.Discard, "", 0)})
	defer tail.Close()
	inj := faultinject.New(1)
	sys.SetFaults(inj)
	inj.Set("blackout-put", faultinject.Rule{Op: "tsdb/put/", ErrorRate: 1})

	type result struct {
		flags []core.Anomaly
		err   error
	}
	done := make(chan result, 1)
	go func() {
		flags, err := sys.Detect(60, 20)
		done <- result{flags, err}
	}()
	deadline := time.Now().Add(30 * time.Second)
	for metricValue(t, handler, "detector_parks") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("Detect never parked on the storage fault")
		}
		time.Sleep(time.Millisecond)
	}
	inj.Clear("blackout-put")
	res := <-done
	if res.err != nil {
		t.Fatalf("Detect across a transient storage fault = %v, want nil", res.err)
	}
	if len(res.flags) == 0 {
		t.Fatal("faulty fleet produced no flags; the park was never exercised")
	}
	if got, want := storedFlags(t, sys, 60, 79), flagKeys(res.flags); !slices.Equal(got, want) {
		t.Fatalf("storage holds %d flags after the blackout, Detect returned %d", len(got), len(want))
	}
	if parked := metricValue(t, handler, "detector_parked"); parked != 0 {
		t.Fatalf("detector_parked = %d after Detect returned", parked)
	}
}

func TestUnitsAccessor(t *testing.T) {
	sys := newSmallSystem(t)
	units := sys.Units()
	if len(units) != 4 || units[3] != 3 {
		t.Fatalf("units = %v", units)
	}
	if sys.Config().Units != 4 {
		t.Fatal("Config accessor wrong")
	}
}

func TestStorageTierThroughSystem(t *testing.T) {
	// End-to-end over the public surface: ingest two hours through the
	// bus and proxy, seal the closed hour with a manual maintenance
	// pass, and check queries and metrics see the compressed tier.
	sys, err := New(Config{
		StorageNodes:   2,
		Units:          2,
		SensorsPerUnit: 3,
		Seed:           7,
		HotBlockBytes:  -1, // spill every sealed block
		RawTTL:         0,  // keep everything
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)

	// Two sparse "hours": a burst at the start of each, so the ingest
	// stays fast but the row bases span a seal boundary.
	if _, err := sys.IngestRange(0, 30); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.IngestRange(3600, 30); err != nil {
		t.Fatal(err)
	}
	if err := sys.CompactNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if sys.Blocks.BlocksSealed.Value() == 0 {
		t.Fatal("maintenance pass sealed nothing")
	}
	if sys.Blocks.BlocksSpilled.Value() == 0 {
		t.Fatal("negative budget must spill sealed blocks")
	}

	// The gateway's query engine reads sealed + hot tiers seamlessly.
	engine := sys.QueryEngine(query.Config{MaxEntries: -1})
	series, err := engine.QueryContext(context.Background(), tsdb.Query{
		Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(1, 1), Start: 0, End: 3700,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || len(series[0].Samples) != 60 {
		t.Fatalf("query over sealed+hot = %d series / %d samples, want 1 / 60",
			len(series), len(series[0].Samples))
	}

	// The new counters are on the metrics surface.
	reg := telemetry.NewRegistry()
	sys.RegisterMetrics(reg)
	dump := reg.Dump()
	for _, name := range []string{"blocks_sealed", "blocks_spilled", "spill_reads", "rollup_serves", "compactor_passes"} {
		if !strings.Contains(dump, name) {
			t.Fatalf("metric %q missing from /metrics:\n%s", name, dump)
		}
	}
}
