package sentinel

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/fdr"
	"repro/internal/ingest"
	"repro/internal/mllib"
	"repro/internal/simdata"
	"repro/internal/tsdb"
)

// TestDetectMatchesStreaming is the "serial ≡ parallel evaluation"
// contract on the one detection loop: the same fleet, the same trained
// models and the same range, scored by Detect over stored data, by a
// 1-worker pool fed through the bus and by a 4-worker pool, must store
// the identical flag set (unit, sensor, timestamp, value).
func TestDetectMatchesStreaming(t *testing.T) {
	const train, steps = 60, 20
	boot := func() *System {
		return newSmallSystem(t, func(c *Config) {
			c.Units = 6
			c.ShiftSigma = 8
			c.Partitions = 6
		})
	}
	ctx := context.Background()

	stored := boot()
	if _, err := stored.IngestRange(0, train+steps); err != nil {
		t.Fatal(err)
	}
	if err := stored.TrainFromTSDB(0, train, true); err != nil {
		t.Fatal(err)
	}
	flags, err := stored.Detect(train, steps)
	if err != nil {
		t.Fatal(err)
	}
	want := storedFlags(t, stored, train, train+steps-1)
	if len(want) == 0 {
		t.Fatal("Detect flagged nothing; the comparison is vacuous")
	}
	if got := flagKeys(flags); !slices.Equal(got, want) {
		t.Fatalf("Detect returned %d flags, storage holds %d", len(got), len(want))
	}
	// The stored value is |z| on every path; make sure the range holds a
	// flag where a signed z would have differed.
	below := false
	for _, a := range flags {
		m, err := stored.Catalog.Load(a.Unit)
		if err != nil {
			t.Fatal(err)
		}
		below = below || a.Value < m.Mean[a.Sensor]
	}
	if !below {
		t.Fatal("no flagged reading lies below its mean; a signed-z path would go unseen")
	}

	for _, workers := range []int{1, 4} {
		sys := boot()
		if _, err := sys.IngestRange(0, train); err != nil {
			t.Fatal(err)
		}
		for _, u := range stored.Units() { // the same models, not a retrain
			m, err := stored.Catalog.Load(u)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Catalog.Save(m); err != nil {
				t.Fatal(err)
			}
		}
		sys.AttachDetectorGroup()
		if _, err := sys.IngestRange(train, steps); err != nil {
			t.Fatal(err)
		}
		pool := sys.StartDetectors(workers)
		if err := pool.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		if pool.Errors.Value() != 0 {
			t.Fatalf("%d-worker pool hit %d errors", workers, pool.Errors.Value())
		}
		if got := storedFlags(t, sys, train, train+steps-1); !slices.Equal(got, want) {
			t.Fatalf("%d-worker pool stored %d flags, Detect stored %d; first difference: %s",
				workers, len(got), len(want), firstDiff(got, want))
		}
	}
}

// firstDiff names the first position two sorted key lists part at.
func firstDiff(got, want []string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return "got " + got[i] + ", want " + want[i]
		}
	}
	return "one list is a prefix of the other"
}

// scorerRig is the scorer without a storage tier: a simulated fleet
// with models trained straight off the generator, whose post-onset rows
// [800, 820) a NewDetectorPool scores off a private bus into a fake
// sink.
type scorerRig struct {
	fleet *simdata.Fleet
	cat   *core.ModelCatalog
	// faults, when set, is installed on the private bus.
	faults *faultinject.Injector
}

const (
	rigUnits, rigSensors = 8, 30
	rigFrom, rigSteps    = 800, 20
)

func newScorerRig(t *testing.T) *scorerRig {
	t.Helper()
	r := &scorerRig{
		fleet: simdata.NewFleet(simdata.Config{
			Units: rigUnits, SensorsPerUnit: rigSensors, Seed: 101,
			FaultFraction: 0.5, FaultOnset: 400, ShiftSigma: 6, DriftPerStep: 0.05,
		}),
		cat: &core.ModelCatalog{Store: core.NewMemStore()},
	}
	src := core.WindowFunc(func(unit int) ([][]float64, error) {
		return r.fleet.UnitWindow(unit, 0, 350), nil // predates onset
	})
	units := make([]int, rigUnits)
	for u := range units {
		units[u] = u
	}
	if _, err := core.TrainFleet(units, src, r.cat, true); err != nil {
		t.Fatal(err)
	}
	return r
}

// mgd builds a unit's detector from the rig's catalog.
func (r *scorerRig) mgd(_ string, unit int) (mllib.Detector, error) {
	m, err := r.cat.Load(unit)
	if err != nil {
		return nil, err
	}
	return core.NewMGDDetector(m, core.EvaluatorConfig{Procedure: fdr.BH, Level: 0.05})
}

// start publishes the rig's window and starts a 2-worker pool on it.
func (r *scorerRig) start(t *testing.T, sink core.AnomalySink) *DetectorPool {
	t.Helper()
	b := bus.New(bus.Config{Partitions: 4, PartitionBuffer: -1})
	t.Cleanup(b.Close)
	b.SetFaults(r.faults)
	topic := bus.LocalTopic{Topic: b.Topic(TopicEnergy)}
	group := topic.Group(GroupDetectors)
	if _, err := ingest.NewBusDriver(r.fleet, topic, ingest.DriverConfig{}).Run(rigFrom, rigSteps); err != nil {
		t.Fatal(err)
	}
	pool := NewDetectorPool(DetectorEnv{Sensors: rigSensors, Primary: "mgd", NewDetector: r.mgd, Sink: sink}, group, 2)
	t.Cleanup(pool.Stop)
	return pool
}

// window is one unit's rows of the rig's range, for calling the scorer
// directly.
func (r *scorerRig) window(unit int) ([][]float64, []int64) {
	ts := make([]int64, rigSteps)
	for i := range ts {
		ts[i] = rigFrom + int64(i)
	}
	return r.fleet.UnitWindow(unit, rigFrom, rigSteps), ts
}

func TestScorerEndToEndOnSimulatedFleet(t *testing.T) {
	r := newScorerRig(t)
	var mu sync.Mutex
	var written []core.Anomaly
	pool := r.start(t, core.AnomalySinkFunc(func(a core.Anomaly) error {
		mu.Lock()
		written = append(written, a)
		mu.Unlock()
		return nil
	}))
	if err := pool.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Score flags against ground truth: faulty units must dominate.
	var tp, fp int
	flagged := make(map[int]bool)
	for _, a := range written {
		flagged[a.Unit] = true
		if r.fleet.Faulty(a.Unit, a.Sensor, a.Timestamp) {
			tp++
		} else {
			fp++
		}
	}
	if tp == 0 {
		t.Fatal("scorer flagged no true faults")
	}
	if fp > tp {
		t.Fatalf("false alarms (%d) exceed true detections (%d)", fp, tp)
	}
	// Every faulty unit must raise at least one flag in the window.
	for u := 0; u < rigUnits; u++ {
		if r.fleet.UnitFault(u).Class != simdata.FaultNone && !flagged[u] {
			t.Fatalf("faulty unit %d raised no flags", u)
		}
	}
	if got := pool.SamplesEvaluated.Value(); got != rigUnits*rigSteps*rigSensors {
		t.Fatalf("SamplesEvaluated = %d", got)
	}
	if got := pool.AnomaliesWritten.Value(); got != int64(len(written)) {
		t.Fatalf("AnomaliesWritten = %d, sink saw %d", got, len(written))
	}
	if pool.Errors.Value() != 0 {
		t.Fatalf("pool hit %d errors", pool.Errors.Value())
	}
}

func TestScorerMissingModel(t *testing.T) {
	r := newScorerRig(t)
	r.cat = &core.ModelCatalog{Store: core.NewMemStore()} // nothing trained
	pool := r.start(t, core.AnomalySinkFunc(func(core.Anomaly) error {
		t.Error("flag written without a trained model")
		return nil
	}))
	if err := pool.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Every record is skipped and counted, none evaluated.
	if pool.Batches.Value() == 0 || pool.Errors.Value() != pool.Batches.Value() || pool.SamplesEvaluated.Value() != 0 {
		t.Fatalf("batches %d, errors %d, samples %d; want every record failed",
			pool.Batches.Value(), pool.Errors.Value(), pool.SamplesEvaluated.Value())
	}
	rows, ts := r.window(5)
	var sc detectorScratch
	if err := pool.score(context.Background(), 5, rows, ts, &sc); !errors.Is(err, core.ErrNotTrained) {
		t.Fatalf("err = %v, want ErrNotTrained", err)
	}
}

// TestScorerSinkErrors: a sink error that is not a transient storage
// fault fails the record (and the call); a transient one parks the
// worker until the write lands.
func TestScorerSinkErrors(t *testing.T) {
	r := newScorerRig(t)
	ctx := context.Background()

	down := errors.New("sink down")
	pool := r.start(t, core.AnomalySinkFunc(func(core.Anomaly) error { return down }))
	if err := pool.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if pool.Errors.Value() == 0 || pool.AnomaliesWritten.Value() != 0 || pool.Parks.Value() != 0 {
		t.Fatalf("errors %d, written %d, parks %d; want failed records, nothing written, no park",
			pool.Errors.Value(), pool.AnomaliesWritten.Value(), pool.Parks.Value())
	}
	faulty := 0
	for r.fleet.UnitFault(faulty).Class == simdata.FaultNone {
		faulty++
	}
	rows, ts := r.window(faulty)
	var sc detectorScratch
	if err := pool.score(ctx, faulty, rows, ts, &sc); !errors.Is(err, down) {
		t.Fatalf("err = %v, want the sink's error", err)
	}

	var healed atomic.Bool
	var landed atomic.Int64
	pool = r.start(t, core.AnomalySinkFunc(func(core.Anomaly) error {
		if !healed.Load() {
			return faultinject.ErrInjected
		}
		landed.Add(1)
		return nil
	}))
	for deadline := time.Now().Add(30 * time.Second); pool.Parks.Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no worker parked on the transient fault")
		}
		time.Sleep(time.Millisecond)
	}
	healed.Store(true)
	if err := pool.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if pool.Errors.Value() != 0 || landed.Load() == 0 || pool.AnomaliesWritten.Value() != landed.Load() || pool.Parked.Value() != 0 {
		t.Fatalf("errors %d, landed %d, written %d, parked %d; want every flag landed after the park",
			pool.Errors.Value(), landed.Load(), pool.AnomaliesWritten.Value(), pool.Parked.Value())
	}
}

// TestScorerRidesOutDroppedFetches: a worker whose poll fails on a
// dropped bus/fetch parks and resumes instead of ending, so once the
// fault clears the pool scores every published sample.
func TestScorerRidesOutDroppedFetches(t *testing.T) {
	r := newScorerRig(t)
	r.faults = faultinject.New(1)
	r.faults.Set("fetch", faultinject.Rule{Op: "bus/fetch/" + TopicEnergy, DropRate: 1})
	pool := r.start(t, core.AnomalySinkFunc(func(core.Anomaly) error { return nil }))
	time.Sleep(50 * time.Millisecond)
	r.faults.Clear("fetch")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := pool.Sync(ctx); err != nil {
		t.Fatalf("records left uncommitted after the fault cleared: %v", err)
	}
	if got := pool.SamplesEvaluated.Value(); got != rigUnits*rigSteps*rigSensors || pool.Errors.Value() != 0 {
		t.Fatalf("evaluated %d samples with %d errors, want %d and none", got, pool.Errors.Value(), rigUnits*rigSteps*rigSensors)
	}
	if pool.Parks.Value() == 0 || pool.Parked.Value() != 0 {
		t.Fatalf("parks %d, parked %d; want the workers parked on the fault and resumed", pool.Parks.Value(), pool.Parked.Value())
	}
}

// TestStreamingDetection drives the full bus pipeline: training data
// through the commit log into storage, models trained, then a live
// window published once more — consumed in parallel by the storage
// writers and the detector pool, which must evaluate every sample and
// write flags back to the "anomaly" metric.
func TestStreamingDetection(t *testing.T) {
	sys, err := New(Config{
		StorageNodes:   2,
		Units:          4,
		SensorsPerUnit: 12,
		Seed:           7,
		FaultFraction:  0.6,
		FaultOnset:     60,
		ShiftSigma:     8,
		Procedure:      fdr.BH,
		Partitions:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	if _, err := sys.IngestRange(0, 60); err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainFromTSDB(0, 60, true); err != nil {
		t.Fatal(err)
	}

	pool := sys.StartDetectors(2)
	const steps = 20
	stats, err := sys.IngestRange(60, steps)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(4 * 12 * steps)
	if stats.Samples != want {
		t.Fatalf("ingested %d samples, want %d", stats.Samples, want)
	}
	if err := pool.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The pool saw exactly the post-attach window, not the training
	// range it seeked past.
	if got := pool.SamplesEvaluated.Value(); got != want {
		t.Fatalf("pool evaluated %d samples, want %d", got, want)
	}
	if pool.Errors.Value() != 0 {
		t.Fatalf("pool hit %d errors", pool.Errors.Value())
	}
	if pool.AnomaliesWritten.Value() == 0 {
		t.Fatal("faulty fleet produced no flags through the streaming path")
	}
	// Flags are queryable from storage: the Figure 1 feedback edge.
	series, err := sys.TSDB.TSDs()[0].Query(tsdb.Query{
		Metric: tsdb.MetricAnomaly,
		Start:  60,
		End:    60 + steps,
	})
	if err != nil {
		t.Fatal(err)
	}
	flags := 0
	for _, s := range series {
		flags += len(s.Samples)
	}
	if int64(flags) != pool.AnomaliesWritten.Value() {
		t.Fatalf("storage holds %d flags, pool wrote %d", flags, pool.AnomaliesWritten.Value())
	}

	// Stopping the pool detaches its group: ingestion keeps flowing
	// without detector commits gating the window.
	pool.Stop()
	if _, err := sys.IngestRange(60+steps, 5); err != nil {
		t.Fatal(err)
	}
}

// TestDetectorPoolScalesMembers proves a worker crash mid-stream only
// rebalances: the surviving members take over the partitions and
// nothing published is lost (every sample evaluated at least once).
func TestDetectorPoolRebalanceKeepsEvaluating(t *testing.T) {
	sys, err := New(Config{
		StorageNodes:   2,
		Units:          6,
		SensorsPerUnit: 8,
		Seed:           11,
		Partitions:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.IngestRange(0, 40); err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainFromTSDB(0, 40, true); err != nil {
		t.Fatal(err)
	}
	pool := sys.StartDetectors(3)
	if _, err := sys.IngestRange(40, 10); err != nil {
		t.Fatal(err)
	}
	// Lose a member mid-stream: Leave redistributes its partitions.
	dg := pool.group.(bus.LocalGroup).Group
	gen := dg.Generation()
	pool.group.Join().Leave() // join/leave forces two rebalances
	if dg.Generation() == gen {
		t.Fatal("membership churn did not bump the generation")
	}
	if _, err := sys.IngestRange(50, 10); err != nil {
		t.Fatal(err)
	}
	if err := pool.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	// At-least-once: every published sample evaluated one or more
	// times (redelivery across the rebalance may add duplicates).
	want := int64(6 * 8 * 20)
	if got := pool.SamplesEvaluated.Value(); got < want {
		t.Fatalf("pool evaluated %d samples, want >= %d", got, want)
	}
}

// TestDetectorPoolResize drives the autoscaler's lever directly: grow
// the pool mid-stream (new members join, the group rebalances onto
// them), shrink it back below the start (tail workers retire after
// their in-flight poll), and verify at-least-once evaluation holds
// across both transitions.
func TestDetectorPoolResize(t *testing.T) {
	sys, err := New(Config{
		StorageNodes:   2,
		Units:          6,
		SensorsPerUnit: 8,
		Seed:           13,
		Partitions:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.IngestRange(0, 40); err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainFromTSDB(0, 40, true); err != nil {
		t.Fatal(err)
	}
	pool := sys.StartDetectors(2)
	if got := pool.Workers(); got != 2 {
		t.Fatalf("Workers() = %d, want 2", got)
	}

	if _, err := sys.IngestRange(40, 10); err != nil {
		t.Fatal(err)
	}
	pool.Resize(4)
	if got := pool.Workers(); got != 4 {
		t.Fatalf("after grow Workers() = %d, want 4", got)
	}
	if _, err := sys.IngestRange(50, 10); err != nil {
		t.Fatal(err)
	}
	pool.Resize(1)
	if got := pool.Workers(); got != 1 {
		t.Fatalf("after shrink Workers() = %d, want 1", got)
	}
	if _, err := sys.IngestRange(60, 10); err != nil {
		t.Fatal(err)
	}
	if err := pool.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	// At-least-once across both rebalances.
	want := int64(6 * 8 * 30)
	if got := pool.SamplesEvaluated.Value(); got < want {
		t.Fatalf("pool evaluated %d samples, want >= %d", got, want)
	}

	// Resize clamps to one worker and goes quiet after Stop.
	pool.Resize(0)
	if got := pool.Workers(); got != 1 {
		t.Fatalf("Resize(0) left Workers() = %d, want clamp to 1", got)
	}
	pool.Stop()
	pool.Resize(3)
	if got := pool.Workers(); got != 0 {
		t.Fatalf("Resize after Stop left Workers() = %d, want 0", got)
	}
}
