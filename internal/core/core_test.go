package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/fdr"
	"repro/internal/linalg"
	"repro/internal/simdata"
)

func newEngine(t *testing.T) *dataflow.Engine {
	t.Helper()
	e := dataflow.NewEngine(4)
	t.Cleanup(e.Close)
	return e
}

// gaussianWindow builds rows of independent N(mean_j, sigma_j²) noise.
func gaussianWindow(rng *rand.Rand, rows, sensors int, mean, sigma []float64) [][]float64 {
	out := make([][]float64, rows)
	for i := range out {
		r := make([]float64, sensors)
		for j := range r {
			r[j] = mean[j] + sigma[j]*rng.NormFloat64()
		}
		out[i] = r
	}
	return out
}

func constVec(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestTrainUnitRecoversMoments(t *testing.T) {
	eng := newEngine(t)
	rng := rand.New(rand.NewSource(51))
	const sensors, rows = 12, 3000
	mean := make([]float64, sensors)
	sigma := make([]float64, sensors)
	for j := range mean {
		mean[j] = float64(j) * 10
		sigma[j] = 1 + float64(j%3)
	}
	window := gaussianWindow(rng, rows, sensors, mean, sigma)
	tr := NewTrainer(eng, TrainerConfig{})
	m, err := tr.TrainUnit(7, window)
	if err != nil {
		t.Fatal(err)
	}
	if m.Unit != 7 || m.Sensors != sensors || m.TrainedRows != rows {
		t.Fatalf("model metadata wrong: %+v", m)
	}
	for j := 0; j < sensors; j++ {
		if math.Abs(m.Mean[j]-mean[j]) > 0.15 {
			t.Fatalf("sensor %d mean = %v, want ≈%v", j, m.Mean[j], mean[j])
		}
		if math.Abs(m.Sigma[j]-sigma[j]) > 0.15*sigma[j] {
			t.Fatalf("sensor %d sigma = %v, want ≈%v", j, m.Sigma[j], sigma[j])
		}
	}
	if m.K < 1 || m.K > 10 {
		t.Fatalf("K = %d out of range", m.K)
	}
}

func TestTrainUnitErrors(t *testing.T) {
	eng := newEngine(t)
	tr := NewTrainer(eng, TrainerConfig{})
	if _, err := tr.TrainUnit(0, nil); err == nil {
		t.Fatal("empty window must error")
	}
	if _, err := tr.TrainUnit(0, [][]float64{{1, 2}}); err == nil {
		t.Fatal("single-row window must error")
	}
}

func TestModelEncodeDecodeRoundTrip(t *testing.T) {
	eng := newEngine(t)
	rng := rand.New(rand.NewSource(52))
	window := gaussianWindow(rng, 200, 5, constVec(5, 3), constVec(5, 1))
	tr := NewTrainer(eng, TrainerConfig{})
	m, err := tr.TrainUnit(3, window)
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := DecodeModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Unit != 3 || m2.K != m.K || m2.Sensors != 5 {
		t.Fatal("round trip lost metadata")
	}
	if m2.Components.MaxAbsDiff(m.Components) != 0 {
		t.Fatal("round trip changed components")
	}
	if _, err := DecodeModel([]byte("garbage")); err == nil {
		t.Fatal("garbage must fail to decode")
	}
}

func TestModelValidate(t *testing.T) {
	good := &Model{
		Unit: 1, Sensors: 2, Mean: []float64{0, 0}, Sigma: []float64{1, 1},
		Eigenvalues: []float64{1}, Components: linalg.NewMatrix(2, 1), K: 1,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *good
	bad.Sigma = []float64{1}
	if err := bad.Validate(); err == nil {
		t.Fatal("short sigma must fail")
	}
	bad2 := *good
	bad2.K = 5
	if err := bad2.Validate(); err == nil {
		t.Fatal("K > components must fail")
	}
	bad3 := *good
	bad3.Sigma = []float64{1, math.NaN()}
	if err := bad3.Validate(); err == nil {
		t.Fatal("NaN sigma must fail")
	}
}

func TestStoresRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, store := range []BlobStore{NewMemStore(), ds} {
		if err := store.Put("models/unit-1", []byte("abc")); err != nil {
			t.Fatal(err)
		}
		got, err := store.Get("models/unit-1")
		if err != nil || string(got) != "abc" {
			t.Fatalf("get = %q, %v", got, err)
		}
		if _, err := store.Get("missing"); err == nil {
			t.Fatal("missing blob must error")
		}
		names, err := store.List("models/")
		if err != nil || len(names) != 1 || names[0] != "models/unit-1" {
			t.Fatalf("list = %v, %v", names, err)
		}
	}
}

func TestCatalogSaveLoadUnits(t *testing.T) {
	eng := newEngine(t)
	rng := rand.New(rand.NewSource(53))
	tr := NewTrainer(eng, TrainerConfig{})
	cat := &ModelCatalog{Store: NewMemStore()}
	for _, u := range []int{4, 2, 9} {
		window := gaussianWindow(rng, 100, 3, constVec(3, 0), constVec(3, 1))
		m, err := tr.TrainUnit(u, window)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.Save(m); err != nil {
			t.Fatal(err)
		}
	}
	units, err := cat.Units()
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 3 || units[0] != 2 || units[2] != 9 {
		t.Fatalf("units = %v, want [2 4 9]", units)
	}
	m, err := cat.Load(4)
	if err != nil || m.Unit != 4 {
		t.Fatalf("load(4) = %+v, %v", m, err)
	}
	if _, err := cat.Load(77); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("missing model error = %v, want ErrNotTrained", err)
	}
}

func TestEvaluatorFlagsInjectedShift(t *testing.T) {
	eng := newEngine(t)
	rng := rand.New(rand.NewSource(54))
	const sensors = 50
	mean := constVec(sensors, 10)
	sigma := constVec(sensors, 2)
	tr := NewTrainer(eng, TrainerConfig{})
	m, err := tr.TrainUnit(0, gaussianWindow(rng, 2000, sensors, mean, sigma))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(m, EvaluatorConfig{Procedure: fdr.BH, Level: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// Healthy observation: (almost) nothing should be flagged.
	healthy := make([]float64, sensors)
	for j := range healthy {
		healthy[j] = mean[j] + sigma[j]*rng.NormFloat64()
	}
	rep, err := ev.Evaluate(healthy, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Flags) > 2 {
		t.Fatalf("healthy observation raised %d flags", len(rep.Flags))
	}
	// Shift three sensors by 6σ: they must all be flagged, and T² must
	// explode relative to the healthy value.
	shifted := append([]float64(nil), healthy...)
	for _, j := range []int{5, 6, 7} {
		shifted[j] = mean[j] + 6*sigma[j]
	}
	rep2, err := ev.Evaluate(shifted, 101)
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[int]bool{}
	for _, f := range rep2.Flags {
		flagged[f.Sensor] = true
	}
	for _, j := range []int{5, 6, 7} {
		if !flagged[j] {
			t.Fatalf("sensor %d (6σ shift) not flagged; flags=%v", j, rep2.Flags)
		}
	}
	if !rep2.Anomalous() {
		t.Fatal("report must be anomalous")
	}
	for _, f := range rep2.Flags {
		if f.Adjusted > 0.05+1e-9 {
			t.Fatalf("flag with adjusted p %v above level", f.Adjusted)
		}
	}
}

func TestEvaluatorBatchMatchesSingle(t *testing.T) {
	eng := newEngine(t)
	rng := rand.New(rand.NewSource(55))
	const sensors = 20
	tr := NewTrainer(eng, TrainerConfig{})
	m, err := tr.TrainUnit(0, gaussianWindow(rng, 500, sensors, constVec(sensors, 0), constVec(sensors, 1)))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(m, EvaluatorConfig{Procedure: fdr.BH})
	if err != nil {
		t.Fatal(err)
	}
	xs := gaussianWindow(rng, 8, sensors, constVec(sensors, 0), constVec(sensors, 1))
	ts := make([]int64, 8)
	for i := range ts {
		ts[i] = int64(i)
	}
	batch, err := ev.EvaluateBatch(xs, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		single, err := ev.Evaluate(x, ts[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(single.T2-batch[i].T2) > 1e-9 {
			t.Fatalf("batch T² differs from single at row %d", i)
		}
		for j := range single.PValues {
			if single.PValues[j] != batch[i].PValues[j] {
				t.Fatalf("batch p-values differ at row %d sensor %d", i, j)
			}
		}
	}
}

func TestEvaluatorInputValidation(t *testing.T) {
	eng := newEngine(t)
	rng := rand.New(rand.NewSource(56))
	tr := NewTrainer(eng, TrainerConfig{})
	m, err := tr.TrainUnit(0, gaussianWindow(rng, 100, 4, constVec(4, 0), constVec(4, 1)))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(m, EvaluatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Evaluate([]float64{1, 2}, 0); err == nil {
		t.Fatal("wrong width must error")
	}
	if _, err := ev.EvaluateBatch([][]float64{{1, 2, 3, 4}}, []int64{1, 2}); err == nil {
		t.Fatal("timestamp mismatch must error")
	}
	if out, err := ev.EvaluateBatch(nil, nil); err != nil || out != nil {
		t.Fatal("empty batch must return nil, nil")
	}
	if _, err := NewEvaluator(nil, EvaluatorConfig{}); !errors.Is(err, ErrNotTrained) {
		t.Fatal("nil model must be ErrNotTrained")
	}
	if ev.Model() != m {
		t.Fatal("Model accessor wrong")
	}
}

// fleetSource adapts a simdata.Fleet to WindowSource.
type fleetSource struct {
	fleet *simdata.Fleet
	rows  int
}

func (fs *fleetSource) TrainingWindow(unit int) ([][]float64, error) {
	return fs.fleet.UnitWindow(unit, 0, fs.rows), nil
}

func TestTrainFleetSerialAndConcurrentAgree(t *testing.T) {
	eng := newEngine(t)
	fleet := simdata.NewFleet(simdata.Config{Units: 6, SensorsPerUnit: 15, Seed: 99, FaultOnset: 500})
	src := &fleetSource{fleet: fleet, rows: 300}
	units := []int{0, 1, 2, 3, 4, 5}
	tr := NewTrainer(eng, TrainerConfig{})

	serial, err := tr.TrainFleet(units, src, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	concurrent, err := tr.TrainFleet(units, src, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 6 || len(concurrent) != 6 {
		t.Fatal("fleet training missing units")
	}
	for _, u := range units {
		a, b := serial[u], concurrent[u]
		for j := range a.Mean {
			if a.Mean[j] != b.Mean[j] {
				t.Fatalf("unit %d means differ between serial and concurrent", u)
			}
		}
		if a.K != b.K {
			t.Fatalf("unit %d K differs", u)
		}
	}
}

func TestTrainFleetSavesToCatalog(t *testing.T) {
	eng := newEngine(t)
	fleet := simdata.NewFleet(simdata.Config{Units: 3, SensorsPerUnit: 10, Seed: 100, FaultOnset: 500})
	src := &fleetSource{fleet: fleet, rows: 200}
	cat := &ModelCatalog{Store: NewMemStore()}
	tr := NewTrainer(eng, TrainerConfig{})
	if _, err := tr.TrainFleet([]int{0, 1, 2}, src, cat, true); err != nil {
		t.Fatal(err)
	}
	units, err := cat.Units()
	if err != nil || len(units) != 3 {
		t.Fatalf("catalog units = %v, %v", units, err)
	}
}

func TestTrainFleetPropagatesSourceError(t *testing.T) {
	eng := newEngine(t)
	tr := NewTrainer(eng, TrainerConfig{})
	src := WindowFunc(func(unit int) ([][]float64, error) {
		return nil, errors.New("boom")
	})
	if _, err := tr.TrainFleet([]int{1}, src, nil, false); err == nil {
		t.Fatal("serial training must propagate source errors")
	}
	if _, err := tr.TrainFleet([]int{1}, src, nil, true); err == nil {
		t.Fatal("concurrent training must propagate source errors")
	}
}
