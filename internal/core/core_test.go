package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fdr"
	"repro/internal/hdfs"
	"repro/internal/linalg"
	"repro/internal/simdata"
)

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
	rng := rand.New(rand.NewSource(51))
	const sensors, rows = 12, 3000
	mean := make([]float64, sensors)
	sigma := make([]float64, sensors)
	for j := range mean {
		mean[j] = float64(j) * 10
		sigma[j] = 1 + float64(j%3)
	}
	window := gaussianWindow(rng, rows, sensors, mean, sigma)
	m, err := TrainUnit(7, window)
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
	if _, err := TrainUnit(0, nil); err == nil {
		t.Fatal("empty window must error")
	}
	if _, err := TrainUnit(0, [][]float64{{1, 2}}); err == nil {
		t.Fatal("single-row window must error")
	}
}

// TestTrainUnitLargeOffset: channels whose spread is tiny next to their
// level keep their σ, because the covariance is centred before it is
// summed rather than recovered as XᵀX − n·μμᵀ.
func TestTrainUnitLargeOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	const sigma = 1e-3
	window := gaussianWindow(rng, 2000, 3, []float64{1e5, 1e6, 1e7}, constVec(3, sigma))
	m, err := TrainUnit(0, window)
	if err != nil {
		t.Fatal(err)
	}
	for j, s := range m.Sigma {
		if math.Abs(s-sigma) > 0.1*sigma {
			t.Errorf("sensor %d sigma = %.3g, want %.3g within 10%%", j, s, sigma)
		}
	}
}

// TestTrainUnitSigmaIsCovarianceDiagonal: σ_i is √cov_ii exactly,
// floored at minSigma, so a constant channel gets the floor.
func TestTrainUnitSigmaIsCovarianceDiagonal(t *testing.T) {
	window := gaussianWindow(rand.New(rand.NewSource(59)), 256, 40, constVec(40, 3), constVec(40, 2))
	for _, row := range window {
		row[17] = 5
	}
	m, err := TrainUnit(0, window)
	if err != nil {
		t.Fatal(err)
	}
	x, err := linalg.FromRows(window)
	if err != nil {
		t.Fatal(err)
	}
	cov, _, err := x.Covariance()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range m.Sigma {
		if want := math.Sqrt(max(cov.At(i, i), minSigma*minSigma)); s != want {
			t.Fatalf("sensor %d: σ = %v, want √max(cov_ii, minSigma²) = %v", i, s, want)
		}
	}
	if m.Sigma[17] != minSigma {
		t.Fatalf("constant sensor σ = %v, want the floor %v", m.Sigma[17], minSigma)
	}
}

// TestTrainUnitIndependentOfProcs: a model is bit-identical whatever
// GOMAXPROCS trained it.
func TestTrainUnitIndependentOfProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	window := gaussianWindow(rand.New(rand.NewSource(58)), 256, 50, constVec(50, 3), constVec(50, 1))
	var want []byte
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		m, err := TrainUnit(0, window)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("GOMAXPROCS=%d trained a different model than GOMAXPROCS=1", procs)
		}
	}
}

// TestTrainRaggedWindowErrors: a window whose rows differ in length is
// an error from TrainUnit and from both TrainFleet modes, not a panic.
func TestTrainRaggedWindowErrors(t *testing.T) {
	ragged := [][]float64{{1, 2}, {3, 4}, {5}}
	if _, err := TrainUnit(0, ragged); !errors.Is(err, linalg.ErrShape) {
		t.Fatalf("TrainUnit on a ragged window: err = %v, want ErrShape", err)
	}
	src := WindowFunc(func(int) ([][]float64, error) { return ragged, nil })
	for _, concurrent := range []bool{false, true} {
		if _, err := TrainFleet([]int{0, 1, 2}, src, nil, concurrent); !errors.Is(err, linalg.ErrShape) {
			t.Fatalf("TrainFleet(concurrent=%v) on a ragged window: err = %v, want ErrShape", concurrent, err)
		}
	}
}

func TestModelEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	window := gaussianWindow(rng, 200, 5, constVec(5, 3), constVec(5, 1))
	m, err := TrainUnit(3, window)
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

// TestStoresRoundTrip holds the catalog's model store to the BlobStore
// contract: a put reads back and is not changed by the caller's later
// writes to its slice, a missing blob is an error, and List names the
// blobs under a prefix.
func TestStoresRoundTrip(t *testing.T) {
	var store BlobStore = modelStore()
	data := []byte("abc")
	if err := store.Put("models/unit-1", data); err != nil {
		t.Fatal(err)
	}
	data[0] = 'x'
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

func TestCatalogSaveLoadUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	cat := &ModelCatalog{Store: modelStore()}
	for _, u := range []int{4, 2, 9} {
		window := gaussianWindow(rng, 100, 3, constVec(3, 0), constVec(3, 1))
		m, err := TrainUnit(u, window)
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
	rng := rand.New(rand.NewSource(54))
	const sensors = 50
	mean := constVec(sensors, 10)
	sigma := constVec(sensors, 2)
	m, err := TrainUnit(0, gaussianWindow(rng, 2000, sensors, mean, sigma))
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
	rng := rand.New(rand.NewSource(55))
	const sensors = 20
	m, err := TrainUnit(0, gaussianWindow(rng, 500, sensors, constVec(sensors, 0), constVec(sensors, 1)))
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
	rng := rand.New(rand.NewSource(56))
	m, err := TrainUnit(0, gaussianWindow(rng, 100, 4, constVec(4, 0), constVec(4, 1)))
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
	fleet := simdata.NewFleet(simdata.Config{Units: 6, SensorsPerUnit: 15, Seed: 99, FaultOnset: 500})
	src := &fleetSource{fleet: fleet, rows: 300}
	units := []int{0, 1, 2, 3, 4, 5}

	serial, err := TrainFleet(units, src, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	concurrent, err := TrainFleet(units, src, nil, true)
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
	fleet := simdata.NewFleet(simdata.Config{Units: 3, SensorsPerUnit: 10, Seed: 100, FaultOnset: 500})
	src := &fleetSource{fleet: fleet, rows: 200}
	cat := &ModelCatalog{Store: modelStore()}
	if _, err := TrainFleet([]int{0, 1, 2}, src, cat, true); err != nil {
		t.Fatal(err)
	}
	units, err := cat.Units()
	if err != nil || len(units) != 3 {
		t.Fatalf("catalog units = %v, %v", units, err)
	}
}

func TestTrainFleetPropagatesSourceError(t *testing.T) {
	src := WindowFunc(func(unit int) ([][]float64, error) {
		return nil, errors.New("boom")
	})
	if _, err := TrainFleet([]int{1}, src, nil, false); err == nil {
		t.Fatal("serial training must propagate source errors")
	}
	if _, err := TrainFleet([]int{1}, src, nil, true); err == nil {
		t.Fatal("concurrent training must propagate source errors")
	}
}

// countingSource hands out fleet windows and counts how many are in
// flight: fetched, and not yet saved through countingStore.
type countingSource struct {
	fleet          *simdata.Fleet
	inFlight, peak atomic.Int64
}

func (s *countingSource) TrainingWindow(unit int) ([][]float64, error) {
	n := s.inFlight.Add(1)
	for p := s.peak.Load(); n > p && !s.peak.CompareAndSwap(p, n); p = s.peak.Load() {
	}
	time.Sleep(time.Millisecond) // hold the slot so units overlap
	return s.fleet.UnitWindow(unit, 0, 40), nil
}

// modelStore is an empty HDFS model cache, as the assembly builds one.
func modelStore() *hdfs.Store { return &hdfs.Store{C: hdfs.NewCluster(), Prefix: "/detector/"} }

// countingStore counts saves per blob and retires the source's window
// in flight on each.
type countingStore struct {
	*hdfs.Store
	src   *countingSource
	mu    sync.Mutex
	saves map[string]int
}

func (s *countingStore) Put(name string, data []byte) error {
	s.mu.Lock()
	s.saves[name]++
	s.mu.Unlock()
	s.src.inFlight.Add(-1)
	return s.Store.Put(name, data)
}

// TestTrainFleetConcurrentBounds: concurrent TrainFleet never has more
// than GOMAXPROCS windows in flight, saves each model exactly once, and
// returns only when every unit's work is done.
func TestTrainFleetConcurrentBounds(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const units = 64
	src := &countingSource{fleet: simdata.NewFleet(simdata.Config{Units: units, SensorsPerUnit: 5, Seed: 101, FaultOnset: 500})}
	store := &countingStore{Store: modelStore(), src: src, saves: map[string]int{}}
	ids := make([]int, units)
	for i := range ids {
		ids[i] = i
	}
	models, err := TrainFleet(ids, src, &ModelCatalog{Store: store}, true)
	if err != nil {
		t.Fatal(err)
	}
	if n := src.inFlight.Load(); n != 0 {
		t.Fatalf("TrainFleet returned with %d windows still in flight", n)
	}
	if p := src.peak.Load(); p > 4 || p < 2 {
		t.Fatalf("peak windows in flight = %d, want 2..GOMAXPROCS (4)", p)
	}
	if len(models) != units || len(store.saves) != units {
		t.Fatalf("%d models, %d saved, want %d", len(models), len(store.saves), units)
	}
	for name, n := range store.saves {
		if n != 1 {
			t.Fatalf("%s saved %d times", name, n)
		}
	}
}
