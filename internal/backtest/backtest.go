// Package backtest scores the registered detector families against
// simulated fleets with injected fault scenarios, producing the
// precision / recall / detection-latency numbers the paper reports for
// its anomaly-detection tier (§V). Each scenario builds a small
// deterministic fleet around one simdata fault class, trains the
// model-based families on the healthy prefix, warms the streaming
// families on the same prefix, and then replays the evaluation window
// through every detector, comparing row-level verdicts against the
// simulator's ground truth.
//
// Scoring is at row granularity — "unit u is anomalous at step t" —
// because that is the one verdict every family can express, the
// ensemble's vote included. A row counts as truly faulty when any of
// its sensors carries fault signal at that step.
package backtest

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/mllib"
	"repro/internal/simdata"
)

// Scenario is one injected-fault experiment: a fleet configuration
// plus the train/evaluate split.
type Scenario struct {
	// Name labels the scenario in results ("drift", "spike", ...).
	Name string
	// Cfg is the fleet. FaultOnset should equal TrainSteps so the
	// training window is healthy everywhere.
	Cfg simdata.Config
	// TrainSteps is the healthy prefix length used to train the
	// model-based families and warm the streaming ones.
	TrainSteps int
	// EvalSteps is the scored window length, starting at the onset.
	EvalSteps int
}

// DefaultScenarios returns the four standard injected-fault
// experiments: gradual drift, periodic spikes, stuck-at transducers,
// and a correlated-sensor failure where half of each faulty unit's
// channels shift together.
func DefaultScenarios(seed uint64) []Scenario {
	base := func(classes ...simdata.FaultClass) simdata.Config {
		return simdata.Config{
			Units:          8,
			SensorsPerUnit: 16,
			Seed:           seed,
			FaultFraction:  0.5,
			FaultOnset:     120,
			Classes:        classes,
		}
	}
	drift := base(simdata.FaultDrift)
	drift.DriftPerStep = 0.05
	spike := base(simdata.FaultSpike)
	// Like the physical faults the simulator models, the spike hits a
	// correlated block of channels — wide enough that unit-level
	// (whole-row) families can separate spike rows from clean ones.
	spike.FaultSensors = 8
	stuck := base(simdata.FaultStuck)
	correlated := base(simdata.FaultShift)
	correlated.FaultSensors = 8 // half the unit's channels move together
	return []Scenario{
		{Name: "drift", Cfg: drift, TrainSteps: 120, EvalSteps: 120},
		{Name: "spike", Cfg: spike, TrainSteps: 120, EvalSteps: 120},
		{Name: "stuck", Cfg: stuck, TrainSteps: 120, EvalSteps: 120},
		{Name: "correlated", Cfg: correlated, TrainSteps: 120, EvalSteps: 120},
	}
}

// Result is one (detector, scenario) score.
type Result struct {
	Detector string `json:"detector"`
	Scenario string `json:"scenario"`

	// Row-level confusion counts over the evaluation window.
	TP int `json:"tp"`
	FP int `json:"fp"`
	FN int `json:"fn"`

	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`

	// MeanLatencySteps is the mean, over faulty units the detector
	// caught, of (first flagged step − onset). -1 when nothing was
	// caught.
	MeanLatencySteps float64 `json:"mean_latency_steps"`

	// DetectedUnits / FaultyUnits count faulty units with ≥1 flagged
	// faulty row.
	DetectedUnits int `json:"detected_units"`
	FaultyUnits   int `json:"faulty_units"`
}

// Config tunes a backtest run.
type Config struct {
	// Detectors lists the families to score; empty means every
	// registered family.
	Detectors []string
	// Seed feeds detector construction (mllib.Context.Seed); the fleet
	// seed lives in each scenario's Cfg.
	Seed uint64
}

// Run scores the configured detectors on every scenario.
func Run(cfg Config, scenarios []Scenario) ([]Result, error) {
	dets := cfg.Detectors
	if len(dets) == 0 {
		dets = mllib.Registered()
	}

	var results []Result
	for _, sc := range scenarios {
		fleet := simdata.NewFleet(sc.Cfg)
		models, err := trainModels(fleet, sc)
		if err != nil {
			return nil, fmt.Errorf("backtest: scenario %s: %w", sc.Name, err)
		}
		for _, name := range dets {
			res, err := scoreDetector(name, cfg, fleet, sc, models)
			if err != nil {
				return nil, fmt.Errorf("backtest: scenario %s detector %s: %w", sc.Name, name, err)
			}
			results = append(results, res)
		}
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Detector != results[j].Detector {
			return results[i].Detector < results[j].Detector
		}
		return results[i].Scenario < results[j].Scenario
	})
	return results, nil
}

// trainModels fits one MGD model per unit from the healthy prefix.
func trainModels(fleet *simdata.Fleet, sc Scenario) ([]*core.Model, error) {
	models := make([]*core.Model, fleet.Units())
	for u := 0; u < fleet.Units(); u++ {
		window := fleet.UnitWindow(u, 0, sc.TrainSteps)
		m, err := core.TrainUnit(u, window)
		if err != nil {
			return nil, fmt.Errorf("train unit %d: %w", u, err)
		}
		models[u] = m
	}
	return models, nil
}

// buildUnitDetector constructs the named family for one unit.
func buildUnitDetector(name string, cfg Config, fleet *simdata.Fleet, unit int, model *core.Model) (mllib.Detector, error) {
	ctx := mllib.Context{
		Unit:    unit,
		Sensors: fleet.Sensors(),
		Seed:    cfg.Seed ^ uint64(unit)<<1,
		LoadModel: func() (any, error) {
			if model == nil {
				return nil, fmt.Errorf("no trained model for unit %d", unit)
			}
			return model, nil
		},
	}
	return mllib.New(name, ctx)
}

// scoreDetector replays the scenario through fresh per-unit instances
// of one family and scores row-level verdicts against ground truth.
func scoreDetector(name string, cfg Config, fleet *simdata.Fleet, sc Scenario, models []*core.Model) (Result, error) {
	res := Result{Detector: name, Scenario: sc.Name, MeanLatencySteps: -1}
	sensors := fleet.Sensors()
	row := make([]float64, sensors)
	xs := [][]float64{row}
	ts := []int64{0}
	var det mllib.Detections

	latencySum, latencyN := 0.0, 0
	for u := 0; u < fleet.Units(); u++ {
		d, err := buildUnitDetector(name, cfg, fleet, u, models[u])
		if err != nil {
			return res, err
		}
		// Warm streaming families on the healthy prefix (the model-based
		// family ignores it — its baseline is the trained model).
		for t := int64(0); t < int64(sc.TrainSteps); t++ {
			fillRow(fleet, u, t, row)
			ts[0] = t
			if err := d.DetectBatchInto(xs, ts, &det); err != nil {
				return res, err
			}
		}
		fault := fleet.UnitFault(u)
		unitFaulty := fault.Class != simdata.FaultNone
		if unitFaulty {
			res.FaultyUnits++
		}
		firstHit := int64(-1)
		for t := sc.Cfg.FaultOnset; t < sc.Cfg.FaultOnset+int64(sc.EvalSteps); t++ {
			fillRow(fleet, u, t, row)
			ts[0] = t
			if err := d.DetectBatchInto(xs, ts, &det); err != nil {
				return res, err
			}
			flagged := len(det.Flags) > 0
			truth := rowFaulty(fleet, u, t, sensors)
			switch {
			case flagged && truth:
				res.TP++
				if firstHit < 0 {
					firstHit = t
				}
			case flagged && !truth:
				res.FP++
			case !flagged && truth:
				res.FN++
			}
		}
		if unitFaulty && firstHit >= 0 {
			res.DetectedUnits++
			latencySum += float64(firstHit - fault.Onset)
			latencyN++
		}
	}
	if res.TP+res.FP > 0 {
		res.Precision = float64(res.TP) / float64(res.TP+res.FP)
	}
	if res.TP+res.FN > 0 {
		res.Recall = float64(res.TP) / float64(res.TP+res.FN)
	}
	if latencyN > 0 {
		res.MeanLatencySteps = latencySum / float64(latencyN)
	}
	return res, nil
}

func fillRow(fleet *simdata.Fleet, u int, t int64, row []float64) {
	for s := range row {
		row[s] = fleet.Value(u, s, t)
	}
}

// rowFaulty is the row-level ground truth: any sensor faulty at t.
func rowFaulty(fleet *simdata.Fleet, u int, t int64, sensors int) bool {
	for s := 0; s < sensors; s++ {
		if fleet.Faulty(u, s, t) {
			return true
		}
	}
	return false
}

// Gate is a minimum-recall floor on one scenario, the CI smoke check
// ("every registered family must catch spikes at least this well").
type Gate struct {
	Scenario  string
	MinRecall float64
}

// CheckGate returns the results violating the gate.
func CheckGate(results []Result, g Gate) []Result {
	var bad []Result
	for _, r := range results {
		if r.Scenario == g.Scenario && r.Recall < g.MinRecall {
			bad = append(bad, r)
		}
	}
	return bad
}
