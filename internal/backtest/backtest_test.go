package backtest

import (
	"testing"

	_ "repro/internal/core" // registers the "mgd" family
	"repro/internal/simdata"
)

// smallScenario keeps the harness test fast: 3 units, 8 sensors, one
// shift fault class with half the channels moving together.
func smallScenario(seed uint64) Scenario {
	cfg := simdata.Config{
		Units:          3,
		SensorsPerUnit: 8,
		Seed:           seed,
		FaultFraction:  0.7,
		FaultOnset:     80,
		FaultSensors:   4,
		ShiftSigma:     8,
		Classes:        []simdata.FaultClass{simdata.FaultShift},
	}
	return Scenario{Name: "shift", Cfg: cfg, TrainSteps: 80, EvalSteps: 60}
}

func TestRunScoresEveryRequestedFamily(t *testing.T) {
	res, err := Run(Config{Detectors: []string{"mgd", "cusum"}, Seed: 3}, []Scenario{smallScenario(11)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %+v, want one per (detector, scenario)", res)
	}
	// Run sorts by detector then scenario.
	if res[0].Detector != "cusum" || res[1].Detector != "mgd" {
		t.Fatalf("result order = %s, %s", res[0].Detector, res[1].Detector)
	}
	for _, r := range res {
		if r.Scenario != "shift" {
			t.Fatalf("scenario = %q", r.Scenario)
		}
		if r.FaultyUnits == 0 {
			t.Fatalf("%s: no faulty units in a FaultFraction=0.7 fleet", r.Detector)
		}
		// A gross correlated 8σ shift is table stakes for both families.
		if r.Recall < 0.5 {
			t.Fatalf("%s recall = %v on an 8σ shift: %+v", r.Detector, r.Recall, r)
		}
		if r.DetectedUnits == 0 || r.MeanLatencySteps < 0 {
			t.Fatalf("%s latency accounting broken: %+v", r.Detector, r)
		}
		if r.TP == 0 || r.Recall > 1 || r.Precision > 1 {
			t.Fatalf("%s confusion counts inconsistent: %+v", r.Detector, r)
		}
	}
}

func TestRunIsDeterministic(t *testing.T) {
	cfg := Config{Detectors: []string{"ensemble"}, Seed: 9}
	a, err := Run(cfg, []Scenario{smallScenario(11)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, []Scenario{smallScenario(11)})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Fatalf("same config, different scorecards:\n%+v\n%+v", a, b)
	}
}

// TestDefaultEnsembleScores: the default ensemble — the paper's model
// beside the two streaming charts, two votes to flag — holds its
// row-level F1, averaged over fleet seeds 1–5, on every fault class.
func TestDefaultEnsembleScores(t *testing.T) {
	floor := map[string]float64{"drift": 0.6, "stuck": 0.75, "correlated": 0.95, "spike": 0.6}
	const seeds = 5
	sum := map[string]float64{}
	for seed := uint64(1); seed <= seeds; seed++ {
		res, err := Run(Config{Detectors: []string{"ensemble"}, Seed: seed}, DefaultScenarios(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Precision+r.Recall > 0 {
				sum[r.Scenario] += 2 * r.Precision * r.Recall / (r.Precision + r.Recall)
			}
		}
	}
	for sc, min := range floor {
		if f1 := sum[sc] / seeds; f1 < min {
			t.Errorf("%s: default ensemble mean F1 = %.3f over seeds 1–%d, want ≥ %.2f", sc, f1, seeds, min)
		}
	}
}

func TestDefaultScenariosCoverFaultClasses(t *testing.T) {
	scs := DefaultScenarios(42)
	if len(scs) != 4 {
		t.Fatalf("scenarios = %d, want 4", len(scs))
	}
	seen := map[string]bool{}
	for _, sc := range scs {
		seen[sc.Name] = true
		if int64(sc.TrainSteps) != sc.Cfg.FaultOnset {
			t.Fatalf("%s: training window (%d) not aligned to onset (%d): training data would be faulty",
				sc.Name, sc.TrainSteps, sc.Cfg.FaultOnset)
		}
		if len(sc.Cfg.Classes) != 1 {
			t.Fatalf("%s: scenario mixes fault classes %v", sc.Name, sc.Cfg.Classes)
		}
	}
	for _, name := range []string{"drift", "spike", "stuck", "correlated"} {
		if !seen[name] {
			t.Fatalf("missing scenario %q (have %v)", name, seen)
		}
	}
}

func TestCheckGate(t *testing.T) {
	results := []Result{
		{Detector: "a", Scenario: "spike", Recall: 0.9},
		{Detector: "b", Scenario: "spike", Recall: 0.1},
		{Detector: "b", Scenario: "drift", Recall: 0.0}, // other scenario: exempt
	}
	bad := CheckGate(results, Gate{Scenario: "spike", MinRecall: 0.3})
	if len(bad) != 1 || bad[0].Detector != "b" {
		t.Fatalf("gate violations = %+v, want exactly detector b on spike", bad)
	}
	if got := CheckGate(results, Gate{Scenario: "spike", MinRecall: 0.05}); len(got) != 0 {
		t.Fatalf("permissive gate flagged %+v", got)
	}
}

func TestUnknownDetectorSurfacesError(t *testing.T) {
	if _, err := Run(Config{Detectors: []string{"nope"}}, []Scenario{smallScenario(1)}); err == nil {
		t.Fatal("unknown family scored without error")
	}
}
