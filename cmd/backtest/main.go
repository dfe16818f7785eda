// Command backtest scores every registered detector family against
// the injected-fault scenarios of internal/backtest and writes the
// per-detector per-scenario precision / recall / detection-latency
// table as JSON (BENCH_detectors.json in CI).
//
// Usage:
//
//	backtest [-out BENCH_detectors.json] [-seed 42] [-detectors cusum,mgd]
//	         [-gate spike:0.30]
//
// The -gate flag enforces a minimum recall floor on one scenario and
// exits nonzero when any scored detector misses it, which is how CI
// keeps the detector tier honest.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/backtest"
	"repro/internal/mllib"

	_ "repro/internal/core" // registers the "mgd" family
)

func main() {
	out := flag.String("out", "BENCH_detectors.json", "output JSON path (\"-\" for stdout)")
	seed := flag.Uint64("seed", 42, "master seed for fleets and detector construction")
	detectors := flag.String("detectors", "", "comma-separated families to score (default: all registered)")
	gate := flag.String("gate", "", "minimum recall floor as scenario:recall, e.g. spike:0.30")
	flag.Parse()

	cfg := backtest.Config{Seed: *seed}
	if *detectors != "" {
		for _, d := range strings.Split(*detectors, ",") {
			if d = strings.TrimSpace(d); d != "" {
				cfg.Detectors = append(cfg.Detectors, d)
			}
		}
	}

	scenarios := backtest.DefaultScenarios(*seed)
	results, err := backtest.Run(cfg, scenarios)
	if err != nil {
		fmt.Fprintln(os.Stderr, "backtest:", err)
		os.Exit(1)
	}

	report := struct {
		Seed      uint64            `json:"seed"`
		Scenarios []string          `json:"scenarios"`
		Detectors []string          `json:"detectors"`
		Results   []backtest.Result `json:"results"`
	}{Seed: *seed, Results: results}
	for _, sc := range scenarios {
		report.Scenarios = append(report.Scenarios, sc.Name)
	}
	if len(cfg.Detectors) > 0 {
		report.Detectors = cfg.Detectors
	} else {
		report.Detectors = mllib.Registered()
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "backtest: marshal:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
	} else {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "backtest:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d results)\n", *out, len(results))
	}

	for _, r := range results {
		fmt.Printf("%-10s %-11s precision=%.3f recall=%.3f latency=%.1f units=%d/%d\n",
			r.Detector, r.Scenario, r.Precision, r.Recall, r.MeanLatencySteps, r.DetectedUnits, r.FaultyUnits)
	}

	if *gate != "" {
		g, err := parseGate(*gate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "backtest:", err)
			os.Exit(2)
		}
		if bad := backtest.CheckGate(results, g); len(bad) > 0 {
			for _, r := range bad {
				fmt.Fprintf(os.Stderr, "backtest: GATE FAIL %s on %s: recall %.3f < %.3f\n",
					r.Detector, r.Scenario, r.Recall, g.MinRecall)
			}
			os.Exit(1)
		}
		fmt.Printf("gate %s passed\n", *gate)
	}
}

func parseGate(s string) (backtest.Gate, error) {
	scen, val, ok := strings.Cut(s, ":")
	if !ok {
		return backtest.Gate{}, fmt.Errorf("gate %q: want scenario:recall", s)
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return backtest.Gate{}, fmt.Errorf("gate %q: %w", s, err)
	}
	return backtest.Gate{Scenario: scen, MinRecall: f}, nil
}
