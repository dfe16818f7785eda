package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchFile mirrors BENCHMARK.json at the repository root.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricSpec fixes a metric's direction and, for end-to-end metrics,
// the share of the parent's median by which it may worsen.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// loadRuns reads an --out file: per workload and metric, the values of
// its untraced runs in file order.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rep.Traced {
			continue
		}
		if runs[rep.Workload] == nil {
			runs[rep.Workload] = make(map[string][]float64)
		}
		for name, m := range rep.Metrics {
			runs[rep.Workload][name] = append(runs[rep.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so the
// spreads printed here are the ones the acceptance rule is stated in.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// verdict applies one metric's bound to two sets of runs. worse: b's
// median is worse than a's by more than the bound. unresolved: the
// run-to-run spread of either side is wider than the bound, so a
// difference of that size cannot be told from noise — unless every run
// of b reads better than every run of a.
func verdict(spec metricSpec, a, b []float64) (v string, medA, medB, spread float64) {
	medA, medB = median(a), median(b)
	sign := 1.0 // a rise is worse
	if spec.Better == "higher" {
		sign = -1
	}
	for _, side := range [][]float64{a, b} {
		q1, q3 := quartiles(side)
		if m := median(side); m != 0 {
			spread = max(spread, (q3-q1)/m)
		}
	}
	if spread > spec.Bound {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if sign*(y-x) >= 0 {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "ok", medA, medB, spread
		}
		return "unresolved", medA, medB, spread
	}
	if sign*(medB-medA) > spec.Bound*medA {
		return "worse", medA, medB, spread
	}
	return "ok", medA, medB, spread
}

// runCompare prints, per workload and end-to-end metric, whether the
// runs in file b are ok, worse or unresolved against the runs in file a
// under the bounds BENCHMARK.json fixes. It exits non-zero on any worse.
func runCompare(fileA, fileB string, stdout, stderr io.Writer) int {
	bf, err := loadBenchFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v (run from the repository root)\n", err)
		return 2
	}
	a, err := loadRuns(fileA)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := loadRuns(fileB)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	worse := 0
	fmt.Fprintf(stdout, "%-14s %-18s %-10s %12s %12s %8s %7s %s\n",
		"workload", "metric", "verdict", "median a", "median b", "change", "bound", "spread (runs a/b)")
	for _, wl := range bf.Workloads {
		for _, spec := range bf.EndToEnd {
			va, vb := a[wl.Name][spec.Name], b[wl.Name][spec.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "%-14s %-18s %-10s\n", wl.Name, spec.Name, "missing")
				worse++
				continue
			}
			v, medA, medB, spread := verdict(spec, va, vb)
			if v == "worse" {
				worse++
			}
			change := 0.0
			if medA != 0 {
				change = 100 * (medB - medA) / medA
			}
			fmt.Fprintf(stdout, "%-14s %-18s %-10s %12.5g %12.5g %+7.1f%% %6.0f%% %5.1f%% (%d/%d)\n",
				wl.Name, spec.Name, v, medA, medB, change, 100*spec.Bound, 100*spread, len(va), len(vb))
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}
