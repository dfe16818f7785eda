package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// health says how well the generator itself ran, so a reading can be
// told from an artefact of the harness.
type health struct {
	GenLateP99MS float64 `json:"gen_late_p99_ms"`
	// LateFrac is the share of open-loop sends that left more than one
	// send period late through the generator's own fault (the
	// connection was free and the row was due).
	LateFrac    float64 `json:"late_frac"`
	Connections int     `json:"connections"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"nproc"`
	GoVersion   string  `json:"go_version"`
}

// report is everything one run prints: the contract result plus the
// sample counts behind each timing, generator health and notes.
type report struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	result
	// Counts is the number of samples behind each timing metric.
	Counts map[string]int `json:"counts,omitempty"`
	Health health         `json:"health"`
	Notes  []string       `json:"notes,omitempty"`
}

func (w *window) health() health {
	late := w.genLate.sorted()
	h := health{
		GenLateP99MS: percentile(late, 0.99),
		Connections:  w.sp.writers + w.sp.readers + 1, // + the SSE subscriber
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		GoVersion:    runtime.Version(),
	}
	if len(late) > 0 {
		h.LateFrac = float64(w.lateSends.Load()) / float64(len(late))
	}
	return h
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sliceRates returns, for every slice that lies within the measured
// window, the operations completed per second and the CPU microseconds
// spent per operation.
func (w *window) sliceRates() (perSec, cpuPerOp []float64) {
	tol := w.sp.slice / 10
	for i := 1; i < len(w.marks); i++ {
		a, b := w.marks[i-1], w.marks[i]
		if a.at.Before(w.measureFrom.Add(-tol)) || b.at.After(w.deadline.Add(tol)) {
			continue
		}
		ops := float64(b.ops - a.ops)
		perSec = append(perSec, ops/b.at.Sub(a.at).Seconds())
		if ops > 0 {
			cpuPerOp = append(cpuPerOp, float64(b.cpu-a.cpu)/float64(time.Microsecond)/ops)
		}
	}
	return perSec, cpuPerOp
}

// e2eMetrics derives the end-to-end metrics one driven window gives
// (set-up time and peak memory belong to the run). Every workload
// reports every metric; README.md says what each means on each
// workload, and why.
func e2eMetrics(w *window) (map[string]metric, map[string]int) {
	sp := w.sp
	// The write workloads' operation is the sample, timed by its row's
	// POST; visible is wire→flag where rows are paced. Elsewhere nothing
	// downstream of the answer is steady enough to bound (on the
	// firehose wire→stored swings 1.6–41 ms between runs as the backlog
	// comes and goes), so the answer stands in.
	ack, ops, slo := w.put.sorted(), float64(w.ackedPoints.Load()), float64(putSLOms)
	all, visible := ack, ack
	switch {
	case sp.readers > 0:
		// The dashboard's operation is the fresh read: repeats within a
		// fleet second are cache hits whose number is the Zipf draw's
		// luck, so they count toward the SLO fraction only.
		ack, slo, all = w.fresh.sorted(), readSLOms, w.read.sorted()
		ops, visible = float64(w.freshDone.Load()), ack
	case sp.rowsPerSec > 0:
		visible = w.flag.sorted()
	}
	// Throughput and CPU per operation are the median slice's where the
	// workload runs at a steady state, so a burst (a GC cycle, a stall of
	// the shared host) moves them little; a round that fills an empty
	// store has no steady state and reports its totals.
	throughput := ops / w.elapsed.Seconds()
	cpuPerOp := float64(w.cpu) / float64(time.Microsecond) / ops
	perSec, cpuSlices := w.sliceRates()
	if len(perSec) > 0 && len(cpuSlices) > 0 {
		throughput, cpuPerOp = median(perSec), median(cpuSlices)
	}
	m := map[string]metric{
		"throughput_per_s": {throughput, "1/s"},
		"ack_p50_ms":       {percentile(ack, 0.5), "ms"},
		"ack_slo_frac":     {fracWithin(all, slo, int(w.timedOps.Load())), "ratio"},
		"visible_p50_ms":   {percentile(visible, 0.5), "ms"},
		"cpu_us_per_op":    {cpuPerOp, "us"},
	}
	counts := map[string]int{"ack_p50_ms": len(ack), "visible_p50_ms": len(visible)}
	if len(perSec) > 0 {
		counts["throughput_per_s"] = len(perSec) // slices
	}
	return m, counts
}

// medianRound folds the rounds of one run into the run's metrics: per
// metric the median over the rounds, and the samples behind it summed.
func medianRound(rounds []map[string]metric, roundCounts []map[string]int) (map[string]metric, map[string]int) {
	m, counts := make(map[string]metric), make(map[string]int)
	for name, first := range rounds[0] {
		vals := make([]float64, len(rounds))
		for i, r := range rounds {
			vals[i] = r[name].Value
		}
		m[name] = metric{median(vals), first.Unit}
	}
	for _, rc := range roundCounts {
		for name, n := range rc {
			counts[name] += n
		}
	}
	return m, counts
}

// print writes the human-readable report.
func (r *report) print(w io.Writer) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  window %gs  %s ==\n", r.Workload, r.Seed, r.Seconds, kind)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		n := ""
		if c, ok := r.Counts[name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-6s%s\n", name, m.Value, m.Unit, n)
	}
	h := r.Health
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	fmt.Fprintf(w, "  generator: late p99 %.3f ms, late sends %.2f%%, %d connections, GOMAXPROCS %d, nproc %d, %s\n",
		h.GenLateP99MS, 100*h.LateFrac, h.Connections, h.GOMAXPROCS, h.NumCPU, h.GoVersion)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// printResult writes the run's context as one JSON line and then, last,
// the contract result line.
func (r *report) printResult(w io.Writer) error {
	ctx, err := json.Marshal(struct {
		Workload string         `json:"workload"`
		Seed     int64          `json:"seed"`
		Counts   map[string]int `json:"counts,omitempty"`
		Health   health         `json:"health"`
	}{r.Workload, r.Seed, r.Counts, r.Health})
	if err != nil {
		return err
	}
	res, err := json.Marshal(r.result)
	if err != nil {
		return err
	}
	_, err = w.Write(bytes.Join([][]byte{ctx, res, nil}, []byte("\n")))
	return err
}

// appendTo appends the full report to path as one JSON line.
func (r *report) appendTo(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
