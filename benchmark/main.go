// Command benchmark is the operator-path benchmark: it boots the system
// through its public assembly (sentinel.New / sentinel.StartNode) behind
// a real loopback listener, drives one of four named workloads from this
// process, checks the outputs and prints every metric by name and unit.
// README.md in this directory derives the metrics and describes the
// workloads; BENCHMARK.json at the repository root fixes each metric's
// direction and regression bound.
//
//	go run ./benchmark --workload firehose --seed 42 --seconds 25 --trace 0
//	go run ./benchmark                       # all four, one fresh process each
//	go run ./benchmark --trace 1             # … each followed by its traced run
//	go run ./benchmark --compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run: firehose, detect-paced, dashboard, cluster-paced, or all (one fresh process each)")
		seed     = fs.Int64("seed", 42, "seed of the simulated fleet and the request mix")
		seconds  = fs.Float64("seconds", 25, "length of the measured window (after the warm-up)")
		trace    = fs.Int("trace", 0, "1: traced run — per-layer metrics and a span file; 0: end-to-end metrics")
		out      = fs.String("out", "", "append each run's full report to this file as one JSON line (input of --compare)")
		compare  = fs.Bool("compare", false, "compare two --out files (args: a.jsonl b.jsonl) under the bounds in BENCHMARK.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark --compare a.jsonl b.jsonl")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *workload == "all" {
		return runAll(*seed, *seconds, *trace, *out, stdout, stderr)
	}
	sp := workloadByName(*workload)
	if sp == nil {
		fmt.Fprintf(stderr, "unknown workload %q\n", *workload)
		return 2
	}
	// StartNode gateways write an access line per request to the
	// process logger and NodeConfig has no knob for it; nothing in the
	// harness logs through it.
	log.SetOutput(io.Discard)
	rep, err := runWorkload(sp, runOpts{
		seed: *seed, seconds: *seconds, traced: *trace != 0,
		outDir: "benchmark/out", setupBudget: 2.5,
	})
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", sp.name, err)
		return 1
	}
	rep.print(stderr)
	if *out != "" {
		if err := rep.appendTo(*out); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if err := rep.printResult(stdout); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

// runAll runs every workload one after another, each in a fresh
// re-exec of this binary so peak RSS and CPU are per workload. With
// tracing on, each workload's traced run follows its untraced one and
// the difference between the two is printed as the tracing overhead.
func runAll(seed int64, seconds float64, trace int, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	traces := []int{0}
	if trace != 0 {
		traces = append(traces, 1)
	}
	all := make(map[string]json.RawMessage)
	for _, sp := range workloads() {
		var untraced result
		for _, tr := range traces {
			args := []string{
				"--workload", sp.name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(tr),
			}
			if out != "" {
				args = append(args, "--out", out)
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = stderr
			raw, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s (trace %d): %v\n", sp.name, tr, err)
				return 1
			}
			lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
			last := lines[len(lines)-1]
			var res result
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: bad result line %q: %v\n", sp.name, last, err)
				return 1
			}
			key := sp.name
			if tr == 0 {
				untraced = res
			} else {
				key += "+trace"
				printOverhead(stderr, sp.name, untraced, res)
			}
			all[key] = json.RawMessage(last)
		}
	}
	enc, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	return 0
}

// printOverhead reports what tracing cost: the traced run repeats the
// end-to-end medians under client.* names, so the two runs subtract.
func printOverhead(w io.Writer, name string, untraced, traced result) {
	for _, pair := range [][2]string{
		{"ack_p50_ms", "client.ack_p50_ms"},
		{"throughput_per_s", "client.throughput_per_s"},
		{"cpu_us_per_op", "client.cpu_us_per_op"},
	} {
		u, ok1 := untraced.Metrics[pair[0]]
		t, ok2 := traced.Metrics[pair[1]]
		if !ok1 || !ok2 || u.Value == 0 {
			continue
		}
		fmt.Fprintf(w, "tracing overhead  %-14s %-18s untraced %.4g  traced %.4g  (%+.1f%%)\n",
			name, pair[0], u.Value, t.Value, 100*(t.Value-u.Value)/u.Value)
	}
}

// A run sets the system up at least minSetupReps times, and keeps going
// — up to maxSetupReps — while the set-ups so far took under
// runOpts.setupBudget seconds in total, so a millisecond boot is timed
// often enough for its median to be steady. setup_s is the median; the
// (first) window runs on the last instance.
const (
	minSetupReps = 3
	maxSetupReps = 40
)

// runOpts are one run's command-line settings.
type runOpts struct {
	seed        int64
	seconds     float64
	traced      bool
	outDir      string  // where a traced run writes its span file
	setupBudget float64 // seconds
}

// runWorkload is one run of one workload: inputs from the seed, set-up
// (repeated, timed), the drive — one window, or one per round on a fresh
// system each — the correctness checks and, on a traced run, the layer
// replays.
func runWorkload(sp *spec, o runOpts) (*report, error) {
	fleetCfg := sp.fleetConfig(uint64(o.seed))
	boot := bootSystem
	if sp.cluster {
		boot = bootCluster
	}
	var (
		s      *sut
		setups []float64
	)
	reboot := func() error {
		if s != nil {
			s.close()
			s = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		var err error
		if s, err = boot(sp, fleetCfg); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		return nil
	}
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	for total := 0.0; len(setups) < minSetupReps || (len(setups) < maxSetupReps && total < o.setupBudget); {
		if err := reboot(); err != nil {
			return nil, err
		}
		total += setups[len(setups)-1]
	}

	rounds, each := sp.rounds(o.seconds)
	if o.traced {
		rounds = 1 // the spans and replays of one round say what a layer costs
	}
	var rows *rowSet
	if sp.readers == 0 {
		rows = genRows(s.fleet, sp.firstTick(), sp.ticksFor(sp.warmup+each))
	}
	rep := &report{Workload: sp.name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced}
	var (
		w           *window
		roundM      []map[string]metric
		roundCounts []map[string]int
	)
	for r := 0; r < rounds; r++ {
		if r > 0 {
			if err := reboot(); err != nil {
				return nil, err
			}
		}
		w = &window{s: s, sp: sp, rows: rows, seconds: each}
		if o.traced {
			w.tr = newTracer()
		}
		if err := w.run(o.seed); err != nil {
			return nil, err
		}
		rep.Attempted += w.attempted.Load()
		rep.Failed += w.failed.Load()
		h := w.health()
		if h.LateFrac > 0.10 {
			return nil, fmt.Errorf("generator ran late on %.0f%% of sends (p99 %.2f ms): latency metrics of this window would mislead",
				100*h.LateFrac, h.GenLateP99MS)
		}
		if r == 0 || h.GenLateP99MS > rep.Health.GenLateP99MS {
			rep.Health = h
		}
		if err := w.checkCounters(); err != nil {
			return nil, fmt.Errorf("correctness: %w", err)
		}
		m, c := e2eMetrics(w)
		roundM, roundCounts = append(roundM, m), append(roundCounts, c)
		if rounds > 1 {
			rep.Notes = append(rep.Notes, fmt.Sprintf("round %d: %.6g ops/s, %.4g us/op, ack p50 %.4g ms",
				r+1, m["throughput_per_s"].Value, m["cpu_us_per_op"].Value, m["ack_p50_ms"].Value))
		}
	}
	// The last round's store is read back; every round passed the
	// counter checks above.
	if err := check(w); err != nil {
		return nil, fmt.Errorf("correctness: %w", err)
	}
	rep.Correct = true
	if o.traced {
		layers, err := layerMetrics(w)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		rep.Metrics = layers
		path, err := w.tr.write(o.outDir, sp.name)
		if err != nil {
			return nil, err
		}
		rep.Notes = append(rep.Notes, fmt.Sprintf("%d spans written to %s", len(w.tr.spans), path))
	} else {
		rep.Metrics, rep.Counts = medianRound(roundM, roundCounts)
		rep.Metrics["setup_s"] = metric{median(setups), "s"}
		rep.Metrics["peak_rss_mb"] = metric{w.peakRSSMB, "MB"}
		rep.Counts["setup_s"] = len(setups)
		rep.Notes = append(rep.Notes, fmt.Sprintf("set-up repeats, s: %.3g", setups))
		if rounds > 1 {
			rep.Notes = append(rep.Notes, fmt.Sprintf("median of %d rounds", rounds))
		}
	}
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, errors.New("metric " + name + " is not a finite number")
		}
	}
	return rep, nil
}
