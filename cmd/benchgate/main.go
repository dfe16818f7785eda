// Command benchgate is the repo's one bench tool: it reads a
// `go test -bench -benchmem` run on stdin and, by mode, records it or
// gates it. Either gate exits non-zero on a violation, or when a pin
// matched nothing (so a renamed benchmark cannot silently un-gate
// itself).
//
// Regression ratchet (default; `make bench-gate`, `make load-smoke`):
// compare the fresh run with the committed BENCH_*.json baselines under
// a pin file naming which (benchmark, metric) pairs are guarded with
// what tolerance.
//
//	go test -run '^$' -bench 'Query' -benchmem ./internal/query/ |
//	  benchgate -pins BENCH_PINS -baseline BENCH_query.json
//
// Pin file format: one `benchmark-prefix metric tolerance` triple per
// line, '#' comments and blank lines ignored. The longest matching
// prefix wins per metric; a shorter pin whose every match is shadowed
// by longer pins still counts as matched, not dangling. The metric is
// `ns_per_op`, `bytes_per_op`, `allocs_per_op`, or any custom unit the
// benchmark reports (`samples/s`, `bytes/sample`, ...). Tolerance is a
// factor >= 1: lower-is-better metrics (ns/op, B/op, allocs/op,
// bytes/sample, heap-B/cell) fail when fresh > baseline*tolerance;
// higher-is-better metrics (rates) fail when fresh < baseline/tolerance.
// Tolerances
// absorb shared-runner noise; a genuine 2x regression still fails.
// After an intentional perf change, refresh the baselines
// (`make bench-json`) in the same commit.
//
// Allocation ceilings (-allocs; `make bench-allocs`): no baseline — the
// pin file maps benchmark-name prefixes to the maximum allowed
// allocs/op, one `prefix max-allocs` pair per line, and a benchmark
// fails when it exceeds its ceiling. The longest matching prefix wins,
// so a family pin (`BenchmarkApplyInto 0`) can be overridden for one
// sub-benchmark; benchmarks with no matching prefix are ignored.
//
//	go test -run '^$' -bench 'Into' -benchtime=1x -benchmem ./... | benchgate -allocs ALLOC_PINS
//
// Record (-json; `make bench-json`, `make bench-query`): convert the
// run into the BENCH_*.json perf-trajectory format the ratchet reads
// back — each benchmark name mapped to its ns/op, B/op, allocs/op and
// every custom metric it reported (samples/s, GFLOPS, empirical-FDR,
// ...), plus a small meta block identifying the host — so allocation
// and throughput regressions are visible as a diff on a committed file.
//
//	go test -run '^$' -bench 'OnlineEval' -benchmem . | benchgate -json BENCH_evaluation.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/benchparse"
)

// entry is one benchmark's result, as a BENCH_*.json file holds it.
type entry struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// benchDoc is a whole BENCH_*.json document.
type benchDoc struct {
	Meta       map[string]string `json:"meta,omitempty"`
	Benchmarks map[string]entry  `json:"benchmarks"`
}

// pin guards one metric of the benchmarks its prefix matches, holding
// the fresh value within tolerance of the committed baseline — or, for
// an absolute pin (-allocs), of its own ceiling, which then stands in
// for the baseline.
type pin struct {
	prefix    string
	metric    string
	tolerance float64
	ceiling   *entry
	hits      int
}

// lowerBetter lists the metrics where a bigger fresh number is a
// regression. Everything else (samples/s and friends) is a rate:
// smaller is the regression.
var lowerBetter = map[string]bool{
	"ns_per_op":     true,
	"bytes_per_op":  true,
	"allocs_per_op": true,
	"bytes/sample":  true,
	"heap-B/cell":   true,
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	pinsPath := flag.String("pins", "BENCH_PINS", "pin file (benchmark-prefix metric tolerance per line)")
	allocsPath := flag.String("allocs", "", "gate allocs/op against the absolute ceilings in this pin file (benchmark-prefix max-allocs per line) instead of baselines")
	jsonOut := flag.String("json", "", "record stdin as this BENCH_*.json file instead of gating")
	var baselines, only, skip multiFlag
	flag.Var(&baselines, "baseline", "committed BENCH_*.json baseline (repeatable)")
	flag.Var(&only, "only", "enforce only pins whose prefix starts with this (repeatable)")
	flag.Var(&skip, "skip", "ignore pins whose prefix starts with this (repeatable)")
	flag.Parse()

	var err error
	switch {
	case *jsonOut != "":
		err = record(os.Stdin, *jsonOut)
	case *allocsPath != "":
		err = gateStdin(*allocsPath, true, nil, only, skip)
	case len(baselines) == 0:
		err = errors.New("at least one -baseline required")
	default:
		err = gateStdin(*pinsPath, false, baselines, only, skip)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// gateStdin loads the pins (and, for the ratchet, the baselines), gates
// stdin and turns the outcome into the exit error.
func gateStdin(pinsPath string, absolute bool, baselines, only, skip []string) error {
	pins, err := loadPins(pinsPath, absolute)
	if err != nil {
		return err
	}
	if pins = filterPins(pins, only, skip); len(pins) == 0 {
		return errors.New("no pins left after -only/-skip")
	}
	base, err := loadBaselines(baselines)
	if err != nil {
		return err
	}
	checked, violations, err := gate(pins, base, os.Stdin, os.Stdout, os.Stderr)
	switch {
	case err != nil:
		return err
	case checked == 0:
		return errors.New("no pinned benchmarks on stdin")
	case violations > 0:
		return fmt.Errorf("%d violation(s)", violations)
	}
	fmt.Printf("benchgate: %d metric(s) within pins\n", checked)
	return nil
}

// loadBaselines merges the committed BENCH_*.json files into one
// name → entry map (later files win).
func loadBaselines(paths []string) (map[string]entry, error) {
	base := map[string]entry{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var doc benchDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for name, e := range doc.Benchmarks {
			base[name] = e
		}
	}
	return base, nil
}

// record writes the bench run on in to path as a BENCH_*.json document:
// stable key order (Go maps marshal sorted) and a trailing newline, for
// clean diffs.
func record(in io.Reader, path string) error {
	doc := benchDoc{Meta: map[string]string{}, Benchmarks: map[string]entry{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, key := range []string{"goos", "goarch", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				doc.Meta[key] = v
			}
		}
		if r, ok := benchparse.Parse(line); ok {
			doc.Benchmarks[r.Name] = benchEntry(r)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read input: %w", err)
	}
	if len(doc.Benchmarks) == 0 {
		return errors.New("no benchmark lines on stdin")
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchgate: wrote %d benchmarks to %s\n", len(doc.Benchmarks), path)
	return nil
}

// filterPins applies the -only/-skip prefix selectors, letting one
// pin file serve runs that exercise different benchmark subsets (the
// PR-loop bench-gate skips the load pins; load-smoke enforces only
// them) without un-pinned pins failing as dangling.
func filterPins(pins []*pin, only, skip []string) []*pin {
	anyPrefix := func(s string, prefixes []string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(s, p) {
				return true
			}
		}
		return false
	}
	var kept []*pin
	for _, p := range pins {
		if len(only) > 0 && !anyPrefix(p.prefix, only) {
			continue
		}
		if anyPrefix(p.prefix, skip) {
			continue
		}
		kept = append(kept, p)
	}
	return kept
}

// gate checks the bench run on in against pins — relative pins against
// base, absolute ones against their own ceiling — reporting passes to
// out and failures to errOut. It returns the number of (benchmark,
// metric) pairs checked and the number of violations, a pin that
// matched no benchmark being one.
func gate(pins []*pin, base map[string]entry, in io.Reader, out, errOut io.Writer) (checked, violations int, err error) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		r, ok := benchparse.Parse(sc.Text())
		if !ok {
			continue
		}
		for _, p := range pins {
			if !strings.HasPrefix(r.Name, p.prefix) {
				continue
			}
			b, ok := base[r.Name]
			if p.ceiling != nil {
				b, ok = *p.ceiling, r.HasAllocs
			}
			if !ok {
				continue // no committed baseline yet, or a run without -benchmem
			}
			if better := match(pins, r.Name, p.metric); better != p {
				// A longer prefix guards this benchmark's metric, but the
				// pin did match it — count the hit so a pin whose every
				// match is shadowed isn't failed as dangling below.
				p.hits++
				continue
			}
			cur, curOK := metricValue(benchEntry(r), p.metric)
			ref, refOK := metricValue(b, p.metric)
			if !curOK || !refOK {
				violations++
				fmt.Fprintf(errOut, "benchgate: FAIL %s: metric %q missing (fresh %v, baseline %v)\n",
					r.Name, p.metric, curOK, refOK)
				continue
			}
			p.hits++
			checked++
			if bad, limit := regressed(cur, ref, p.metric, p.tolerance); bad {
				violations++
				fmt.Fprintf(errOut, "benchgate: FAIL %s %s: %s vs baseline %s (limit %s, tolerance %gx, pin %s)\n",
					r.Name, p.metric, fmtNum(cur), fmtNum(ref), fmtNum(limit), p.tolerance, p.prefix)
			} else {
				fmt.Fprintf(out, "benchgate: ok   %s %s: %s vs baseline %s (limit %s)\n",
					r.Name, p.metric, fmtNum(cur), fmtNum(ref), fmtNum(limit))
			}
		}
	}
	if err := sc.Err(); err != nil {
		return checked, violations, fmt.Errorf("read input: %w", err)
	}
	for _, p := range pins {
		if p.hits == 0 {
			violations++
			fmt.Fprintf(errOut, "benchgate: FAIL pin %q %s matched no benchmark (renamed? not run?)\n",
				p.prefix, p.metric)
		}
	}
	return checked, violations, nil
}

// regressed reports whether cur regressed past tolerance relative to
// ref, and the limit it was held to.
func regressed(cur, ref float64, metric string, tol float64) (bool, float64) {
	if lowerBetter[metric] {
		limit := ref * tol
		return cur > limit, limit
	}
	limit := ref / tol
	return cur < limit, limit
}

func benchEntry(r benchparse.Result) entry {
	return entry{Iterations: r.Iterations, NsPerOp: r.NsPerOp, BytesPerOp: r.BytesPerOp, AllocsPerOp: r.AllocsPerOp, Metrics: r.Metrics}
}

func metricValue(e entry, metric string) (float64, bool) {
	switch metric {
	case "ns_per_op":
		return e.NsPerOp, e.NsPerOp > 0
	case "bytes_per_op":
		return e.BytesPerOp, true
	case "allocs_per_op":
		return e.AllocsPerOp, true
	default:
		v, ok := e.Metrics[metric]
		return v, ok
	}
}

func fmtNum(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// loadPins reads a pin file: `prefix metric tolerance` triples, or with
// absolute set `prefix max-allocs` pairs — each an allocs_per_op pin
// held to that ceiling at tolerance 1.
func loadPins(path string, absolute bool) ([]*pin, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var pins []*pin
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if absolute {
			if len(fields) != 2 {
				return nil, fmt.Errorf("%s: bad pin line %q (want: prefix max-allocs)", path, line)
			}
			max, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad max in %q", path, line)
			}
			pins = append(pins, &pin{prefix: fields[0], metric: "allocs_per_op", tolerance: 1, ceiling: &entry{AllocsPerOp: max}})
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s: bad pin line %q (want: prefix metric tolerance)", path, line)
		}
		tol, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || tol < 1 {
			return nil, fmt.Errorf("%s: bad tolerance in %q (must be a factor >= 1)", path, line)
		}
		pins = append(pins, &pin{prefix: fields[0], metric: fields[1], tolerance: tol})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(pins) == 0 {
		return nil, fmt.Errorf("%s: no pins", path)
	}
	// Longest prefix first, so match() can take the first hit.
	sort.Slice(pins, func(i, j int) bool { return len(pins[i].prefix) > len(pins[j].prefix) })
	return pins, nil
}

// match returns the winning pin for (name, metric): the longest
// matching prefix that guards that metric.
func match(pins []*pin, name, metric string) *pin {
	for _, p := range pins {
		if p.metric == metric && strings.HasPrefix(name, p.prefix) {
			return p
		}
	}
	return nil
}
