// Command flakecensus tallies repeated gate runs into one pass rate per
// test and per pin, least reliable first (`make flake-census`).
//
// Its directory holds files per run: test-N.json, the `go test -json`
// stream of one `go build ./... && go test -json ./...`; vet-N.ms, the
// wall milliseconds of the `go vet ./...` run beside it (the load the
// run saw); and pins-N.out, cmd/benchgate's verdict on one run of the
// pinned benchmarks. A test counts once per run that reports it passing
// or failing, and a skip is counted apart, so a test that was skipped
// in some runs shows how often it was judged; a pin counts once per
// benchgate line about it. Each file also scores its whole command: a
// test run passes when every line is a go test -json event and none is
// a failure, a pin run when benchgate found every metric within its
// pins.
//
// The files of runs that passed, and the vet timings once printed, are
// removed, so the directory keeps exactly the output of every failing
// run. The command exits 1 when any rate is below 100%.
//
//	flakecensus bin/flake-census
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// tally counts one entry's passing, failing and skipped runs.
type tally struct{ pass, fail, skip int }

// census maps an entry — a test, a pin or a whole command — to its runs.
type census map[string]*tally

func (c census) add(name string, passed bool) {
	if passed {
		c.entry(name).pass++
	} else {
		c.entry(name).fail++
	}
}

func (c census) entry(name string) *tally {
	t := c[name]
	if t == nil {
		t = &tally{}
		c[name] = t
	}
	return t
}

// rate is the share of judged runs that passed: 1 when none was judged.
func (t *tally) rate() float64 {
	if t.pass+t.fail == 0 {
		return 1
	}
	return float64(t.pass) / float64(t.pass+t.fail)
}

const (
	testCommand = "go build ./... && go test ./..."
	pinsCommand = "make bench-allocs"
)

// event is the part of a go test -json event the census reads.
type event struct {
	Action, Package, Test string
}

// addTestRun tallies one go test -json stream and reports whether the
// run passed.
func (c census) addTestRun(r io.Reader) (bool, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	events, ok := 0, true
	for sc.Scan() {
		var e event
		if json.Unmarshal(sc.Bytes(), &e) != nil || e.Action == "" {
			ok = false // go build's own output, or a stream cut short
			continue
		}
		events++
		switch e.Action {
		case "pass", "fail", "skip":
			name := e.Package + " " + e.Test
			if e.Test == "" {
				name = e.Package + " (package)"
			}
			if e.Action == "skip" {
				if e.Test != "" { // a package skips when it has no tests
					c.entry(name).skip++
				}
				continue
			}
			c.add(name, e.Action == "pass")
			ok = ok && e.Action == "pass"
		case "build-fail":
			c.add(e.Package+" (build)", false)
			ok = false
		}
	}
	ok = ok && events > 0
	c.add(testCommand, ok)
	return ok, sc.Err()
}

// addPinsRun tallies one benchgate verdict and reports whether the run
// passed.
func (c census) addPinsRun(r io.Reader) (bool, error) {
	sc := bufio.NewScanner(r)
	ok := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasSuffix(line, "within pins") {
			ok = true
		}
		verdict, rest, found := strings.Cut(strings.TrimPrefix(line, "benchgate: "), " ")
		if !found || (verdict != "ok" && verdict != "FAIL") {
			continue
		}
		// "<name> <metric>: <values>"; a dangling pin's line names no
		// benchmark and counts under its own text.
		name, _, _ := strings.Cut(strings.TrimSpace(rest), ":")
		c.add("pin "+name, verdict == "ok")
	}
	c.add(pinsCommand, ok)
	return ok, sc.Err()
}

// run tallies every run file in dir, removes those of passing runs and
// writes the rates to out, least reliable first. It reports whether
// every entry passed every run.
func run(dir string, out io.Writer) (bool, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return false, err
	}
	c := census{}
	var vetRuns []int      // run numbers with a vet timing
	vetMS := map[int]int{} // run number → go vet's wall milliseconds
	for _, path := range files {
		var add func(io.Reader) (bool, error)
		switch base := filepath.Base(path); {
		case strings.HasPrefix(base, "test-") && strings.HasSuffix(base, ".json"):
			add = c.addTestRun
		case strings.HasPrefix(base, "pins-") && strings.HasSuffix(base, ".out"):
			add = c.addPinsRun
		case strings.HasPrefix(base, "vet-") && strings.HasSuffix(base, ".ms"):
			n, err1 := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(base, "vet-"), ".ms"))
			b, err2 := os.ReadFile(path)
			ms, err3 := strconv.Atoi(strings.TrimSpace(string(b)))
			if err := errors.Join(err1, err2, err3); err != nil {
				return false, fmt.Errorf("%s: %w", path, err)
			}
			vetRuns, vetMS[n] = append(vetRuns, n), ms
			if err := os.Remove(path); err != nil {
				return false, err
			}
			continue
		default:
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return false, err
		}
		passed, err := add(f)
		f.Close()
		if err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
		if passed {
			if err := os.Remove(path); err != nil {
				return false, err
			}
		}
	}
	if len(c) == 0 {
		return false, fmt.Errorf("no test-N.json or pins-N.out runs in %s", dir)
	}
	names := make([]string, 0, len(c))
	for name := range c {
		names = append(names, name)
	}
	slices.SortFunc(names, func(a, b string) int {
		if ra, rb := c[a].rate(), c[b].rate(); ra != rb {
			if ra < rb {
				return -1
			}
			return 1
		}
		return strings.Compare(a, b)
	})
	clean := true
	for _, name := range names {
		t := c[name]
		pct := "    n/a"
		if t.pass+t.fail > 0 {
			pct = fmt.Sprintf("%6.1f%%", 100*t.rate())
		}
		skipped := ""
		if t.skip > 0 {
			skipped = fmt.Sprintf("  (skipped in %d)", t.skip)
		}
		fmt.Fprintf(out, "%4d/%-4d %s  %s%s\n", t.pass, t.pass+t.fail, pct, name, skipped)
		clean = clean && t.fail == 0
	}
	if len(vetRuns) > 0 {
		slices.Sort(vetRuns)
		secs := make([]string, len(vetRuns))
		for i, n := range vetRuns {
			secs[i] = strconv.FormatFloat(float64(vetMS[n])/1000, 'f', 1, 64)
		}
		fmt.Fprintf(out, "load: go vet ./... beside test runs %d..%d took %s s\n", vetRuns[0], vetRuns[len(vetRuns)-1], strings.Join(secs, " "))
	}
	return clean, nil
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: flakecensus DIR")
		os.Exit(2)
	}
	clean, err := run(os.Args[1], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flakecensus:", err)
		os.Exit(2)
	}
	if !clean {
		fmt.Fprintf(os.Stderr, "flakecensus: a rate is below 100%%; the failing runs' output is in %s\n", os.Args[1])
		os.Exit(1)
	}
}
