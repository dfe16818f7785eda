// Package benchparse parses `go test -bench` result lines: the single
// definition of benchmark-name normalization and value/unit pairing
// shared by cmd/benchgate's modes (the committed perf trajectory, the
// regression ratchet, the CI allocation gate), so they can never
// disagree about which benchmark a line belongs to or what it
// reported.
package benchparse

import (
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name has the trailing -GOMAXPROCS stripped so it is stable
	// across machines.
	Name       string
	Iterations int64
	NsPerOp    float64
	BytesPerOp float64
	// AllocsPerOp is meaningful only when HasAllocs is set (the run
	// used -benchmem).
	AllocsPerOp float64
	HasAllocs   bool
	// Metrics holds custom units (samples/s, GFLOPS, records/s, ...);
	// nil when the line reported none.
	Metrics map[string]float64
}

// Parse parses one line of benchmark output; ok is false for anything
// that is not a benchmark result line.
func Parse(line string) (r Result, ok bool) {
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, "Benchmark") {
		return Result{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r = Result{Name: TrimProcSuffix(fields[0]), Iterations: iters, Metrics: map[string]float64{}}
	// The remainder is value/unit pairs: `1234 ns/op  5 B/op  ...`.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
			r.HasAllocs = true
		default:
			r.Metrics[fields[i+1]] = v
		}
	}
	if len(r.Metrics) == 0 {
		r.Metrics = nil
	}
	return r, true
}

// TrimProcSuffix strips the trailing -GOMAXPROCS from a benchmark name
// so keys and pins are stable across machines.
func TrimProcSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
