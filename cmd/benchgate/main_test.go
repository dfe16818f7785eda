package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

func testPins(t *testing.T, lines ...string) []*pin {
	t.Helper()
	return writePins(t, false, lines...)
}

func writePins(t *testing.T, ceilings bool, lines ...string) []*pin {
	t.Helper()
	path := t.TempDir() + "/PINS"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pins, err := loadPins(path, ceilings)
	if err != nil {
		t.Fatal(err)
	}
	return pins
}

func runGate(t *testing.T, pins []*pin, base map[string]entry, input string) (checked, violations int) {
	t.Helper()
	checked, violations, err := gate(pins, base, strings.NewReader(input), io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return checked, violations
}

func TestGateWithinTolerance(t *testing.T) {
	// A ceiling in the same file is not a ratchet: were it read as one,
	// BenchmarkBar would fail as a dangling pin.
	pins := testPins(t, "BenchmarkFoo ns_per_op 2", "BenchmarkBar allocs_per_op max 0")
	base := map[string]entry{"BenchmarkFoo": {NsPerOp: 100}}
	checked, violations := runGate(t, pins, base, "BenchmarkFoo-8  1000  150 ns/op\n")
	if checked != 1 || violations != 0 {
		t.Fatalf("checked %d / violations %d, want 1 / 0", checked, violations)
	}
}

func TestGateCatchesRegression(t *testing.T) {
	pins := testPins(t, "BenchmarkFoo ns_per_op 2")
	base := map[string]entry{"BenchmarkFoo": {NsPerOp: 100}}
	if _, violations := runGate(t, pins, base, "BenchmarkFoo-8  1000  250 ns/op\n"); violations != 1 {
		t.Fatalf("violations = %d, want 1", violations)
	}
	// Rates regress downward.
	pins = testPins(t, "BenchmarkBar samples/s 2")
	base = map[string]entry{"BenchmarkBar": {Metrics: map[string]float64{"samples/s": 1000}}}
	if _, violations := runGate(t, pins, base, "BenchmarkBar-8  1000  10 ns/op  400 samples/s\n"); violations != 1 {
		t.Fatalf("rate violations = %d, want 1", violations)
	}
}

func TestGateDanglingPinFails(t *testing.T) {
	pins := testPins(t, "BenchmarkFoo ns_per_op 2", "BenchmarkGone ns_per_op 2")
	base := map[string]entry{"BenchmarkFoo": {NsPerOp: 100}}
	if _, violations := runGate(t, pins, base, "BenchmarkFoo-8  1000  100 ns/op\n"); violations != 1 {
		t.Fatalf("violations = %d, want 1 (renamed pin must fail)", violations)
	}
}

func TestGateShadowedPinIsNotDangling(t *testing.T) {
	// Every benchmark matching the short pin is guarded by the longer
	// one; the short pin must still count as matched, not fail the run.
	pins := testPins(t,
		"BenchmarkFoo ns_per_op 2",
		"BenchmarkFooBar ns_per_op 3",
	)
	base := map[string]entry{"BenchmarkFooBar": {NsPerOp: 100}}
	checked, violations := runGate(t, pins, base, "BenchmarkFooBar-8  1000  120 ns/op\n")
	if violations != 0 {
		t.Fatalf("violations = %d, want 0 (shadowed pin flagged as dangling)", violations)
	}
	// Only the longer pin actually checks the metric.
	if checked != 1 {
		t.Fatalf("checked = %d, want 1", checked)
	}
	// And the longer pin's tolerance is the one applied: 250 ns/op is
	// within 3x of 100 but past the shorter pin's 2x.
	if _, violations := runGate(t, pins, base, "BenchmarkFooBar-8  1000  250 ns/op\n"); violations != 0 {
		t.Fatalf("violations = %d, want 0 (longest prefix's tolerance governs)", violations)
	}
}

// TestAllocCeilings covers the ceiling lines: absolute allocs/op
// ceilings with no baseline, longest prefix winning, and the same
// dangling-pin rule as the ratchet.
func TestAllocCeilings(t *testing.T) {
	const run = "BenchmarkMulInto/64x100x10-4  1  900 ns/op  0 B/op  1 allocs/op\n" +
		"BenchmarkApplyInto/BH-4  1  900 ns/op  16 B/op  2 allocs/op\n" +
		"BenchmarkUnpinned-4  1  900 ns/op  999 B/op  99 allocs/op\n"
	for _, tc := range []struct {
		name                string
		pins                []string
		input               string
		checked, violations int
	}{
		{"within ceilings", []string{"BenchmarkMulInto allocs_per_op max 1", "BenchmarkApplyInto allocs_per_op max 2"}, run, 2, 0},
		{"over ceiling fails", []string{"BenchmarkMulInto allocs_per_op max 1", "BenchmarkApplyInto allocs_per_op max 0"}, run, 2, 1},
		{"longest prefix overrides the family pin", []string{"BenchmarkMulInto allocs_per_op max 1", "BenchmarkApplyInto allocs_per_op max 0", "BenchmarkApplyInto/BH allocs_per_op max 2"}, run, 2, 0},
		{"dangling alloc pin fails", []string{"BenchmarkMulInto allocs_per_op max 1", "BenchmarkGone allocs_per_op max 0"}, run, 1, 1},
		{"a ratchet is not a ceiling", []string{"BenchmarkMulInto allocs_per_op max 1", "BenchmarkGone ns_per_op 2"}, run, 1, 0},
		{"a run without -benchmem matches nothing", []string{"BenchmarkMulInto allocs_per_op max 1"}, "BenchmarkMulInto/64x100x10-4  1  900 ns/op\n", 0, 1},
	} {
		checked, violations := runGate(t, writePins(t, true, tc.pins...), nil, tc.input)
		if checked != tc.checked || violations != tc.violations {
			t.Errorf("%s: checked %d / violations %d, want %d / %d", tc.name, checked, violations, tc.checked, tc.violations)
		}
	}
}

// TestCustomMetricCeiling: a ceiling on a unit the benchmark reports
// itself — a count per op, where more is worse whatever the unit — and
// a run that does not report it fails (missing, and so dangling)
// rather than passing unchecked.
func TestCustomMetricCeiling(t *testing.T) {
	pins := writePins(t, true, "BenchmarkCycle rpcs/op max 2", "BenchmarkMulInto allocs_per_op max 1")
	const mul = "BenchmarkMulInto-4  1  900 ns/op  0 B/op  1 allocs/op\n"
	for _, tc := range []struct {
		name                string
		input               string
		checked, violations int
	}{
		{"at the ceiling", "BenchmarkCycle-4  1  90000 ns/op  2.000 rpcs/op  900 B/op  30 allocs/op\n" + mul, 2, 0},
		{"over the ceiling", "BenchmarkCycle-4  1  90000 ns/op  3.000 rpcs/op  900 B/op  30 allocs/op\n" + mul, 2, 1},
		{"under the ceiling is no regression", "BenchmarkCycle-4  1  90000 ns/op  1.000 rpcs/op\n" + mul, 2, 0},
		{"metric not reported", "BenchmarkCycle-4  1  90000 ns/op  900 B/op  30 allocs/op\n" + mul, 1, 2},
	} {
		checked, violations := runGate(t, pins, nil, tc.input)
		if checked != tc.checked || violations != tc.violations {
			t.Errorf("%s: checked %d / violations %d, want %d / %d", tc.name, checked, violations, tc.checked, tc.violations)
		}
		for _, p := range pins {
			p.hits = 0
		}
	}
}

// TestRecordRoundTrips covers the -json mode: what record writes is
// what the ratchet's own loader reads back, so a run gates clean
// against its own record and a later 3x slowdown does not.
func TestRecordRoundTrips(t *testing.T) {
	const run = "goos: linux\ncpu: test\n" +
		"BenchmarkFoo-8  1000  150 ns/op  2000 samples/s  48 B/op  3 allocs/op\nPASS\n"
	path := t.TempDir() + "/BENCH_test.json"
	if err := record(strings.NewReader(run), path); err != nil {
		t.Fatal(err)
	}
	base, err := loadBaselines([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	want := entry{Iterations: 1000, NsPerOp: 150, BytesPerOp: 48, AllocsPerOp: 3, Metrics: map[string]float64{"samples/s": 2000}}
	if got := base["BenchmarkFoo"]; got.Iterations != want.Iterations || got.NsPerOp != want.NsPerOp ||
		got.BytesPerOp != want.BytesPerOp || got.AllocsPerOp != want.AllocsPerOp || got.Metrics["samples/s"] != 2000 {
		t.Fatalf("read back %+v, want %+v", got, want)
	}
	lines := []string{"BenchmarkFoo ns_per_op 2", "BenchmarkFoo samples/s 2", "BenchmarkFoo allocs_per_op 1"}
	if checked, violations := runGate(t, testPins(t, lines...), base, run); checked != 3 || violations != 0 {
		t.Fatalf("a run against its own record: checked %d / violations %d, want 3 / 0", checked, violations)
	}
	slow := "BenchmarkFoo-8  1000  450 ns/op  2000 samples/s  48 B/op  3 allocs/op\n"
	if _, violations := runGate(t, testPins(t, lines...), base, slow); violations != 1 {
		t.Fatalf("3x slower against the record: violations %d, want 1", violations)
	}
	if err := record(strings.NewReader("PASS\n"), path); err == nil {
		t.Fatal("recording a run with no benchmark lines must fail")
	}
}
