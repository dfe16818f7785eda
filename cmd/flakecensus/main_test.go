package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCensusRatesAndKeepsFailures: two test runs and two pin runs, one
// of each failing, give one rate per test and pin, least reliable
// first, a skipped test shows how often it was skipped, the vet
// timings print as the load, and only the failing runs' files stay.
func TestCensusRatesAndKeepsFailures(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"test-1.json": `{"Action":"run","Package":"p","Test":"TestA"}
{"Action":"pass","Package":"p","Test":"TestA"}
{"Action":"pass","Package":"p","Test":"TestB"}
{"Action":"skip","Package":"p","Test":"TestC"}
{"Action":"skip","Package":"q"}
{"Action":"pass","Package":"p"}
`,
		"test-2.json": `{"Action":"pass","Package":"p","Test":"TestA"}
{"Action":"fail","Package":"p","Test":"TestB"}
{"Action":"fail","Package":"p"}
`,
		"pins-1.out": `benchgate: ok   BenchmarkX allocs_per_op: 0 vs baseline 0 (limit 0)
benchgate: 1 metric(s) within pins
`,
		"pins-2.out": `benchgate: FAIL BenchmarkX allocs_per_op: 2 vs baseline 0 (limit 0, tolerance 1x, pin max 0)
benchgate: 1 violation(s)
`,
		"vet-1.ms":  "41250\n",
		"vet-2.ms":  "9800\n",
		"notes.txt": "unrelated\n",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	clean, err := run(dir, &out)
	if err != nil || clean {
		t.Fatalf("run = %v, %v; want a failing census", clean, err)
	}
	want := `   1/2      50.0%  go build ./... && go test ./...
   1/2      50.0%  make bench-allocs
   1/2      50.0%  p (package)
   1/2      50.0%  p TestB
   1/2      50.0%  pin BenchmarkX allocs_per_op
   2/2     100.0%  p TestA
   0/0        n/a  p TestC  (skipped in 1)
load: go vet ./... beside test runs 1..2 took 41.2 9.8 s
`
	if out.String() != want {
		t.Fatalf("census:\n%s\nwant:\n%s", out.String(), want)
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*"))
	for i := range left {
		left[i] = filepath.Base(left[i])
	}
	if strings.Join(left, " ") != "notes.txt pins-2.out test-2.json" {
		t.Fatalf("kept %v, want the failing runs' files (and the unrelated one)", left)
	}
}

// TestCensusFailsARunWithoutEvents: a run whose go build failed leaves
// no go test -json event, only the build's text — a failed run.
func TestCensusFailsARunWithoutEvents(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "test-1.json"), []byte("main.go:3: undefined: x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if clean, err := run(dir, &out); err != nil || clean {
		t.Fatalf("run = %v, %v; want a failing census", clean, err)
	}
	if !strings.Contains(out.String(), "0/1       0.0%  go build ./... && go test ./...") {
		t.Fatalf("census:\n%s", out.String())
	}
}
