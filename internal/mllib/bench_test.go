package mllib

import (
	"testing"
)

// The BenchmarkDetectorBatch* family pins the steady-state batch path
// of every streaming detector at 0 allocs/op (PINS, enforced by
// make bench-allocs): a warmed detector scoring healthy batches into a
// warmed Detections buffer must not touch the heap. Warmup — baseline
// calibration, buffer growth — happens before the timer starts. The
// default ensemble holds mgd, so its benchmark lives in internal/core.

const (
	benchSensors = 32
	benchBatch   = 64
)

// benchBatchRows builds one healthy batch with deterministic noise.
func benchBatchRows(offset int) ([][]float64, []int64) {
	xs := make([][]float64, benchBatch)
	ts := make([]int64, benchBatch)
	for r := range xs {
		row := make([]float64, benchSensors)
		for s := range row {
			row[s] = noise(offset+r, s)
		}
		xs[r] = row
		ts[r] = int64(offset + r)
	}
	return xs, ts
}

// benchDetector warms d on three healthy batches (enough for every
// family's calibration window), then times
// the steady state on a fixed batch.
func benchDetector(b *testing.B, d Detector) {
	b.Helper()
	var det Detections
	for w := 0; w < 3; w++ {
		xs, ts := benchBatchRows(w * benchBatch)
		if err := d.DetectBatchInto(xs, ts, &det); err != nil {
			b.Fatal(err)
		}
	}
	xs, ts := benchBatchRows(3 * benchBatch)
	if err := d.DetectBatchInto(xs, ts, &det); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.DetectBatchInto(xs, ts, &det); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(benchBatch*benchSensors)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

func BenchmarkDetectorBatchCUSUM(b *testing.B) {
	d, err := NewCUSUM(benchSensors, 0, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchDetector(b, d)
}

func BenchmarkDetectorBatchZScore(b *testing.B) {
	d, err := NewRegimeZScore(benchSensors, 0, 0, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchDetector(b, d)
}
