package core

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"time"

	"repro/internal/fdr"
	"repro/internal/mllib"
)

func BenchmarkEvaluateBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, sensors := range []int{100, 1000} {
		mean := constVec(sensors, 10)
		sigma := constVec(sensors, 2)
		m, err := TrainUnit(0, gaussianWindow(rng, 512, sensors, mean, sigma))
		if err != nil {
			b.Fatal(err)
		}
		ev, err := NewEvaluator(m, EvaluatorConfig{Procedure: fdr.BH})
		if err != nil {
			b.Fatal(err)
		}
		const batch = 64
		xs := gaussianWindow(rng, batch, sensors, mean, sigma)
		ts := make([]int64, batch)
		b.Run(fmt.Sprintf("sensors=%d", sensors), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ev.EvaluateBatch(xs, ts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batch*sensors)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}

// BenchmarkEvaluateBatchInto is the zero-allocation arena path: the
// same workload as BenchmarkEvaluateBatch without the detach copies.
func BenchmarkEvaluateBatchInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, sensors := range []int{100, 1000} {
		mean := constVec(sensors, 10)
		sigma := constVec(sensors, 2)
		m, err := TrainUnit(0, gaussianWindow(rng, 512, sensors, mean, sigma))
		if err != nil {
			b.Fatal(err)
		}
		ev, err := NewEvaluator(m, EvaluatorConfig{Procedure: fdr.BH})
		if err != nil {
			b.Fatal(err)
		}
		const batch = 64
		xs := gaussianWindow(rng, batch, sensors, mean, sigma)
		ts := make([]int64, batch)
		b.Run(fmt.Sprintf("sensors=%d", sensors), func(b *testing.B) {
			var arena Arena
			if _, err := ev.EvaluateBatchInto(xs, ts, &arena); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ev.EvaluateBatchInto(xs, ts, &arena); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batch*sensors)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}

// BenchmarkDetectorBatchMGD pins the detector-interface adapter: the
// zero-allocation contract of EvaluateBatchInto must survive the
// mllib.Detector wrapping (adapter-owned arena, flags copied into the
// caller's warmed Detections buffer).
func BenchmarkDetectorBatchMGD(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const sensors = 200
	mean := constVec(sensors, 10)
	sigma := constVec(sensors, 2)
	m, err := TrainUnit(0, gaussianWindow(rng, 512, sensors, mean, sigma))
	if err != nil {
		b.Fatal(err)
	}
	d, err := NewMGDDetector(m, EvaluatorConfig{Procedure: fdr.BH})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 64
	xs := gaussianWindow(rng, batch, sensors, mean, sigma)
	ts := make([]int64, batch)
	var det Detections
	// Two warm calls: the first grows the arena, the second settles the
	// FDR scratch the arena only sizes after seeing a full batch.
	for w := 0; w < 2; w++ {
		if err := d.DetectBatchInto(xs, ts, &det); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.DetectBatchInto(xs, ts, &det); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(batch*sensors)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkDetectorBatchEnsemble pins the default ensemble — the
// registry's mgd+cusum+zscore panel over a trained model — at the same
// zero-allocation contract: warmed members, vote buffers and flag
// buffer score a batch without touching the heap. It lives here, not
// beside the ensemble in mllib, because mgd registers in this package.
func BenchmarkDetectorBatchEnsemble(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const sensors, batch = 32, 64
	mean := constVec(sensors, 10)
	sigma := constVec(sensors, 2)
	m, err := TrainUnit(0, gaussianWindow(rng, 512, sensors, mean, sigma))
	if err != nil {
		b.Fatal(err)
	}
	d, err := mllib.New("ensemble", mllib.Context{
		Sensors:   sensors,
		LoadModel: func() (any, error) { return m, nil },
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := make([]int64, batch)
	var det Detections
	// Four healthy warm batches: the streaming members' calibration
	// windows, the mgd arena and the vote buffers all settle.
	for w := 0; w < 4; w++ {
		if err := d.DetectBatchInto(gaussianWindow(rng, batch, sensors, mean, sigma), ts, &det); err != nil {
			b.Fatal(err)
		}
	}
	xs := gaussianWindow(rng, batch, sensors, mean, sigma)
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
	b.ReportMetric(float64(batch*sensors)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkTrainUnit times one unit's fit: covariance, eigendecomposition
// and model. 200 sensors over a 256-row window is the benchmark fleet's
// unit (detect-paced trains eight of them in its set-up); 1000 sensors
// over 1024 rows is the widest unit the paper cites. Besides the wall
// ns/op it reports cpu-ns/op, the process's CPU time per fit: work that
// other processes on a busy host do not inflate.
func BenchmarkTrainUnit(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, shape := range []struct{ sensors, rows int }{{200, 256}, {1000, 1024}} {
		sensors := shape.sensors
		window := gaussianWindow(rng, shape.rows, sensors, constVec(sensors, 0), constVec(sensors, 1))
		b.Run(fmt.Sprintf("sensors=%d", sensors), func(b *testing.B) {
			b.ReportAllocs()
			cpu0 := cpuTime()
			for b.Loop() {
				if _, err := TrainUnit(0, window); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cpuTime()-cpu0)/float64(b.N), "cpu-ns/op")
		})
	}
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
