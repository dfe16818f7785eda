package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fdr"
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

func BenchmarkTrainUnit(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, sensors := range []int{100, 500} {
		window := gaussianWindow(rng, 512, sensors, constVec(sensors, 0), constVec(sensors, 1))
		b.Run(fmt.Sprintf("sensors=%d", sensors), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := TrainUnit(0, window); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
