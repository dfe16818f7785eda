package sentinel

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkDetectorPoolFanout measures the streaming detector tier in
// isolation: a window of unit batches is staged on the commit log
// under a stopped timer, then a pool of N consumer-group workers
// drains and evaluates it. Only the consume-evaluate phase is timed,
// so the reported samples/s is the detector tier's own throughput and
// should scale with the worker count on multi-core (each worker owns a
// partition subset and evaluates through its private zero-allocation
// arena).
func BenchmarkDetectorPoolFanout(b *testing.B) {
	const (
		units   = 16
		sensors = 100
		window  = 32
	)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sys, err := New(Config{
				StorageNodes:   4,
				Units:          units,
				SensorsPerUnit: sensors,
				Partitions:     units,
				BusBuffer:      -1, // stage whole windows without backpressure
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			if _, err := sys.IngestRange(0, 64); err != nil {
				b.Fatal(err)
			}
			if err := sys.TrainFromTSDB(0, 64, true); err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// Stage the next window: the detector group accumulates
				// it as backlog while the storage tier drains it.
				sys.AttachDetectorGroup()
				if _, err := sys.IngestRange(64+int64(i)*window, window); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				pool := sys.StartDetectors(workers)
				if err := pool.Sync(ctx); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if got := pool.SamplesEvaluated.Value(); got != units*sensors*window {
					b.Fatalf("pool evaluated %d samples, want %d", got, units*sensors*window)
				}
				pool.Stop()
				b.StartTimer()
			}
			b.ReportMetric(float64(units*sensors*window)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}
