package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/fdr"
)

// trainedEvaluator fits a small model on Gaussian noise and returns an
// evaluator plus a batch containing both healthy rows and rows with an
// injected shift, so the flag-building path is exercised.
func trainedEvaluator(t *testing.T, proc fdr.Procedure, sensors int) (*Evaluator, [][]float64, []int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	mean := constVec(sensors, 5)
	sigma := constVec(sensors, 2)
	m, err := TrainUnit(4, gaussianWindow(rng, 600, sensors, mean, sigma))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(m, EvaluatorConfig{Procedure: proc})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 9
	xs := gaussianWindow(rng, batch, sensors, mean, sigma)
	for i := 3; i < 6; i++ { // shift a third of the rows 8σ on a few sensors
		for j := 0; j < 3; j++ {
			xs[i][j] += 16
		}
	}
	ts := make([]int64, batch)
	for i := range ts {
		ts[i] = int64(100 + i)
	}
	return ev, xs, ts
}

func reportsEqual(t *testing.T, got, want *Report, label string) {
	t.Helper()
	if got.Unit != want.Unit || got.Timestamp != want.Timestamp {
		t.Fatalf("%s: identity mismatch: got (%d,%d) want (%d,%d)", label, got.Unit, got.Timestamp, want.Unit, want.Timestamp)
	}
	if got.T2 != want.T2 || got.T2P != want.T2P {
		t.Fatalf("%s: T² mismatch: got (%v,%v) want (%v,%v)", label, got.T2, got.T2P, want.T2, want.T2P)
	}
	if len(got.PValues) != len(want.PValues) || len(got.Rejected) != len(want.Rejected) {
		t.Fatalf("%s: slice length mismatch", label)
	}
	for j := range want.PValues {
		if got.PValues[j] != want.PValues[j] {
			t.Fatalf("%s: PValues[%d] = %v, want %v", label, j, got.PValues[j], want.PValues[j])
		}
		if got.Rejected[j] != want.Rejected[j] {
			t.Fatalf("%s: Rejected[%d] = %v, want %v", label, j, got.Rejected[j], want.Rejected[j])
		}
	}
	if len(got.Flags) != len(want.Flags) {
		t.Fatalf("%s: %d flags, want %d", label, len(got.Flags), len(want.Flags))
	}
	for k := range want.Flags {
		if got.Flags[k] != want.Flags[k] {
			t.Fatalf("%s: Flags[%d] = %+v, want %+v", label, k, got.Flags[k], want.Flags[k])
		}
	}
}

// TestEvaluateBatchIntoMatchesEvaluateBatch proves the arena path and
// the detached path produce identical reports — same rejections,
// p-values, flags (with adjusted p-values) and T² — for every
// correction procedure, with the arena reused across procedures so
// stale-state leakage would be caught.
func TestEvaluateBatchIntoMatchesEvaluateBatch(t *testing.T) {
	var arena Arena
	for _, proc := range fdr.Procedures {
		t.Run(proc.String(), func(t *testing.T) {
			ev, xs, ts := trainedEvaluator(t, proc, 40)
			want, err := ev.EvaluateBatch(xs, ts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ev.EvaluateBatchInto(xs, ts, &arena)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d reports, want %d", len(got), len(want))
			}
			flagged := 0
			for i := range want {
				reportsEqual(t, got[i], want[i], fmt.Sprintf("row %d", i))
				flagged += len(want[i].Flags)
			}
			if flagged == 0 {
				t.Fatal("test batch produced no flags; the flag path was not exercised")
			}
		})
	}
}

// TestEvaluateBatchIntoCopyOnRetain documents the retention contract:
// reports from EvaluateBatchInto are backed by the arena and change
// under the caller's feet on its next use, while Clone detaches them.
func TestEvaluateBatchIntoCopyOnRetain(t *testing.T) {
	ev, xs, ts := trainedEvaluator(t, fdr.BH, 20)
	var arena Arena
	first, err := ev.EvaluateBatchInto(xs[:1], ts[:1], &arena)
	if err != nil {
		t.Fatal(err)
	}
	kept := first[0]
	cloned := kept.Clone()
	p0 := kept.PValues[0]
	if _, err := ev.EvaluateBatchInto(xs[1:2], ts[1:2], &arena); err != nil {
		t.Fatal(err)
	}
	if kept.PValues[0] == p0 {
		t.Fatal("arena reuse should have overwritten the retained report's backing (did the arena stop being shared?)")
	}
	if cloned.PValues[0] != p0 {
		t.Fatal("Clone must detach the report from the arena")
	}
}

// TestEvaluateBatchIntoZeroAllocSteadyState pins the warmed-arena
// allocation count at the documented constant: zero. The shape is kept
// under the parallel-multiply threshold so no worker goroutines spawn.
func TestEvaluateBatchIntoZeroAllocSteadyState(t *testing.T) {
	ev, xs, ts := trainedEvaluator(t, fdr.BH, 30)
	var arena Arena
	if _, err := ev.EvaluateBatchInto(xs, ts, &arena); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ev.EvaluateBatchInto(xs, ts, &arena); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EvaluateBatchInto allocated %v times per call, want 0", allocs)
	}
}

// TestEvaluateMatchesBatchRow checks the single-observation wrapper
// (which routes through the pooled batch path) against the batch API.
func TestEvaluateMatchesBatchRow(t *testing.T) {
	ev, xs, ts := trainedEvaluator(t, fdr.BH, 25)
	batch, err := ev.EvaluateBatch(xs, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		single, err := ev.Evaluate(xs[i], ts[i])
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, single, batch[i], fmt.Sprintf("row %d", i))
	}
}

// TestEvaluatorConcurrentBatches hammers one evaluator from many
// goroutines (each borrowing a pooled arena) and checks every result
// against the serial answer; run under -race this doubles as the
// concurrency-safety proof for the pooled scratch.
func TestEvaluatorConcurrentBatches(t *testing.T) {
	ev, xs, ts := trainedEvaluator(t, fdr.BH, 35)
	want, err := ev.EvaluateBatch(xs, ts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				got, err := ev.EvaluateBatch(xs, ts)
				if err != nil {
					errs <- err
					return
				}
				for i := range want {
					for j := range want[i].PValues {
						if got[i].PValues[j] != want[i].PValues[j] || got[i].Rejected[j] != want[i].Rejected[j] {
							errs <- fmt.Errorf("row %d sensor %d diverged under concurrency", i, j)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}
