package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	v1 "repro/internal/api/v1"
)

// Every check each scenario must make, by name: a check dropped from a
// scenario's table fails here.
func TestScenarioChecks(t *testing.T) {
	want := map[string][]string{
		"load": {
			"capacity calibrated",
			"ingest succeeded in drive",
			"bulk shed at overload",
			"shed priority order",
			"accepted-ingest p99 ≤ 250 ms",
			"accepted ingest ≥ 0.25 × calibrated capacity",
			"no non-shed errors",
			"storage drained",
			"verification queries answered",
			"zero acked loss",
		},
		"chaos": {
			"tsd-crash-restart publish ok", "tsd-crash-restart drained within budget",
			"rpc-error-burst publish ok", "rpc-error-burst drained within budget",
			"proxy-stall publish ok", "proxy-stall drained within budget",
			"breaker-blackout publish ok", "breaker-blackout drained within budget",
			"admission-blackout-shed publish ok", "admission-blackout-shed drained within budget",
			"tsd-2 crash and restart",
			"blackout opened a breaker",
			"breakers closed after breaker-blackout",
			"admission shed within 20,000 rows",
			"admission sheds > 0",
			"admission 0 non-shed errors",
			"breakers closed after admission-blackout-shed",
			"admission band queryable ≥ acked",
			"detector pool caught up",
			"every series has every step",
			"0 publish failures",
			"published == expected",
			"0 acked-sample loss",
			"0 proxy drops",
			"reader issued queries",
			"0 reader failures",
			"degraded reads > 0",
			"breaker cycle complete",
			"anomalies written",
			"0 detector errors",
		},
		"cluster": {
			"broker leads bus election",
			"gateway ready",
			"every step acked",
			"all acked samples read back",
			"promoted leader visible",
			"restarted broker on the map",
			"anomaly on SSE",
		},
	}
	if len(scenarios) != len(want) {
		t.Fatalf("%d scenarios, want %d", len(scenarios), len(want))
	}
	for name, checks := range want {
		if got := scenarios[name].checks; !slices.Equal(got, checks) {
			t.Errorf("%s checks:\n got %q\nwant %q", name, got, checks)
		}
	}
}

func TestOneFailedCheckFailsTheScenario(t *testing.T) {
	rep := newReport([]string{"first", "second", "third"}, config{})
	rep.check("first", true, "%d", 1)
	rep.check("second", false, "%d", 2)
	err := rep.verdict()
	if err == nil {
		t.Fatal("a failed and an unmade check passed the scenario")
	}
	if msg := err.Error(); !strings.Contains(msg, "second; third") || strings.Contains(msg, "first") {
		t.Fatalf("verdict %q: want the failed and the unmade check named, not the passed one", msg)
	}
	rep.check("second", true, "%d", 2)
	rep.check("third", true, "%d", 3)
	if err := rep.verdict(); err != nil {
		t.Fatalf("every check passed, verdict %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a check missing from the table was recorded")
		}
	}()
	rep.check("fourth", true, "")
}

// TestAckedLossCountsAnsweredReads: a read refused after one was
// answered keeps the answered count, and with no read answered "zero
// acked loss" fails as not verified, not as a loss of every sample.
func TestAckedLossCountsAnsweredReads(t *testing.T) {
	shed := errors.New("gateway overloaded")
	ctx, cancel := context.WithTimeout(context.Background(), 1200*time.Millisecond)
	defer cancel()
	reads := 0
	n, answered, err := verifyAcked(ctx, 10, func() (int64, error) {
		if reads++; reads == 1 {
			return 9, nil
		}
		return 0, shed
	})
	if n != 9 || !answered || !errors.Is(err, shed) || reads < 2 {
		t.Fatalf("after an answer then a refusal: %d queryable, answered %t, err %v, %d reads", n, answered, err, reads)
	}
	rep := newReport([]string{"zero acked loss"}, config{})
	lossCheck(rep, n, 10, answered, err)
	if c := rep.Checks[0]; c.Pass || c.Observed != "9 of 10 acked samples queryable" {
		t.Fatalf("short answered read: %+v", c)
	}
	lossCheck(rep, 10, 10, true, nil)
	if c := rep.Checks[0]; !c.Pass {
		t.Fatalf("every acked sample read back: %+v", c)
	}
	lossCheck(rep, 0, 10, false, shed)
	if c := rep.Checks[0]; c.Pass || c.Observed != "not verified: gateway overloaded" {
		t.Fatalf("no read answered: %+v", c)
	}
}

// Each scenario writes its own section; the others stay as they were.
func TestWriteSectionKeepsOtherScenarios(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	for _, name := range []string{"load", "chaos", "load"} {
		if err := writeSection(path, name, newReport([]string{name}, config{seed: 7})); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s := string(data); strings.Count(s, `"seed": 7`) != 2 || !strings.Contains(s, `"chaos"`) {
		t.Fatalf("report:\n%s", s)
	}
}

// A request due while the server stalled is charged from its scheduled
// send, not from when the stalled worker got round to it.
func TestOpenLoopChargesTheStall(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	cs := new(classStats)
	var calls atomic.Int64
	openLoop(ctx, 1000, 1, cs, func(context.Context) error {
		if calls.Add(1) == 1 {
			time.Sleep(50 * time.Millisecond)
		}
		return nil
	})
	// Requests 1..49 were due during the 50 ms stall: ≈ 1.2 s of waiting
	// in all, where timing from the actual send would find ≈ 0.
	if behind := time.Duration(cs.hist.Sum() - cs.hist.Max()); behind < 500*time.Millisecond {
		t.Fatalf("requests queued behind the stall were charged %s in all, want ≥ 500ms", behind)
	}
}

func TestLedgerWritesEachCellOnce(t *testing.T) {
	const units, sensors, writers, rows = 3, 4, 8, 100
	l := newLedger(units, sensors, 1000, func(int64, int, int) float64 { return 0 })
	var mu sync.Mutex
	sent := map[[3]int64]int{}
	send := func(_ context.Context, pts []v1.Point) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range pts {
			unit, _ := strconv.Atoi(p.Tags["unit"])
			sensor, _ := strconv.Atoi(p.Tags["sensor"])
			sent[[3]int64{int64(unit), p.Timestamp, int64(sensor)}]++
		}
		return len(pts), nil
	}
	var wg sync.WaitGroup
	for range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rows {
				if err := l.put(context.Background(), send, l.next()); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	for cell, n := range sent {
		if n != 1 {
			t.Fatalf("cell %v written %d times", cell, n)
		}
	}
	if want := writers * rows * sensors; len(sent) != want || l.ackedSamples() != int64(want) {
		t.Fatalf("%d cells sent, %d acked, want %d", len(sent), l.ackedSamples(), want)
	}
	if from, to := l.span(); from != 1000 || to != 1000+writers*rows/units {
		t.Fatalf("span [%d, %d]", from, to)
	}
	refused := func(context.Context, []v1.Point) (int, error) { return 0, errors.New("shed") }
	if err := l.put(context.Background(), refused, l.next()); err == nil || l.ackedSamples() != writers*rows*sensors {
		t.Fatalf("a refused row: error %v, %d acked", err, l.ackedSamples())
	}
}
