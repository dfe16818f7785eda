package admission

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

// Every test runs on virtual time: a clock.Manual the test steps.
func newClock() *clock.Manual { return clock.NewManual(time.Unix(0, 0)) }

func newTestController(load *atomic.Int64, limit int64, clk *clock.Manual) *Controller {
	return NewController(Config{
		Signals: []Signal{{Name: "lag", Load: load.Load, Limit: limit}},
		Clock:   clk,
	})
}

// idleSignal is a queue that never fills: it turns pressure shedding
// on without contributing to it, so the gradient tests see the
// gradient alone.
var idleSignal = []Signal{{Name: "idle", Load: func() int64 { return 0 }, Limit: 100}}

func TestClassThresholdOrdering(t *testing.T) {
	var load atomic.Int64
	clk := newClock()
	c := newTestController(&load, 100, clk)

	check := func(wantBulk, wantInteractive, wantIngest bool) {
		t.Helper()
		c.Recompute()
		if got := c.Admit(Bulk, "").OK; got != wantBulk {
			t.Errorf("pressure %.2f: bulk admitted = %v, want %v", c.Pressure(), got, wantBulk)
		}
		if got := c.Admit(Interactive, "").OK; got != wantInteractive {
			t.Errorf("pressure %.2f: interactive admitted = %v, want %v", c.Pressure(), got, wantInteractive)
		}
		if got := c.Admit(Ingest, "").OK; got != wantIngest {
			t.Errorf("pressure %.2f: ingest admitted = %v, want %v", c.Pressure(), got, wantIngest)
		}
		if !c.Admit(Exempt, "").OK {
			t.Error("exempt shed")
		}
	}

	load.Store(0) // idle: everyone in
	check(true, true, true)
	load.Store(60) // past bulk threshold only
	check(false, true, true)
	load.Store(80) // interactive sheds too
	check(false, false, true)
	load.Store(120) // over budget: ingest sheds last
	check(false, false, false)
	load.Store(10) // recovery
	check(true, true, true)

	if c.ShedTotal() != 6 {
		t.Errorf("ShedTotal = %d, want 6", c.ShedTotal())
	}
	if got := c.Shed[Bulk].Value(); got != 3 {
		t.Errorf("bulk sheds = %d, want 3", got)
	}
}

func TestShedDecisionShape(t *testing.T) {
	var load atomic.Int64
	clk := newClock()
	c := newTestController(&load, 100, clk)
	load.Store(300) // pressure 3.0
	c.Recompute()
	d := c.Admit(Ingest, "")
	if d.OK || d.Status != 503 {
		t.Fatalf("decision = %+v, want shed 503", d)
	}
	// 1s at the threshold + 2s per unit of excess: 1 + 2*(3-1) = 5.
	if d.RetryAfter != 5 {
		t.Errorf("RetryAfter = %d, want 5", d.RetryAfter)
	}
	load.Store(10_000)
	c.Recompute()
	if d := c.Admit(Ingest, ""); d.RetryAfter != 8 {
		t.Errorf("RetryAfter = %d, want capped at 8", d.RetryAfter)
	}
}

func TestRecomputeThrottled(t *testing.T) {
	var load atomic.Int64
	clk := newClock()
	c := newTestController(&load, 100, clk)
	load.Store(500)
	clk.Advance(time.Second) // move past the initial tick at t=0
	c.Admit(Ingest, "")      // first Admit recomputes
	if c.Pressure() != 5 {
		t.Fatalf("pressure = %v, want 5", c.Pressure())
	}
	load.Store(0)
	c.Admit(Ingest, "") // within the window: stale pressure holds
	if c.Pressure() != 5 {
		t.Fatalf("pressure refreshed inside RecomputeEvery window")
	}
	clk.Advance(150 * time.Millisecond)
	c.Admit(Ingest, "")
	if c.Pressure() != 0 {
		t.Fatalf("pressure = %v, want 0 after window elapsed", c.Pressure())
	}
}

func TestLatencyGradientRaisesPressure(t *testing.T) {
	clk := newClock()
	c := NewController(Config{Signals: idleSignal, Clock: clk})
	// Establish a ~2ms baseline, then spike to 60ms: fast EWMA runs
	// far ahead of slow and the gradient alone must shed bulk.
	for i := 0; i < 200; i++ {
		c.ObserveLatency(Ingest, 2*time.Millisecond)
	}
	c.Recompute()
	if p := c.Pressure(); p >= 0.5 {
		t.Fatalf("steady-state pressure = %v, want < 0.5", p)
	}
	for i := 0; i < 20; i++ {
		c.ObserveLatency(Ingest, 60*time.Millisecond)
	}
	c.Recompute()
	if p := c.Pressure(); p < 0.5 {
		t.Fatalf("post-spike pressure = %v, want ≥ 0.5", p)
	}
	if c.Admit(Bulk, "").OK {
		t.Fatal("bulk admitted during latency spike")
	}
}

func TestGradientIgnoresSubMillisecondNoise(t *testing.T) {
	clk := newClock()
	c := NewController(Config{Signals: idleSignal, Clock: clk})
	// A 10× gradient entirely below MinLatency is noise, not load.
	for i := 0; i < 200; i++ {
		c.ObserveLatency(Ingest, 100*time.Microsecond)
	}
	for i := 0; i < 20; i++ {
		c.ObserveLatency(Ingest, time.Millisecond)
	}
	c.Recompute()
	if p := c.Pressure(); p != 0 {
		t.Fatalf("pressure = %v, want 0 below MinLatency", p)
	}
}

func TestNonIngestLatencyIgnored(t *testing.T) {
	clk := newClock()
	c := NewController(Config{Signals: idleSignal, Clock: clk})
	for i := 0; i < 100; i++ {
		c.ObserveLatency(Bulk, time.Second)
	}
	c.Recompute()
	if p := c.Pressure(); p != 0 {
		t.Fatalf("pressure = %v, want 0 (bulk latency must not move the gradient)", p)
	}
}

// TestTenantQuota: every identity has its own bucket of the one
// configured budget; an empty bucket answers 429 with the time to the
// next token, counts as rate-limited and not as a shed, and refills
// with time.
func TestTenantQuota(t *testing.T) {
	clk := newClock()
	c := NewController(Config{RatePerSec: 0.5, Burst: 2, Clock: clk})
	for i := 0; i < 2; i++ {
		if d := c.Admit(Ingest, "key:alpha"); !d.OK {
			t.Fatalf("burst request %d denied: %+v", i, d)
		}
	}
	d := c.Admit(Ingest, "key:alpha")
	if d.OK || d.Status != 429 {
		t.Fatalf("over-budget decision = %+v, want 429", d)
	}
	// Empty at one token per 2s: Retry-After is the time to that token.
	if d.RetryAfter != 2 {
		t.Errorf("RetryAfter = %d, want 2", d.RetryAfter)
	}
	if c.RateLimited.Value() != 1 {
		t.Errorf("RateLimited = %d, want 1", c.RateLimited.Value())
	}
	if c.ShedTotal() != 0 || c.Shed[Ingest].Value() != 0 {
		t.Errorf("a 429 counted as a shed: ShedTotal = %d", c.ShedTotal())
	}
	// Another key and an IP draw on their own buckets.
	for _, id := range []string{"key:beta", "10.0.0.9"} {
		if !c.Admit(Ingest, id).OK {
			t.Fatalf("identity %q denied by alpha's empty bucket", id)
		}
	}
	// The hint is exact: a millisecond short of it still refuses (and
	// now rounds up to 1s), the hinted instant admits.
	clk.Advance(2*time.Second - time.Millisecond)
	if d := c.Admit(Ingest, "key:alpha"); d.OK || d.RetryAfter != 1 {
		t.Fatalf("1ms before the token: %+v, want 429 with Retry-After 1", d)
	}
	clk.Advance(time.Millisecond)
	if d := c.Admit(Ingest, "key:alpha"); !d.OK {
		t.Fatalf("request at the hinted instant denied: %+v", d)
	}
	// The budget is per identity, not per class: ops requests spend it
	// too (they are exempt from shedding only).
	if d := c.Admit(Exempt, "key:alpha"); d.OK || d.Status != 429 {
		t.Fatalf("exempt request on an empty bucket = %+v, want 429", d)
	}
}

// TestBudgetDefaultBurst: Burst defaults to twice the rate in whole
// tokens (what sentineld -rate has always given), never below one.
func TestBudgetDefaultBurst(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		want int
	}{{5, 10}, {1.7, 3}, {0.2, 1}} {
		c := NewController(Config{RatePerSec: tc.rate, Clock: newClock()})
		got := 0
		for c.Admit(Interactive, "key:gamma").OK {
			got++
		}
		if got != tc.want {
			t.Errorf("rate %v: burst of %d admitted, want %d", tc.rate, got, tc.want)
		}
	}
	// No rate, no budget: nothing is ever rate-limited.
	c := NewController(Config{Clock: newClock()})
	for i := 0; i < 100; i++ {
		if !c.Admit(Interactive, "key:gamma").OK {
			t.Fatal("unbudgeted controller denied a request")
		}
	}
}

// TestBudgetTableBounded: the identity table never exceeds its cap; at
// the cap it reclaims idle buckets and keeps the ones in use; and an
// evicted identity restarts with a full bucket (the fail-open
// direction).
func TestBudgetTableBounded(t *testing.T) {
	clk := newClock()
	c := NewController(Config{RatePerSec: 1, Burst: 2, Clock: clk})
	held := func(identity string) bool {
		_, ok := c.buckets[identity] // single goroutine: no lock needed
		return ok
	}
	drain := func(identity string) {
		t.Helper()
		for i := 0; c.Admit(Ingest, identity).OK; i++ {
			if i == 2 {
				t.Fatalf("%s admitted past its burst of 2", identity)
			}
		}
	}
	crowd := func(prefix string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if !c.Admit(Ingest, fmt.Sprintf("%s-%d", prefix, i)).OK {
				t.Fatalf("fresh identity %s-%d denied", prefix, i)
			}
			if len(c.buckets) > maxIdentities {
				t.Fatalf("table holds %d identities, cap %d", len(c.buckets), maxIdentities)
			}
		}
	}

	// 2× cap distinct identities at one instant: nothing is idle, so
	// only the hard cap's eviction keeps the table bounded — and the
	// victim, whose empty bucket is evicted with the rest, comes back
	// with a full one.
	drain("victim")
	crowd("a", 2*maxIdentities)
	if len(c.buckets) != maxIdentities {
		t.Fatalf("table holds %d identities, want the cap %d", len(c.buckets), maxIdentities)
	}
	for i := 0; held("victim"); i++ {
		crowd(fmt.Sprintf("b%d", i), 1)
	}
	if !c.Admit(Ingest, "victim").OK {
		t.Fatal("evicted identity did not restart with a full bucket")
	}

	// Two minutes on (idle horizon: max(1 minute, burst/rate)) the
	// victim spends its bucket again; the next newcomer to the still
	// full table prunes every idle bucket and keeps the one in use,
	// still empty.
	clk.Advance(2 * time.Minute)
	drain("victim")
	crowd("newcomer", 1)
	if !held("victim") || c.Admit(Ingest, "victim").OK {
		t.Fatal("prune dropped (or refilled) a bucket that was in use")
	}
	if len(c.buckets) != 2 {
		t.Fatalf("%d buckets after the prune, want 2 (the one in use and the newcomer)", len(c.buckets))
	}
}

func TestAdmitConcurrent(t *testing.T) {
	var load atomic.Int64
	clk := newClock()
	// A budget nobody can exhaust, and 8000 distinct bulk identities
	// against a table of 4096: insert, prune and evict all run under
	// the race detector without changing the counts below.
	c := NewController(Config{
		Signals:    []Signal{{Name: "lag", Load: load.Load, Limit: 100}},
		RatePerSec: 1e9,
		Clock:      clk,
	})
	load.Store(90)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				c.Admit(Bulk, fmt.Sprintf("10.%d.%d.%d", g, i/256, i%256))
				c.Admit(Ingest, "")
				c.ObserveLatency(Ingest, time.Millisecond)
				clk.Advance(time.Millisecond)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if got := c.Admitted[Ingest].Value(); got != 8000 {
		t.Errorf("ingest admitted = %d, want 8000", got)
	}
	if got := c.Shed[Bulk].Value() + c.Admitted[Bulk].Value(); got != 8000 {
		t.Errorf("bulk decisions = %d, want 8000", got)
	}
}
