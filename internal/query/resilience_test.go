package query

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/resilience"
	"repro/internal/tsdb"
)

// TestServeStaleDegradedDuringBlackout: with every backend failing, a
// query whose window was cached before the outage is answered from the
// stale entry, marked degraded, and recovers to fresh serving once the
// fault clears.
func TestServeStaleDegradedDuringBlackout(t *testing.T) {
	d := newEnv(t, 2, 1, 2, 60)
	e := NewFromDeployment(d, Config{ServeStale: true})
	q := tsdb.Query{Metric: tsdb.MetricEnergy, Start: 0, End: 59}

	warm := mustQuery(t, e, q)
	if len(warm) == 0 {
		t.Fatal("warm query returned nothing")
	}

	// Invalidate the cache entry (new write version) and black out the
	// whole TSD tier.
	d.Watermarks().Bump(tsdb.MetricEnergy)
	inj := faultinject.New(7)
	d.Cluster.Network().SetFaults(inj)
	inj.Set("blackout", faultinject.Rule{Op: "rpc/tsd/", ErrorRate: 1})

	ctx, marker := WithDegradedMarker(context.Background())
	got, err := e.QueryContext(ctx, q)
	if err != nil {
		t.Fatalf("blackout query failed despite ServeStale: %v", err)
	}
	if !marker.Degraded() {
		t.Fatal("stale serve did not set the degraded marker")
	}
	if e.DegradedServes.Value() == 0 {
		t.Fatal("DegradedServes not counted")
	}
	if !reflect.DeepEqual(got, warm) {
		t.Fatal("degraded serve returned different data than the cached window")
	}

	// Fault cleared: the next query is fresh and unmarked.
	inj.Reset()
	ctx2, marker2 := WithDegradedMarker(context.Background())
	if _, err := e.QueryContext(ctx2, q); err != nil {
		t.Fatalf("post-recovery query: %v", err)
	}
	if marker2.Degraded() {
		t.Fatal("recovered query still marked degraded")
	}
}

// TestServeStaleOffStillFails: without ServeStale the blackout error
// surfaces (the pre-existing contract).
func TestServeStaleOffStillFails(t *testing.T) {
	d := newEnv(t, 2, 1, 1, 30)
	e := NewFromDeployment(d, Config{})
	q := tsdb.Query{Metric: tsdb.MetricEnergy, Start: 0, End: 29}
	mustQuery(t, e, q)
	d.Watermarks().Bump(tsdb.MetricEnergy)
	inj := faultinject.New(7)
	d.Cluster.Network().SetFaults(inj)
	inj.Set("blackout", faultinject.Rule{Op: "rpc/tsd/", ErrorRate: 1})
	if _, err := e.QueryContext(context.Background(), q); err == nil {
		t.Fatal("blackout query succeeded without ServeStale")
	}
}

// TestBreakersTripFastFailAndRecover drives the full
// closed → open → half-open → closed cycle through the engine.
func TestBreakersTripFastFailAndRecover(t *testing.T) {
	// Two row-hours over two TSDs: a query reaches both.
	d := newEnv(t, 2, 1, 1, 40)
	seed(t, d, 1, 1, 40, 2*hour, 60)
	g := resilience.NewGroup(resilience.BreakerConfig{
		FailureThreshold: 2,
		Cooldown:         30 * time.Millisecond,
	})
	e := NewFromDeployment(d, Config{MaxEntries: -1, Breakers: g})
	q := tsdb.Query{Metric: tsdb.MetricEnergy, Start: 0, End: 2*hour - 1}

	inj := faultinject.New(11)
	d.Cluster.Network().SetFaults(inj)
	inj.Set("blackout", faultinject.Rule{Op: "rpc/tsd/", ErrorRate: 1})

	// Hammer until both circuits open.
	for i := 0; i < 10 && g.OpenCount() < 2; i++ {
		if _, err := e.QueryContext(context.Background(), q); err == nil {
			t.Fatal("query succeeded under 100% error injection")
		}
	}
	if g.OpenCount() != 2 {
		t.Fatalf("OpenCount = %d after sustained failures, want 2", g.OpenCount())
	}
	if g.Opens.Value() == 0 {
		t.Fatal("no open transitions counted")
	}

	// With every circuit open and the cooldown not yet elapsed, the
	// shard fails fast with ErrCircuitOpen — no rpc issued.
	before := e.SubQueries.Value()
	if _, err := e.QueryContext(context.Background(), q); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if e.SubQueries.Value() != before {
		t.Fatal("open circuits still issued sub-queries")
	}

	// Clear the fault; after the cooldown, probes flow and the
	// breakers close again.
	inj.Reset()
	deadline := time.Now().Add(5 * time.Second)
	for g.OpenCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("breakers never closed after fault cleared")
		}
		time.Sleep(10 * time.Millisecond)
		_, _ = e.QueryContext(context.Background(), q)
	}
	if g.HalfOpens.Value() == 0 || g.Closes.Value() == 0 {
		t.Fatalf("transitions: half-opens=%d closes=%d, want both > 0",
			g.HalfOpens.Value(), g.Closes.Value())
	}
	got := mustQuery(t, e, q)
	want := groundTruth(t, d, q)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-recovery result diverged from ground truth")
	}
}

// TestAbandonedShardProbesReleased: when an early shard fails the whole
// query, the futures already issued for later shards — which may hold
// half-open probe reservations — must still report their outcomes.
// Before recordWhenDone covered fetch's fail-fast path, those breakers
// wedged half-open with the probe slot leaked and could never close.
func TestAbandonedShardProbesReleased(t *testing.T) {
	// Three row-hours over three TSDs: one shard per TSD.
	d := newEnv(t, 3, 1, 1, 60)
	seed(t, d, 1, 1, 60, 3*hour, 60)
	g := resilience.NewGroup(resilience.BreakerConfig{
		FailureThreshold: 1,
		Cooldown:         10 * time.Millisecond,
	})
	e := NewFromDeployment(d, Config{MaxEntries: -1, Breakers: g})
	q := tsdb.Query{Metric: tsdb.MetricEnergy, Start: 0, End: 3*hour - 1}
	addrs := d.Addrs()

	// Trip tsd-2 and tsd-3, then let the cooldown elapse so the next
	// Allow on each reserves a half-open probe.
	g.For(addrs[1]).Failure()
	g.For(addrs[2]).Failure()
	if g.OpenCount() != 2 {
		t.Fatalf("OpenCount = %d after manual trips, want 2", g.OpenCount())
	}
	time.Sleep(50 * time.Millisecond)

	// Shard 0's backend (tsd-1) fails every call: the query errors on
	// shard 0 and abandons the probe futures issued for shards 1 and 2.
	inj := faultinject.New(3)
	d.Cluster.Network().SetFaults(inj)
	inj.Set("dead", faultinject.Rule{Op: "rpc/" + addrs[0] + "/", ErrorRate: 1})
	if _, err := e.QueryContext(context.Background(), q); err == nil {
		t.Fatal("query succeeded with shard 0's backend fully faulted")
	}

	// The abandoned probes complete against healthy backends; their
	// breakers must get the outcome and release the slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, _, in1 := g.For(addrs[1]).Snapshot()
		_, _, _, in2 := g.For(addrs[2]).Snapshot()
		if in1 == 0 && in2 == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("probe slots leaked: inflight tsd-2=%d tsd-3=%d", in1, in2)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// And with the fault cleared, every circuit can close again.
	inj.Reset()
	for g.OpenCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("breakers never closed after the fault cleared")
		}
		time.Sleep(10 * time.Millisecond)
		_, _ = e.QueryContext(context.Background(), q)
	}
}
