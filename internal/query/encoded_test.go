package query

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/tsdb"
)

// countingEncoder spells a window's series as a short fixed text and
// counts its calls.
type countingEncoder struct {
	mu    sync.Mutex
	calls int
}

func (c *countingEncoder) encode(series []tsdb.Series) ([]byte, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	b := []byte{}
	for _, s := range series {
		for _, smp := range s.Samples {
			b = fmt.Appendf(b, "%d=%g;", smp.Timestamp, smp.Value)
		}
	}
	return b, nil
}

func mustEncoded(t *testing.T, e *Engine, q tsdb.Query, f Format, enc Encoder) []byte {
	t.Helper()
	b, err := e.QueryEncoded(context.Background(), q, f, enc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEncodedBytesFollowTheEntry: a cached window is encoded once per
// format and its bytes served to every repeat; a write into the window,
// an eviction and a retention bump drop them with the entry, while a
// write into a later row-hour leaves them.
func TestEncodedBytesFollowTheEntry(t *testing.T) {
	d := newEnv(t, 2, 1, 1, 0)
	seed(t, d, 1, 1, 0, 2*hour, 600)
	e := NewFromDeployment(d, Config{MaxEntries: 2})
	var c countingEncoder
	q := tsdb.Query{Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(0, 0), Start: 0, End: hour - 1}

	first := mustEncoded(t, e, q, JSON, c.encode)
	for i := 0; i < 3; i++ {
		if again := mustEncoded(t, e, q, JSON, c.encode); &again[0] != &first[0] {
			t.Fatal("a repeat got bytes of its own, not the entry's")
		}
	}
	if c.calls != 1 || e.Encodes.Value() != 1 {
		t.Fatalf("3 repeats ran %d encodes (Encodes %d), want 1", c.calls, e.Encodes.Value())
	}
	mustEncoded(t, e, q, NDJSON, c.encode)
	mustEncoded(t, e, q, NDJSON, c.encode)
	if c.calls != 2 {
		t.Fatalf("a second format ran %d encodes in all, want 2", c.calls)
	}
	// QueryContext reads the same entry and encodes nothing.
	mustQuery(t, e, q)
	if c.calls != 2 {
		t.Fatal("QueryContext encoded")
	}

	// A write into a later row-hour leaves the window's bytes.
	if err := d.TSDs()[1].Put([]tsdb.Point{tsdb.EnergyPoint(0, 0, hour+7, 1)}); err != nil {
		t.Fatal(err)
	}
	mustEncoded(t, e, q, JSON, c.encode)
	if c.calls != 2 {
		t.Fatal("a write into hour 1 re-encoded a window over hour 0")
	}
	// A write into the window drops them with the entry.
	if err := d.TSDs()[0].Put([]tsdb.Point{tsdb.EnergyPoint(0, 0, 5, 77)}); err != nil {
		t.Fatal(err)
	}
	if got := string(mustEncoded(t, e, q, JSON, c.encode)); c.calls != 3 || got[:len("0=0;5=77;")] != "0=0;5=77;" {
		t.Fatalf("after a write into the window: %d encodes, bytes %.20q", c.calls, got)
	}
	// A retention bump does too.
	d.Watermarks().Bump(tsdb.MetricEnergy)
	mustEncoded(t, e, q, JSON, c.encode)
	if c.calls != 4 {
		t.Fatalf("after an epoch bump: %d encodes, want 4", c.calls)
	}
	// Eviction: two other windows push q out of the two-entry cache.
	for _, end := range []int64{hour - 2, hour - 3} {
		mustEncoded(t, e, tsdb.Query{Metric: q.Metric, Tags: q.Tags, Start: 0, End: end}, JSON, c.encode)
	}
	mustEncoded(t, e, q, JSON, c.encode)
	if c.calls != 7 {
		t.Fatalf("after eviction: %d encodes, want 7", c.calls)
	}
}

// TestEncodedBytesOneEncodeUnderConcurrency: readers racing to a fresh
// entry wait for one encode instead of each running their own, and an
// encode error is kept like bytes are: every reader's, encoded once.
func TestEncodedBytesOneEncodeUnderConcurrency(t *testing.T) {
	d := newEnv(t, 2, 1, 1, 120)
	e := NewFromDeployment(d, Config{})
	q := tsdb.Query{Metric: tsdb.MetricEnergy, Start: 0, End: 119}
	mustQuery(t, e, q)
	var c countingEncoder
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.QueryEncoded(context.Background(), q, NDJSON, c.encode); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if c.calls != 1 {
		t.Fatalf("16 racing readers ran %d encodes, want 1", c.calls)
	}

	fails := 0
	refuse := func([]tsdb.Series) ([]byte, error) {
		fails++
		return nil, errors.New("unencodable")
	}
	for i := 0; i < 2; i++ {
		if _, err := e.QueryEncoded(context.Background(), q, JSON, refuse); err == nil {
			t.Fatal("a window the encoder refused served bytes")
		}
	}
	if fails != 1 {
		t.Fatalf("a failed encode ran %d times over two reads, want once", fails)
	}
}

// TestEncodedBytesServedStale: with the storage tier blacked out, a
// degraded serve of a cached window returns that window's bytes — the
// mark is the caller's to add — and an uncached engine encodes per call.
func TestEncodedBytesServedStale(t *testing.T) {
	d := newEnv(t, 2, 1, 2, 60)
	e := NewFromDeployment(d, Config{ServeStale: true})
	q := tsdb.Query{Metric: tsdb.MetricEnergy, Start: 0, End: 59}
	var c countingEncoder
	warm := mustEncoded(t, e, q, JSON, c.encode)

	d.Watermarks().Bump(tsdb.MetricEnergy)
	inj := faultinject.New(7)
	d.Cluster.Network().SetFaults(inj)
	inj.Set("blackout", faultinject.Rule{Op: "rpc/tsd/", ErrorRate: 1})
	ctx, marker := WithDegradedMarker(context.Background())
	got, err := e.QueryEncoded(ctx, q, JSON, c.encode)
	if err != nil || !marker.Degraded() {
		t.Fatalf("blackout read: err %v, degraded %v", err, marker.Degraded())
	}
	if &got[0] != &warm[0] || c.calls != 1 {
		t.Fatalf("degraded serve re-encoded (%d encodes) instead of serving the entry's bytes", c.calls)
	}
	inj.Reset()

	uncached := NewFromDeployment(d, Config{MaxEntries: -1})
	mustEncoded(t, uncached, q, JSON, c.encode)
	mustEncoded(t, uncached, q, JSON, c.encode)
	if uncached.Encodes.Value() != 2 {
		t.Fatalf("uncached engine: Encodes %d after two reads, want 2", uncached.Encodes.Value())
	}
}
