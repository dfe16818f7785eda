package api

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	v1 "repro/internal/api/v1"
	"repro/internal/query"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// staleQuerier marks every request degraded, the way the engine does
// when ServeStale answers from a past-watermark cache entry.
type staleQuerier struct{}

func (staleQuerier) QueryEncoded(ctx context.Context, q tsdb.Query, _ query.Format, enc query.Encoder) ([]byte, error) {
	query.MarkDegraded(ctx)
	return enc([]tsdb.Series{{Metric: q.Metric, Samples: []tsdb.Sample{{Timestamp: 1, Value: 2}}}})
}

// TestQueryDegradedSurfaced: a degraded-marked read answers 200 with
// the X-Sentinel-Degraded header and the DTO degraded flag set.
func TestQueryDegradedSurfaced(t *testing.T) {
	gw := New(Config{Query: staleQuerier{}, Registry: telemetry.NewRegistry(), AccessLog: testLogger()})
	rec := get(t, gw, "/api/v1/query?metric=energy&from=0&to=10")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if got := rec.Header().Get(v1.HeaderDegraded); got != "true" {
		t.Fatalf("%s = %q, want \"true\"", v1.HeaderDegraded, got)
	}
	var resp v1.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatal("QueryResponse.Degraded not set")
	}
	if len(resp.Series) != 1 {
		t.Fatalf("series = %d, want 1", len(resp.Series))
	}
}

// TestQueryHealthyNotMarked: the fresh path carries neither the header
// nor the flag.
func TestQueryHealthyNotMarked(t *testing.T) {
	gw := testGateway(t, nil)
	rec := get(t, gw, "/api/v1/query?metric=energy&from=0&to=10")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if got := rec.Header().Get(v1.HeaderDegraded); got != "" {
		t.Fatalf("%s = %q on a healthy read", v1.HeaderDegraded, got)
	}
	var resp v1.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Degraded {
		t.Fatal("healthy read marked degraded")
	}
}

// TestReadyTriState: ok and degraded checks keep readiness 200 (with
// the worst status surfaced); a down check answers 503.
func TestReadyTriState(t *testing.T) {
	var storageErr, detectorErr error
	gw := New(Config{
		Registry:  telemetry.NewRegistry(),
		AccessLog: testLogger(),
		Ready: []ReadyCheck{
			{Name: "storage", Check: func() error { return storageErr }},
			{Name: "detectors", Check: func() error { return detectorErr }},
		},
	})

	readyz := func() (*v1.ReadyResponse, int) {
		rec := get(t, gw, "/api/v1/readyz")
		var resp v1.ReadyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("readyz body: %v", err)
		}
		return &resp, rec.Code
	}

	// All healthy.
	resp, code := readyz()
	if code != http.StatusOK || !resp.Ready || resp.Status != v1.ReadyOK {
		t.Fatalf("healthy: code=%d ready=%v status=%q", code, resp.Ready, resp.Status)
	}

	// One check degraded: still 200, still ready, status degraded.
	storageErr = Degraded(errors.New("2 of 3 breakers open"))
	resp, code = readyz()
	if code != http.StatusOK || !resp.Ready || resp.Status != v1.ReadyDegraded {
		t.Fatalf("degraded: code=%d ready=%v status=%q", code, resp.Ready, resp.Status)
	}
	if resp.Checks[0].Status != v1.ReadyDegraded || !resp.Checks[0].OK {
		t.Fatalf("degraded check = %+v, want status degraded with ok=true", resp.Checks[0])
	}
	if resp.Checks[0].Error == "" {
		t.Fatal("degraded check lost its error detail")
	}

	// One check down: 503, not ready, status down; the degraded check
	// keeps its own status.
	detectorErr = errors.New("bus unreachable")
	resp, code = readyz()
	if code != http.StatusServiceUnavailable || resp.Ready || resp.Status != v1.ReadyDown {
		t.Fatalf("down: code=%d ready=%v status=%q", code, resp.Ready, resp.Status)
	}
	if resp.Checks[1].Status != v1.ReadyDown || resp.Checks[1].OK {
		t.Fatalf("down check = %+v, want status down with ok=false", resp.Checks[1])
	}

	// Recovery restores the healthy contract (including the "ready"
	// bool the conformance suite pins).
	storageErr, detectorErr = nil, nil
	resp, code = readyz()
	if code != http.StatusOK || !resp.Ready || resp.Status != v1.ReadyOK {
		t.Fatalf("recovered: code=%d ready=%v status=%q", code, resp.Ready, resp.Status)
	}
}

// TestDegradedWrapper pins the sentinel semantics.
func TestDegradedWrapper(t *testing.T) {
	base := errors.New("boom")
	if !IsDegraded(Degraded(base)) {
		t.Fatal("Degraded(err) not detected")
	}
	if IsDegraded(base) {
		t.Fatal("plain error detected as degraded")
	}
	if Degraded(nil) != nil {
		t.Fatal("Degraded(nil) != nil")
	}
	if !errors.Is(Degraded(base), base) {
		t.Fatal("Degraded(err) does not unwrap to err")
	}
}
