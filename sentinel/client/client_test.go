package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	v1 "repro/internal/api/v1"
	"repro/internal/resilience"
)

// noSleep replaces backoff waits with a recorder.
func noSleep(waits *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		*waits = append(*waits, d)
		return nil
	}
}

func TestRetryOnBackpressure(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(429)
			_ = json.NewEncoder(w).Encode(v1.ErrorEnvelope{Error: &v1.Error{
				Code: v1.CodeRateLimited, Message: "slow down", Status: 429, RetryAfterSeconds: 7,
			}})
			return
		}
		_ = json.NewEncoder(w).Encode(v1.PutResponse{Accepted: 1})
	}))
	defer srv.Close()
	c, err := New(srv.URL, WithHTTPClient(srv.Client()), WithRetry(3, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	var waits []time.Duration
	c.sleep = noSleep(&waits)
	n, err := c.PutPoints(context.Background(), []v1.Point{{Metric: "energy", Timestamp: 1, Value: 2}})
	if err != nil || n != 1 {
		t.Fatalf("put = %d, %v", n, err)
	}
	if calls.Load() != 3 {
		t.Fatalf("attempts = %d, want 3", calls.Load())
	}
	// The server's Retry-After (7s) outweighs the base backoff.
	for i, w := range waits {
		if w < 7*time.Second {
			t.Fatalf("wait %d = %s, want ≥ 7s (Retry-After honored)", i, w)
		}
	}
}

func TestRetriesExhaustedSurfaceTypedError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(503)
		_ = json.NewEncoder(w).Encode(v1.ErrorEnvelope{Error: &v1.Error{
			Code: v1.CodeUnavailable, Message: "bus draining", Status: 503,
		}})
	}))
	defer srv.Close()
	c, _ := New(srv.URL, WithHTTPClient(srv.Client()), WithRetry(2, time.Millisecond))
	var waits []time.Duration
	c.sleep = noSleep(&waits)
	_, err := c.Fleet(context.Background(), FleetParams{})
	var ae *v1.Error
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *v1.Error", err)
	}
	if ae.Code != v1.CodeUnavailable || ae.Status != 503 {
		t.Fatalf("typed error = %+v", ae)
	}
	if len(waits) != 2 {
		t.Fatalf("retried %d times, want 2", len(waits))
	}
}

// TestOverloadShedNotRetried is the regression guard for admission
// sheds: a 503 with code "overloaded" must come back on the FIRST
// attempt as a typed *OverloadedError carrying Retry-After — folding
// it into the generic 503 retry loop would have the whole fleet
// hammering a gateway that just asked it to stop.
func TestOverloadShedNotRetried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "3")
		w.WriteHeader(503)
		_ = json.NewEncoder(w).Encode(v1.ErrorEnvelope{Error: &v1.Error{
			Code: v1.CodeOverloaded, Message: "shed: bulk at pressure 0.81", Status: 503, RetryAfterSeconds: 3,
		}})
	}))
	defer srv.Close()
	c, _ := New(srv.URL, WithHTTPClient(srv.Client()), WithRetry(5, time.Millisecond))
	var waits []time.Duration
	c.sleep = noSleep(&waits)
	_, err := c.PutPoints(context.Background(), []v1.Point{{Metric: "energy", Timestamp: 1, Value: 2}})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want errors.Is(…, ErrOverloaded)", err)
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %T, want *OverloadedError", err)
	}
	if oe.RetryAfter != 3*time.Second {
		t.Fatalf("RetryAfter = %s, want 3s", oe.RetryAfter)
	}
	var ae *v1.Error
	if !errors.As(err, &ae) || ae.Code != v1.CodeOverloaded {
		t.Fatalf("envelope not exposed through Unwrap: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("shed request attempted %d times, want 1 (no retry burn)", calls.Load())
	}
	if len(waits) != 0 {
		t.Fatalf("client slept %d times on a shed, want 0", len(waits))
	}
}

// A 503 WITHOUT the overloaded code keeps its retry semantics.
func TestPlainUnavailableStillRetried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(503)
			_ = json.NewEncoder(w).Encode(v1.ErrorEnvelope{Error: &v1.Error{
				Code: v1.CodeUnavailable, Message: "bus draining", Status: 503,
			}})
			return
		}
		_ = json.NewEncoder(w).Encode(v1.PutResponse{Accepted: 1})
	}))
	defer srv.Close()
	c, _ := New(srv.URL, WithHTTPClient(srv.Client()), WithRetry(2, time.Millisecond))
	var waits []time.Duration
	c.sleep = noSleep(&waits)
	n, err := c.PutPoints(context.Background(), []v1.Point{{Metric: "energy", Timestamp: 1, Value: 2}})
	if err != nil || n != 1 {
		t.Fatalf("put = %d, %v", n, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("attempts = %d, want 2", calls.Load())
	}
}

func TestNoRetryOnClientError(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(404)
		_ = json.NewEncoder(w).Encode(v1.ErrorEnvelope{Error: &v1.Error{
			Code: v1.CodeNotFound, Message: "unknown unit 99", Status: 404,
		}})
	}))
	defer srv.Close()
	c, _ := New(srv.URL, WithHTTPClient(srv.Client()))
	_, err := c.Machine(context.Background(), 99, 0, 10)
	var ae *v1.Error
	if !errors.As(err, &ae) || ae.Code != v1.CodeNotFound {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("client retried a 404 (%d calls)", calls.Load())
	}
}

func TestDetectorsTyped(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/v1/detectors" {
			http.NotFound(w, r)
			return
		}
		_ = json.NewEncoder(w).Encode(v1.DetectorsResponse{
			Primary: "mgd",
			Detectors: []v1.DetectorInfo{
				{Name: "mgd", Mode: "primary", Flags: 12},
				{Name: "cusum", Mode: "shadow", Flags: 9, Agreements: 8, Disagreements: 1},
				{Name: "zscore", Mode: "off"},
			},
			Ensemble: v1.EnsembleConfig{Members: []string{"mgd", "cusum", "zscore"}, MinVotes: 2},
		})
	}))
	defer srv.Close()
	c, _ := New(srv.URL, WithHTTPClient(srv.Client()))
	ds, err := c.Detectors(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ds.Primary != "mgd" || len(ds.Detectors) != 3 {
		t.Fatalf("unexpected response: %+v", ds)
	}
	if ds.Detectors[1].Mode != "shadow" || ds.Detectors[1].Agreements != 8 {
		t.Fatalf("shadow counters lost: %+v", ds.Detectors[1])
	}
	if ds.Ensemble.MinVotes != 2 || len(ds.Ensemble.Members) != 3 {
		t.Fatalf("ensemble config lost: %+v", ds.Ensemble)
	}
}

func TestNonEnvelopeErrorSynthesized(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "plain text failure", 500)
	}))
	defer srv.Close()
	c, _ := New(srv.URL, WithHTTPClient(srv.Client()))
	_, err := c.Fleet(context.Background(), FleetParams{})
	var ae *v1.Error
	if !errors.As(err, &ae) || ae.Status != 500 || ae.Message != "plain text failure" {
		t.Fatalf("err = %v", err)
	}
}

// TestReadyReturnsNotReadyDetail: a 503 from /readyz is the answer,
// not backpressure — no retries, and the per-check detail comes back.
func TestReadyReturnsNotReadyDetail(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(503)
		_ = json.NewEncoder(w).Encode(v1.ReadyResponse{
			Ready:  false,
			Checks: []v1.ReadyCheck{{Name: "bus", OK: false, Error: "draining"}},
		})
	}))
	defer srv.Close()
	c, _ := New(srv.URL, WithHTTPClient(srv.Client()))
	ready, err := c.Ready(context.Background())
	if err != nil {
		t.Fatalf("Ready = %v, want the not-ready detail", err)
	}
	if ready.Ready || len(ready.Checks) != 1 || ready.Checks[0].Name != "bus" {
		t.Fatalf("detail = %+v", ready)
	}
	if calls.Load() != 1 {
		t.Fatalf("Ready retried a 503 (%d calls)", calls.Load())
	}
}

func TestAPIKeyHeaderSent(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-API-Key") != "tenant-7" {
			w.WriteHeader(400)
			return
		}
		_ = json.NewEncoder(w).Encode(v1.ReadyResponse{Ready: true})
	}))
	defer srv.Close()
	c, _ := New(srv.URL, WithHTTPClient(srv.Client()), WithAPIKey("tenant-7"))
	ready, err := c.Ready(context.Background())
	if err != nil || !ready.Ready {
		t.Fatalf("ready = %+v, %v", ready, err)
	}
}

func TestStreamParsesEvents(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", v1.ContentTypeSSE)
		fl := w.(http.Flusher)
		fmt.Fprint(w, ": connected\n\n")
		fl.Flush()
		fmt.Fprint(w, ": ping\n\n")
		for i := 0; i < 2; i++ {
			ev := v1.AnomalyEvent{Unit: i, Sensor: 3, Timestamp: int64(100 + i), Z: 5.5}
			data, _ := json.Marshal(ev)
			fmt.Fprintf(w, "event: anomaly\nid: %d\ndata: %s\n\n", i+1, data)
			fl.Flush()
		}
	}))
	defer srv.Close()
	c, _ := New(srv.URL, WithHTTPClient(srv.Client()))
	stream, err := c.StreamAnomalies(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	for i := 0; i < 2; i++ {
		ev, err := stream.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev.Unit != i || ev.Sensor != 3 || ev.Z != 5.5 {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	if _, err := stream.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream err = %v, want io.EOF", err)
	}
}

func TestStreamRejectsNonSSE(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]string{"not": "a stream"})
	}))
	defer srv.Close()
	c, _ := New(srv.URL, WithHTTPClient(srv.Client()))
	if _, err := c.StreamAnomalies(context.Background()); err == nil {
		t.Fatal("accepted a non-SSE response")
	}
}

func TestBadBaseURL(t *testing.T) {
	if _, err := New("not a url"); err == nil {
		t.Fatal("accepted a bad base URL")
	}
	if _, err := New(""); err == nil {
		t.Fatal("accepted an empty base URL")
	}
}

// TestRetryBackoffJittered: retry waits are full-jitter exponential —
// each within [d/2, d] of the exponential schedule, and not marching
// in deterministic lockstep.
func TestRetryBackoffJittered(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(503)
		_ = json.NewEncoder(w).Encode(v1.ErrorEnvelope{Error: &v1.Error{
			Code: v1.CodeUnavailable, Message: "shedding", Status: 503,
		}})
	}))
	defer srv.Close()
	c, _ := New(srv.URL, WithHTTPClient(srv.Client()), WithRetry(6, 100*time.Millisecond))
	c.backoff.Rand = resilience.NewRand(3)
	var waits []time.Duration
	c.sleep = noSleep(&waits)
	if _, err := c.Fleet(context.Background(), FleetParams{}); err == nil {
		t.Fatal("fleet succeeded against a 503-only server")
	}
	if len(waits) != 6 {
		t.Fatalf("recorded %d waits, want 6", len(waits))
	}
	jittered := false
	for i, w := range waits {
		full := 100 * time.Millisecond << i
		if full > 8*time.Second {
			full = 8 * time.Second
		}
		if w < full/2 || w > full {
			t.Fatalf("wait %d = %s outside [%s, %s]", i, w, full/2, full)
		}
		if w != full {
			jittered = true
		}
	}
	if !jittered {
		t.Fatal("every wait hit the full exponential delay: no jitter applied")
	}
}
