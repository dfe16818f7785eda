package api

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/telemetry"
)

// TestAccessLogHistogramBounded: the daemons mounting the gateway run
// indefinitely, so the per-route latency histogram must be bounded by
// construction — recording never allocates — while its count covers
// every request since process start.
func TestAccessLogHistogramBounded(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}), AccessLog(nil, reg))
	const total = 2500
	for i := 0; i < total; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	}
	hist := reg.Histogram(`http_ms{route="unmatched"}`)
	if got := hist.Count(); got != total {
		t.Fatalf("Count() = %d, want cumulative %d", got, total)
	}
	if allocs := testing.AllocsPerRun(1000, func() { hist.Observe(1.5) }); allocs != 0 {
		t.Fatalf("Observe allocates %v per call, want 0", allocs)
	}
}

// TestRecoverAbortHandler: http.ErrAbortHandler is net/http's "abort
// the response" sentinel — Recover must re-panic it untouched instead
// of writing a 500 envelope onto a possibly half-written response.
func TestRecoverAbortHandler(t *testing.T) {
	h := Recover(testLogger())(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	rec := httptest.NewRecorder()
	defer func() {
		v := recover()
		if v != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler re-panicked", v)
		}
		if rec.Body.Len() != 0 {
			t.Fatalf("aborted response got a body: %q", rec.Body)
		}
	}()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	t.Fatal("handler did not panic")
}

// TestAccessLogSurvivesAbort: the abort sentinel unwinds through
// AccessLog (Recover re-panics it), so AccessLog's bookkeeping must be
// deferred — the request still counts, and the pooled status writer is
// returned instead of leaking with a live ResponseWriter inside.
func TestAccessLogSurvivesAbort(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}), AccessLog(nil, reg), Recover(nil))
	func() {
		defer func() {
			if v := recover(); v != http.ErrAbortHandler {
				t.Fatalf("recovered %v, want http.ErrAbortHandler", v)
			}
		}()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	}()
	if got := reg.Counter("http_requests").Value(); got != 1 {
		t.Fatalf("http_requests = %d, want aborted request counted", got)
	}
	if got := reg.Histogram(`http_ms{route="unmatched"}`).Count(); got != 1 {
		t.Fatalf("latency observations = %d, want 1", got)
	}
	// The pool must hand back a clean wrapper (nil ResponseWriter).
	if sw := statusWriterPool.Get().(*statusWriter); sw.ResponseWriter != nil {
		t.Fatal("pooled statusWriter leaked its ResponseWriter")
	}
}

// TestGzipVary: the body varies on Accept-Encoding, so every response
// — compressed or not — must say so, or a shared cache may serve a
// gzip body to a client that didn't accept it.
func TestGzipVary(t *testing.T) {
	h := Gzip()(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("payload"))
	}))
	for _, accept := range []string{"", "gzip"} {
		req := httptest.NewRequest("GET", "/x", nil)
		if accept != "" {
			req.Header.Set("Accept-Encoding", accept)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if got := rec.Header().Get("Vary"); got != "Accept-Encoding" {
			t.Fatalf("Accept-Encoding=%q: Vary = %q, want Accept-Encoding", accept, got)
		}
	}
}

// TestClientKeyIdentity pins the budget identity rules: only a
// configured key earns its own bucket, everything else keys by IP.
func TestClientKeyIdentity(t *testing.T) {
	keys := map[string]string{"tenant-a": "key:tenant-a"}
	cases := []struct {
		header string
		want   string
	}{
		{"", "10.0.0.9"},
		{"tenant-a", "key:tenant-a"},
		{"rotated-1", "10.0.0.9"},
		{"rotated-2", "10.0.0.9"},
	}
	for _, tc := range cases {
		r := httptest.NewRequest("GET", "/x", nil)
		r.RemoteAddr = "10.0.0.9:5432"
		if tc.header != "" {
			r.Header.Set("X-API-Key", tc.header)
		}
		if got := clientKey(r, keys); got != tc.want {
			t.Errorf("clientKey(X-API-Key=%q) = %q, want %q", tc.header, got, tc.want)
		}
	}
}
