package api

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	v1 "repro/internal/api/v1"
	"repro/internal/clock"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// admissionGateway builds a gateway whose controller is driven by a
// manually-set load signal over limit 100, plus a publish counter.
func admissionGateway(t *testing.T, load *atomic.Int64, mutate func(*Config)) (*Gateway, *admission.Controller, *atomic.Int64) {
	t.Helper()
	ctrl := admission.NewController(admission.Config{
		Signals: []admission.Signal{{Name: "test", Load: load.Load, Limit: 100}},
	})
	var published atomic.Int64
	cfg := Config{
		Admission: ctrl,
		Publisher: publisherFunc(func(ctx context.Context, pts []tsdb.Point) (int, error) {
			published.Add(int64(len(pts)))
			return len(pts), nil
		}),
		Query: querierFunc(func(ctx context.Context, q tsdb.Query) ([]tsdb.Series, error) {
			return nil, nil
		}),
		Registry:  telemetry.NewRegistry(),
		AccessLog: testLogger(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg), ctrl, &published
}

// decodeEnvelope extracts the v1 error from a rejected response.
func decodeEnvelope(t *testing.T, w *httptest.ResponseRecorder) *v1.Error {
	t.Helper()
	var env v1.ErrorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error == nil {
		t.Fatalf("bad error envelope %q: %v", w.Body, err)
	}
	return env.Error
}

func setPressure(ctrl *admission.Controller, load *atomic.Int64, v int64) {
	load.Store(v)
	ctrl.Recompute()
}

const putBodyJSON = `[{"metric":"sys.energy","timestamp":1,"value":2.5,"tags":{"unit":"0","sensor":"0"}}]`

func doReq(g *Gateway, method, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	g.ServeHTTP(w, r)
	return w
}

func TestAdmissionShedsByClassOrder(t *testing.T) {
	var load atomic.Int64
	g, ctrl, _ := admissionGateway(t, &load, nil)
	ndjson := map[string]string{"Accept": v1.ContentTypeNDJSON}

	// Idle: everything admitted.
	setPressure(ctrl, &load, 0)
	if w := doReq(g, "GET", "/api/v1/query", "", ndjson); w.Code != 200 {
		t.Fatalf("idle bulk query = %d", w.Code)
	}
	if w := doReq(g, "POST", "/api/v1/points", putBodyJSON, nil); w.Code != 200 {
		t.Fatalf("idle put = %d: %s", w.Code, w.Body)
	}

	// Pressure 0.6: NDJSON (bulk) sheds, the same path as plain JSON
	// (interactive) and the put path stay open.
	setPressure(ctrl, &load, 60)
	if w := doReq(g, "GET", "/api/v1/query", "", ndjson); w.Code != 503 {
		t.Fatalf("bulk query at 0.6 = %d, want 503", w.Code)
	}
	if w := doReq(g, "GET", "/api/v1/query", "", nil); w.Code != 200 {
		t.Fatalf("interactive query at 0.6 = %d, want 200", w.Code)
	}
	if w := doReq(g, "POST", "/api/v1/points", putBodyJSON, nil); w.Code != 200 {
		t.Fatalf("put at 0.6 = %d, want 200", w.Code)
	}

	// Pressure 0.8: interactive sheds too; ingest still lands.
	setPressure(ctrl, &load, 80)
	if w := doReq(g, "GET", "/api/v1/query", "", nil); w.Code != 503 {
		t.Fatalf("interactive query at 0.8 = %d, want 503", w.Code)
	}
	if w := doReq(g, "POST", "/api/v1/points", putBodyJSON, nil); w.Code != 200 {
		t.Fatalf("put at 0.8 = %d, want 200", w.Code)
	}

	// Over budget: ingest sheds last, with the typed envelope.
	setPressure(ctrl, &load, 150)
	w := doReq(g, "POST", "/api/v1/points", putBodyJSON, nil)
	if w.Code != 503 {
		t.Fatalf("put at 1.5 = %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	env := decodeEnvelope(t, w)
	if env.Code != v1.CodeOverloaded {
		t.Errorf("shed code = %q, want %q", env.Code, v1.CodeOverloaded)
	}

	// Ops routes never shed, even fully over budget.
	for _, path := range []string{"/healthz", "/readyz", "/api/v1/metrics"} {
		if w := doReq(g, "GET", path, "", nil); w.Code != 200 {
			t.Errorf("%s at pressure 1.5 = %d, want 200", path, w.Code)
		}
	}
	if ctrl.ShedTotal() == 0 {
		t.Error("controller counted no sheds")
	}
}

// trackedReader flags whether anything read the request body.
type trackedReader struct {
	read atomic.Bool
	s    *strings.Reader
}

func (r *trackedReader) Read(p []byte) (int, error) {
	r.read.Store(true)
	return r.s.Read(p)
}

func TestAdmissionShedsBeforeBodyRead(t *testing.T) {
	var load atomic.Int64
	g, ctrl, published := admissionGateway(t, &load, nil)
	setPressure(ctrl, &load, 200)

	body := &trackedReader{s: strings.NewReader(putBodyJSON)}
	r := httptest.NewRequest("POST", "/api/v1/points", body)
	w := httptest.NewRecorder()
	g.ServeHTTP(w, r)
	if w.Code != 503 {
		t.Fatalf("status = %d, want 503", w.Code)
	}
	if body.read.Load() {
		t.Error("shed request's body was read — the reject must come before decode")
	}
	if published.Load() != 0 {
		t.Error("shed request reached the publisher")
	}
}

// TestAdmissionTenantQuota: the budget is per identity — a validated
// key spends its own bucket, everyone else their IP's — and a 429
// shows on /api/v1/metrics as rate-limited, not as a shed.
func TestAdmissionTenantQuota(t *testing.T) {
	var load atomic.Int64
	clk := clock.NewManual(time.Unix(0, 0))
	g, _, _ := admissionGateway(t, &load, func(cfg *Config) {
		cfg.APIKeys = []string{"tenant-a", "ops"}
		cfg.Admission = admission.NewController(admission.Config{RatePerSec: 0.5, Burst: 2, Clock: clk})
	})
	key := map[string]string{"X-API-Key": "tenant-a"}
	for i := 0; i < 2; i++ {
		if w := doReq(g, "POST", "/api/v1/points", putBodyJSON, key); w.Code != 200 {
			t.Fatalf("burst request %d = %d", i, w.Code)
		}
	}
	w := doReq(g, "POST", "/api/v1/points", putBodyJSON, key)
	if w.Code != 429 {
		t.Fatalf("over-budget = %d, want 429", w.Code)
	}
	// Empty at one token per 2s: Retry-After is the time to that token,
	// in the header and in the envelope.
	env := decodeEnvelope(t, w)
	if env.Code != v1.CodeRateLimited || env.RetryAfterSeconds != 2 || w.Header().Get("Retry-After") != "2" {
		t.Errorf("429 = %+v, Retry-After %q; want rate_limited after 2s", env, w.Header().Get("Retry-After"))
	}
	// tenant-a's empty bucket is nobody else's: anonymous traffic and
	// unrecognized keys share the remote IP's bucket (an attacker-chosen
	// header must not name a tenant, nor mint a fresh bucket).
	for i, hdr := range []map[string]string{nil, {"X-API-Key": "bogus"}} {
		if w := doReq(g, "POST", "/api/v1/points", putBodyJSON, hdr); w.Code != 200 {
			t.Fatalf("ip-identified request %d = %d", i, w.Code)
		}
	}
	if w := doReq(g, "POST", "/api/v1/points", putBodyJSON, map[string]string{"X-API-Key": "bogus-2"}); w.Code != 429 {
		t.Fatalf("third request from one IP under a rotated key = %d, want 429", w.Code)
	}
	metrics := doReq(g, "GET", "/api/v1/metrics", "", map[string]string{"X-API-Key": "ops"}).Body.String()
	for _, want := range []string{"admission_rate_limited 2\n", "admission_shed_ingest 0\n", "admission_admitted_ingest 4\n"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	clk.Advance(2 * time.Second)
	if w := doReq(g, "POST", "/api/v1/points", putBodyJSON, key); w.Code != 200 {
		t.Fatalf("request after the hinted wait = %d, want 200", w.Code)
	}
}

// TestRateOnlyGatewayNeverSheds: a gateway whose controller has a
// budget and no signals (sentineld -rate) answers no 503 while ingest
// latency spikes 10× — the same spike sheds bulk as soon as one queue
// signal, however idle, stands behind the gradient.
func TestRateOnlyGatewayNeverSheds(t *testing.T) {
	ndjson := map[string]string{"Accept": v1.ContentTypeNDJSON}
	for _, tc := range []struct {
		name     string
		signals  []admission.Signal
		wantBulk int
	}{
		{"rate only", nil, 200},
		{"idle queue signal", []admission.Signal{{Name: "idle", Load: func() int64 { return 0 }, Limit: 100}}, 503},
	} {
		var load atomic.Int64
		clk := clock.NewManual(time.Unix(0, 0))
		ctrl := admission.NewController(admission.Config{Signals: tc.signals, RatePerSec: 1000, Clock: clk})
		g, _, _ := admissionGateway(t, &load, func(cfg *Config) { cfg.Admission = ctrl })
		for i := 0; i < 200; i++ {
			ctrl.ObserveLatency(admission.Ingest, 6*time.Millisecond)
		}
		for i := 0; i < 20; i++ {
			ctrl.ObserveLatency(admission.Ingest, 60*time.Millisecond)
		}
		clk.Advance(time.Second) // past RecomputeEvery: the next Admit refreshes pressure
		if w := doReq(g, "GET", "/api/v1/query", "", ndjson); w.Code != tc.wantBulk {
			t.Errorf("%s: bulk query during the spike = %d, want %d", tc.name, w.Code, tc.wantBulk)
		}
		if tc.wantBulk != 200 {
			continue
		}
		if w := doReq(g, "GET", "/api/v1/query", "", nil); w.Code != 200 {
			t.Errorf("%s: interactive query during the spike = %d, want 200", tc.name, w.Code)
		}
		if w := doReq(g, "POST", "/api/v1/points", putBodyJSON, nil); w.Code != 200 {
			t.Errorf("%s: put during the spike = %d, want 200", tc.name, w.Code)
		}
		if ctrl.ShedTotal() != 0 || ctrl.Pressure() != 0 {
			t.Errorf("%s: ShedTotal = %d, pressure = %v, want 0 and 0", tc.name, ctrl.ShedTotal(), ctrl.Pressure())
		}
	}
}

func TestAdmissionStreamRouteIsBulk(t *testing.T) {
	var load atomic.Int64
	g, ctrl, _ := admissionGateway(t, &load, nil)
	setPressure(ctrl, &load, 60) // sheds bulk only
	w := doReq(g, "GET", "/api/v1/anomalies/stream", "", nil)
	if w.Code != 503 {
		t.Fatalf("stream at 0.6 = %d, want 503", w.Code)
	}
	if env := decodeEnvelope(t, w); env.Code != v1.CodeOverloaded {
		t.Errorf("stream shed code = %q", env.Code)
	}
}

func TestAdmissionNilControllerPassesThrough(t *testing.T) {
	var load atomic.Int64
	g, _, _ := admissionGateway(t, &load, func(cfg *Config) { cfg.Admission = nil })
	if w := doReq(g, "POST", "/api/v1/points", putBodyJSON, nil); w.Code != 200 {
		t.Fatalf("put without controller = %d", w.Code)
	}
}
