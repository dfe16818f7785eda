package api

import (
	"context"
	"testing"

	v1 "repro/internal/api/v1"
	"repro/internal/faultinject"
	"repro/internal/query"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// engineGateway serves testBackend's data through the production read
// tier: the cached engine, degraded reads on.
func engineGateway(t *testing.T) (*Gateway, *query.Engine, *tsdb.Deployment) {
	t.Helper()
	backend, d := testBackend(t)
	engine := query.NewFromDeployment(d, query.Config{ServeStale: true})
	backend.Q = engine
	return New(Config{
		Backend:   backend,
		Query:     engine,
		Registry:  telemetry.NewRegistry(),
		Now:       func() int64 { return 59 },
		AccessLog: testLogger(),
	}), engine, d
}

const cachedWindow = "/api/v1/query?unit=1&sensor=2&from=0&to=59"

// TestQueryServesCachedBytes: a repeated /api/v1/query runs no encode,
// for JSON and NDJSON alike, and its bytes are encoding/json's on the
// v1 DTOs; a drained write into the window's row-hour re-encodes.
func TestQueryServesCachedBytes(t *testing.T) {
	gw, engine, d := engineGateway(t)
	q := tsdb.Query{Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(1, 2), Start: 0, End: 59}
	wantBodies := func() map[string]string {
		series, err := engine.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		j, err := marshalLine(v1.QueryResponse{Series: dtoSeries(series)})
		if err != nil {
			t.Fatal(err)
		}
		nd, err := ndjson(dtoSeries(series))
		if err != nil {
			t.Fatal(err)
		}
		return map[string]string{v1.ContentTypeJSON: string(j), v1.ContentTypeNDJSON: string(nd)}
	}
	read := func(accept string) string {
		t.Helper()
		rec := get(t, gw, cachedWindow, "Accept", accept)
		if rec.Code != 200 || rec.Header().Get("Content-Type") != accept {
			t.Fatalf("GET %s (%s) = %d %q", cachedWindow, accept, rec.Code, rec.Header().Get("Content-Type"))
		}
		return rec.Body.String()
	}

	want := wantBodies()
	for _, accept := range []string{v1.ContentTypeJSON, v1.ContentTypeNDJSON} {
		first := read(accept)
		encodes := engine.Encodes.Value()
		for i := 0; i < 3; i++ {
			if again := read(accept); again != first {
				t.Fatalf("%s repeat served different bytes", accept)
			}
		}
		if n := engine.Encodes.Value() - encodes; n != 0 {
			t.Fatalf("3 repeated %s reads ran %d encodes, want 0", accept, n)
		}
		if first != want[accept] {
			t.Fatalf("%s body\n%s\nencoding/json\n%s", accept, first, want[accept])
		}
	}

	// A write into the window's row-hour, drained to the TSD: the next
	// read re-encodes and carries it.
	if err := d.TSDs()[0].Put([]tsdb.Point{tsdb.EnergyPoint(1, 2, 30, 1234.5)}); err != nil {
		t.Fatal(err)
	}
	encodes := engine.Encodes.Value()
	got := read(v1.ContentTypeJSON)
	if engine.Encodes.Value() != encodes+1 {
		t.Fatalf("a read after a write into the window ran %d encodes, want 1", engine.Encodes.Value()-encodes)
	}
	if want := wantBodies()[v1.ContentTypeJSON]; got != want {
		t.Fatalf("after the write:\n%s\nencoding/json\n%s", got, want)
	}
}

// TestDegradedServeSplicesCachedBytes: a ServeStale degraded serve of a
// cached window answers the bytes encoding/json gives
// QueryResponse{…, Degraded: true}, from the window's cached series
// bytes, without encoding.
func TestDegradedServeSplicesCachedBytes(t *testing.T) {
	gw, engine, d := engineGateway(t)
	q := tsdb.Query{Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(1, 2), Start: 0, End: 59}
	series, err := engine.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if rec := get(t, gw, cachedWindow); rec.Code != 200 {
		t.Fatalf("warm read = %d", rec.Code)
	}

	d.Watermarks().Bump(tsdb.MetricEnergy)
	inj := faultinject.New(7)
	d.Cluster.Network().SetFaults(inj)
	inj.Set("blackout", faultinject.Rule{Op: "rpc/tsd/", ErrorRate: 1})
	defer inj.Reset()
	encodes := engine.Encodes.Value()
	rec := get(t, gw, cachedWindow)
	if rec.Code != 200 || rec.Header().Get(v1.HeaderDegraded) != "true" {
		t.Fatalf("blackout read = %d, %s %q", rec.Code, v1.HeaderDegraded, rec.Header().Get(v1.HeaderDegraded))
	}
	want, err := marshalLine(v1.QueryResponse{Series: dtoSeries(series), Degraded: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Body.String() != string(want) {
		t.Fatalf("degraded body\n%s\nencoding/json\n%s", rec.Body, want)
	}
	if engine.Encodes.Value() != encodes {
		t.Fatal("the degraded serve re-encoded the cached window")
	}
}
