package tsdb

import (
	"encoding/gob"
	"testing"

	"repro/internal/rpc"
	"repro/internal/rpc/wiretest"
)

func init() {
	gob.Register(&PutBatch{})
	gob.Register(&QueryRequest{})
	gob.Register(&QueryResponse{})
	rpc.RegisterWireType(rpc.TagPutBatch, DecodePutBatch)
	rpc.RegisterWireType(rpc.TagQueryRequest, DecodeQueryRequest)
	rpc.RegisterWireType(rpc.TagQueryResponse, DecodeQueryResponse)
}

// GenPoints draws n points: a few metrics and tag sets repeated, as a
// fleet repeats them, among arbitrary ones.
func genPoints(g wiretest.Gen, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		p := Point{Metric: g.Str(10), Tags: g.StringMap(4), Timestamp: g.Int64(), Value: g.Float()}
		if g.IntN(2) == 0 {
			p = EnergyPoint(g.IntN(4), g.IntN(8), g.Int64(), g.Float())
		}
		pts[i] = p
	}
	return pts
}

// TestTSDBWireRoundTrip: the TSD tier's three rpc payloads survive the
// codec as they survived gob — batches of 0 and 1 000 points, nil and
// empty tag maps, NaN and ±Inf values, negative timestamps.
func TestTSDBWireRoundTrip(t *testing.T) {
	g := wiretest.NewGen(4)
	for _, n := range []int{0, 1, 1000} {
		wiretest.RoundTrip(t, &PutBatch{Points: genPoints(g, n)}, gob.NewEncoder, gob.NewDecoder)
	}
	wiretest.RoundTrip(t, &PutBatch{Points: []Point{}}, gob.NewEncoder, gob.NewDecoder)
	for i := 0; i < 100; i++ {
		put := &PutBatch{Points: genPoints(g, g.IntN(60))}
		req := &QueryRequest{Query: Query{
			Metric: g.Str(10), Tags: g.StringMap(3), Start: g.Int64(), End: g.Int64(),
			DownsampleSeconds: g.Int64(), Aggregate: AggFunc(g.IntN(5)), MaxPoints: g.Int(),
		}}
		resp := &QueryResponse{}
		for s := g.IntN(4); s > 0; s-- {
			series := Series{Metric: g.Str(10), Tags: g.StringMap(3)}
			for k := g.IntN(50); k > 0; k-- {
				series.Samples = append(series.Samples, Sample{Timestamp: g.Int64(), Value: g.Float()})
			}
			resp.Series = append(resp.Series, series)
		}
		for _, v := range []any{put, req, resp} {
			wiretest.RoundTrip(t, v, gob.NewEncoder, gob.NewDecoder)
		}
	}
}

// TestDecodedPointsShareTags: two decodes of the same series hand out
// one tag map and one metric string — the intern table at work — while
// a query response's series get maps of their own.
func TestDecodedPointsShareTags(t *testing.T) {
	enc, err := rpc.AppendValue(nil, &PutBatch{Points: []Point{
		EnergyPoint(90001, 1, 10, 1), EnergyPoint(90001, 2, 10, 2), EnergyPoint(90001, 1, 11, 3),
	}})
	if err != nil {
		t.Fatal(err)
	}
	decode := func() []Point {
		v, err := rpc.DecodeValue(enc)
		if err != nil {
			t.Fatal(err)
		}
		return v.(*PutBatch).Points
	}
	a, b := decode(), decode()
	same := func(x, y map[string]string) bool {
		x["probe"] = "1"
		_, ok := y["probe"]
		delete(x, "probe")
		return ok
	}
	if !same(a[0].Tags, a[2].Tags) || !same(a[0].Tags, b[0].Tags) || !same(a[1].Tags, b[1].Tags) {
		t.Fatal("equal tag sets decoded into distinct maps")
	}
	if same(a[0].Tags, a[1].Tags) {
		t.Fatal("distinct tag sets share a map")
	}

	renc, err := rpc.AppendValue(nil, &QueryResponse{Series: []Series{{Metric: "energy", Tags: a[0].Tags}}})
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := rpc.DecodeValue(renc)
	r2, _ := rpc.DecodeValue(renc)
	if same(r1.(*QueryResponse).Series[0].Tags, r2.(*QueryResponse).Series[0].Tags) {
		t.Fatal("query responses share a tag map: callers may write to theirs")
	}
}
