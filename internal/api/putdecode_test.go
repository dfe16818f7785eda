package api

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	v1 "repro/internal/api/v1"
	"repro/internal/tsdb"
)

// testDecoder is a decoder over body with intern tables of its own.
func testDecoder(body string, maxSets int64) *putDecoder {
	return &putDecoder{
		body:    []byte(body),
		sets:    tsdb.NewInternTable[map[string]string](maxSets),
		metrics: tsdb.NewInternTable[string](maxSets),
	}
}

// referenceDecode is the encoding/json route plus the gate every body
// passes: what POST /api/v1/points did for every JSON body before the
// scanner, and still does for the ones it declines.
func referenceDecode(body []byte) ([]tsdb.Point, error) {
	pts, err := unmarshalPut(body)
	if err != nil {
		return nil, err
	}
	return validatePoints(pts)
}

const oneRow = `{"points":[{"metric":"energy","timestamp":11,"value":3.5,"tags":{"unit":"1","sensor":"2"}}]}`

// TestPutScannerOwnership pins which route decodes what: the scanner
// owns the plain put grammar and rejects what is not JSON at all;
// constructs encoding/json has opinions on go to encoding/json.
func TestPutScannerOwnership(t *testing.T) {
	const (
		owned = iota
		declined
		rejected
	)
	cases := []struct {
		name, body string
		want       int
	}{
		{"envelope", oneRow, owned},
		{"benchmark row", string(rowBody(3, 50, 99)), owned},
		{"bare array", `[{"metric":"m","timestamp":1,"value":2,"tags":{"a":"b"}}]`, owned},
		{"single object", `{"metric":"m","timestamp":1,"value":2,"tags":{"a":"b"}}`, owned},
		{"reordered keys", `[{"tags":{"a":"b"},"value":2,"timestamp":1,"metric":"m"}]`, owned},
		{"whitespace", " {\t\"points\" :\r\n[ {\n\"metric\" : \"m\" ,\"timestamp\":\t1, \"value\" :2 , \"tags\" : { \"a\" : \"b\" , \"c\":\"d\" } } ] } \n", owned},
		{"number forms", `[{"metric":"m","timestamp":-0,"value":-0,"tags":{"a":"b"}},{"metric":"m","timestamp":0,"value":1.5E+3,"tags":{"a":"b"}},{"metric":"m","value":0.1e-7,"tags":{"a":"b"}}]`, owned},
		{"missing members", `[{"metric":"m"}]`, owned}, // zero values; Validate rejects
		{"empty envelope", `{"points":[]}`, owned},
		{"empty array", `[]`, owned},
		{"empty object", `{}`, owned},

		{"escape in metric", `[{"metric":"m\u0000","timestamp":1,"value":2,"tags":{"a":"b"}}]`, declined},
		{"escape in tag", `[{"metric":"m","timestamp":1,"value":2,"tags":{"a":"b\n"}}]`, declined},
		{"escaped member name", `[{"metr\u0069c":"m","timestamp":1,"value":2,"tags":{"a":"b"}}]`, declined},
		{"non-ASCII", `[{"metric":"mé","timestamp":1,"value":2,"tags":{"a":"b"}}]`, declined},
		{"invalid UTF-8", "[{\"metric\":\"m\xff\",\"timestamp\":1,\"value\":2,\"tags\":{\"a\":\"b\"}}]", declined},
		{"null metric", `[{"metric":null,"timestamp":1,"value":2,"tags":{"a":"b"}}]`, declined},
		{"null tags", `[{"metric":"m","timestamp":1,"value":2,"tags":null}]`, declined},
		{"null value", `[{"metric":"m","timestamp":1,"value":null,"tags":{"a":"b"}}]`, declined},
		{"null point", `[null]`, declined},
		{"null points", `{"points":null}`, declined},
		{"duplicate member", `[{"metric":"m","metric":"n","timestamp":1,"value":2,"tags":{"a":"b"}}]`, declined},
		{"duplicate tag", `[{"metric":"m","timestamp":1,"value":2,"tags":{"a":"b","a":"c"}}]`, declined},
		{"cased member", `[{"Metric":"m","timestamp":1,"value":2,"tags":{"a":"b"}}]`, declined},
		{"cased envelope", `{"Points":[{"metric":"m","timestamp":1,"value":2,"tags":{"a":"b"}}]}`, declined},
		{"unknown member", `[{"metric":"m","timestamp":1,"value":2,"tags":{"a":"b"},"extra":1}]`, declined},
		{"second envelope member", `{"points":[{"metric":"m","timestamp":1,"value":2,"tags":{"a":"b"}}],"x":1}`, declined},
		{"nested tag value", `[{"metric":"m","timestamp":1,"value":2,"tags":{"a":{"b":"c"}}}]`, declined},
		{"numeric tag value", `[{"metric":"m","timestamp":1,"value":2,"tags":{"a":1}}]`, declined},
		{"string value", `[{"metric":"m","timestamp":1,"value":"2","tags":{"a":"b"}}]`, declined},
		{"top-level scalar", `5`, declined},

		{"empty body", ``, rejected},
		{"garbage", `{bad`, rejected},
		{"trailing garbage", oneRow + `x`, rejected},
		{"second value", oneRow + oneRow, rejected},
		{"fraction timestamp", `[{"metric":"m","timestamp":1.0,"value":2,"tags":{"a":"b"}}]`, rejected},
		{"exponent timestamp", `[{"metric":"m","timestamp":1e3,"value":2,"tags":{"a":"b"}}]`, rejected},
		{"timestamp out of range", `[{"metric":"m","timestamp":9223372036854775808,"value":2,"tags":{"a":"b"}}]`, rejected},
		{"value out of range", `[{"metric":"m","timestamp":1,"value":1e400,"tags":{"a":"b"}}]`, rejected},
		{"leading zero", `[{"metric":"m","timestamp":01,"value":2,"tags":{"a":"b"}}]`, rejected},
		{"bare minus", `[{"metric":"m","timestamp":1,"value":-,"tags":{"a":"b"}}]`, rejected},
		{"dangling fraction", `[{"metric":"m","timestamp":1,"value":2.,"tags":{"a":"b"}}]`, rejected},
		{"trailing comma", `[{"metric":"m","timestamp":1,"value":2,"tags":{"a":"b"}},]`, rejected},
		{"control byte in string", "[{\"metric\":\"m\x01\",\"timestamp\":1,\"value\":2,\"tags\":{\"a\":\"b\"}}]", rejected},
	}
	for _, c := range cases {
		d := testDecoder(c.body, 16)
		s := putScanner{d: d, b: d.body}
		_, err := s.body()
		got := owned
		if errors.Is(err, errDeclined) {
			got = declined
		} else if err != nil {
			got = rejected
		}
		if got != c.want {
			t.Errorf("%s: scanner outcome %d (err %v), want %d", c.name, got, err, c.want)
		}
		checkAgainstReference(t, c.name, []byte(c.body), d)
	}
}

// checkAgainstReference holds d's decode of body to the encoding/json
// route: both reject, or both accept the same points.
func checkAgainstReference(t *testing.T, name string, body []byte, d *putDecoder) {
	t.Helper()
	d.body = body
	got, gotErr := d.decodeJSON()
	want, wantErr := referenceDecode(body)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: decode err = %v, reference err = %v\nbody %q", name, gotErr, wantErr, body)
	}
	if gotErr != nil {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, reference %d\nbody %q", name, len(got), len(want), body)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Metric != w.Metric || g.Timestamp != w.Timestamp ||
			math.Float64bits(g.Value) != math.Float64bits(w.Value) || !reflect.DeepEqual(g.Tags, w.Tags) {
			t.Fatalf("%s: point %d = %+v, reference %+v\nbody %q", name, i, g, w, body)
		}
	}
}

// FuzzPutDecode is the differential target: for any body, the gateway's
// decode (scanner, or encoding/json when it declines) and the
// encoding/json route alone both reject, or both accept identical
// points. The intern tables are small and outlive iterations, so hits,
// misses and the table-full path all run.
func FuzzPutDecode(f *testing.F) {
	// The named constructs live in testdata/fuzz/FuzzPutDecode; a valid
	// row cut at every offset is seeded here.
	for i := 0; i <= len(oneRow); i++ {
		f.Add([]byte(oneRow[:i]))
	}
	sets := tsdb.NewInternTable[map[string]string](8)
	metrics := tsdb.NewInternTable[string](4)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstReference(t, "fuzz", body, &putDecoder{sets: sets, metrics: metrics})
	})
}

// capturePublisher records every published slice in *got.
func capturePublisher(got *[][]tsdb.Point) Publisher {
	return publisherFunc(func(_ context.Context, pts []tsdb.Point) (int, error) {
		*got = append(*got, pts)
		return len(pts), nil
	})
}

func postPut(gw *Gateway, contentType, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/api/v1/points", strings.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, req)
	return rec
}

// TestPutRejectsUnstorablePoint: a point Codec.Encode would refuse is
// refused at the edge, whatever the body format — an acked point the
// store can never write wedges a sender forever.
func TestPutRejectsUnstorablePoint(t *testing.T) {
	var published [][]tsdb.Point
	gw := New(Config{Publisher: capturePublisher(&published), AccessLog: testLogger()})
	const good = `{"metric":"energy","timestamp":5,"value":1,"tags":{"unit":"1","sensor":"2"}}`
	unstorable := map[string]string{
		"no tags":            `{"metric":"energy","timestamp":5,"value":1}`,
		"empty tags":         `{"metric":"energy","timestamp":5,"value":1,"tags":{}}`,
		"empty metric":       `{"metric":"","timestamp":5,"value":1,"tags":{"unit":"1"}}`,
		"negative timestamp": `{"metric":"energy","timestamp":-5,"value":1,"tags":{"unit":"1"}}`,
		"empty tag value":    `{"metric":"energy","timestamp":5,"value":1,"tags":{"unit":""}}`,
		"empty tag name":     `{"metric":"energy","timestamp":5,"value":1,"tags":{"":"1"}}`,
		"escaped, no tags":   `{"m\u0065tric":"energy","timestamp":5,"value":1}`, // the encoding/json route
	}
	for name, bad := range unstorable {
		bodies := map[string]string{
			"envelope":      `{"points":[` + good + `,` + bad + `]}`,
			"bare array":    `[` + good + `,` + bad + `]`,
			"single object": bad,
		}
		for format, body := range bodies {
			rec := postPut(gw, v1.ContentTypeJSON, body)
			if rec.Code != 400 || !strings.Contains(rec.Body.String(), v1.CodeBadRequest) {
				t.Errorf("%s, %s: status %d body %s, want 400 %s", name, format, rec.Code, rec.Body, v1.CodeBadRequest)
			}
		}
	}
	for name, lines := range map[string]string{
		"no tags":            "put energy 4 1 unit=1\nput energy 5 1\n",
		"negative timestamp": "put energy -5 1 unit=1\n",
		"empty tag value":    "put energy 5 1 unit=\n",
	} {
		rec := postPut(gw, v1.ContentTypeLines, lines)
		if rec.Code != 400 || !strings.Contains(rec.Body.String(), v1.CodeBadRequest) {
			t.Errorf("%s, lines: status %d body %s, want 400 %s", name, rec.Code, rec.Body, v1.CodeBadRequest)
		}
	}
	if len(published) != 0 {
		t.Fatalf("rejected requests published %d batches", len(published))
	}
	if rec := postPut(gw, v1.ContentTypeJSON, `{"points":[`+good+`]}`); rec.Code != 200 || len(published) != 1 {
		t.Fatalf("storable envelope: status %d, %d batches published", rec.Code, len(published))
	}
}

func tagsPointer(p tsdb.Point) uintptr { return reflect.ValueOf(p.Tags).Pointer() }

// TestDecodedTagsAreShared: the same tag bytes decode to the same map,
// within a request and across requests; a full table costs sharing,
// never correctness.
func TestDecodedTagsAreShared(t *testing.T) {
	var published [][]tsdb.Point
	gw := New(Config{Publisher: capturePublisher(&published), AccessLog: testLogger()})
	const body = `{"points":[` +
		`{"metric":"energy","timestamp":1,"value":1,"tags":{"unit":"shared-test","sensor":"0"}},` +
		`{"metric":"energy","timestamp":1,"value":2,"tags":{"unit":"shared-test","sensor":"1"}},` +
		`{"metric":"energy","timestamp":2,"value":3,"tags":{"unit":"shared-test","sensor":"0"}}]}`
	for i := 0; i < 2; i++ {
		if rec := postPut(gw, v1.ContentTypeJSON, body); rec.Code != 200 {
			t.Fatalf("put %d: status %d (%s)", i, rec.Code, rec.Body)
		}
	}
	a, b := published[0], published[1]
	if tagsPointer(a[0]) != tagsPointer(a[2]) || tagsPointer(a[0]) != tagsPointer(b[0]) || tagsPointer(a[1]) != tagsPointer(b[1]) {
		t.Fatal("equal tag bytes decoded into distinct maps")
	}
	if tagsPointer(a[0]) == tagsPointer(a[1]) {
		t.Fatal("distinct tag sets share a map")
	}
	want := map[string]string{"unit": "shared-test", "sensor": "1"}
	if !reflect.DeepEqual(b[1].Tags, want) {
		t.Fatalf("shared tags = %v, want %v", b[1].Tags, want)
	}

	// A table with room for one set: the first set stays shared, every
	// later one decodes into a fresh, correct map.
	d := testDecoder(body, 1)
	first, err := d.decodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	second, err := d.decodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if tagsPointer(first[0]) != tagsPointer(second[0]) || tagsPointer(first[0]) != tagsPointer(first[2]) {
		t.Error("the interned set is not shared once the table is full")
	}
	if tagsPointer(first[1]) == tagsPointer(second[1]) {
		t.Error("a set the table had no room for is shared")
	}
	if !reflect.DeepEqual(first, second) || !reflect.DeepEqual(second[1].Tags, want) {
		t.Errorf("full table changed the decode: %+v vs %+v", first, second)
	}
	if n := d.sets.Len(); n != 1 {
		t.Errorf("table holds %d sets, limit 1", n)
	}
}

// TestPooledBodyNotAliased: the body buffer goes back to the pool when
// the request ends, so no decoded point may reference it — for the
// scanner, the encoding/json route and the line protocol alike.
func TestPooledBodyNotAliased(t *testing.T) {
	want := []tsdb.Point{
		{Metric: "energy", Timestamp: 11, Value: 3.5, Tags: map[string]string{"unit": "1", "sensor": "2"}},
		{Metric: "energy", Timestamp: 12, Value: -4, Tags: map[string]string{"unit": "1", "sensor": "3"}},
	}
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 'x'
		}
	}
	for name, body := range map[string]string{
		"scanner":       `[{"metric":"energy","timestamp":11,"value":3.5,"tags":{"unit":"1","sensor":"2"}},{"metric":"energy","timestamp":12,"value":-4,"tags":{"unit":"1","sensor":"3"}}]`,
		"encoding/json": `[{"metric":"en\u0065rgy","timestamp":11,"value":3.5,"tags":{"unit":"1","sensor":"2"}},{"metric":"energy","timestamp":12,"value":-4,"tags":{"unit":"1","sensor":"3"}}]`,
	} {
		d := testDecoder(body, 16)
		got, err := d.decodeJSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		scribble(d.body)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: points changed with the buffer: %+v", name, got)
		}
	}
	lines := []byte("put energy 11 3.5 unit=1 sensor=2\nput energy 12 -4 unit=1 sensor=3\n")
	got, err := parsePutLines(lines)
	if err != nil {
		t.Fatal(err)
	}
	scribble(lines)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lines: points changed with the buffer: %+v", got)
	}
}

// TestReadBodyHonoursMaxBody: the pooled read keeps MaxBytesReader's
// contract — one byte over is the 413 error, with or without a
// Content-Length, and a reused buffer never leaks an earlier body.
func TestReadBodyHonoursMaxBody(t *testing.T) {
	d := new(putDecoder)
	for _, size := range []int64{-1, 10, 5000} {
		if err := d.readBody(strings.NewReader(strings.Repeat("a", 5000)), size, 4999); !isMaxBytes(err) {
			t.Errorf("size %d: err = %v, want MaxBytesError", size, err)
		}
	}
	for _, size := range []int64{-1, 3, 1 << 40} {
		if err := d.readBody(strings.NewReader("short"), size, 5); err != nil || string(d.body) != "short" {
			t.Errorf("size %d: body %q err %v", size, d.body, err)
		}
	}
}

// TestInternTableConcurrent: the writer connections decode at once
// against one table — every decode is correct, equal bytes end up on
// one canonical map, and the table never exceeds its limit.
func TestInternTableConcurrent(t *testing.T) {
	const workers, limit = 8, 32
	sets := tsdb.NewInternTable[map[string]string](limit)
	metrics := tsdb.NewInternTable[string](limit)
	bodies := make([]string, 8)
	for u := range bodies {
		bodies[u] = string(rowBody(u, 8, 5)) // 64 distinct sets against room for 32
	}
	decoded := make([][][]tsdb.Point, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for u, body := range bodies {
					d := &putDecoder{body: []byte(body), sets: sets, metrics: metrics}
					pts, err := d.decodeJSON()
					if err != nil || len(pts) != 8 || pts[3].Tags["unit"] != strconv.Itoa(u) || pts[3].Tags["sensor"] != "3" {
						t.Errorf("worker %d unit %d: %v %+v", w, u, err, pts)
						return
					}
					if i == 49 {
						decoded[w] = append(decoded[w], pts)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := sets.Len(); n != limit {
		t.Fatalf("table holds %d sets, want it full at %d", n, limit)
	}
	shared := 0
	for u := range bodies {
		for s := 0; s < 8; s++ {
			if _, ok := sets.Get([]byte(`{"unit":"` + strconv.Itoa(u) + `","sensor":"` + strconv.Itoa(s) + `"}`)); !ok {
				continue
			}
			shared++
			for w := 1; w < workers && !t.Failed(); w++ {
				if tagsPointer(decoded[w][u][s]) != tagsPointer(decoded[0][u][s]) {
					t.Errorf("unit %d sensor %d: workers 0 and %d hold different maps for an interned set", u, s, w)
				}
			}
		}
	}
	if shared != limit {
		t.Fatalf("%d sets found in the table, want %d", shared, limit)
	}
}
