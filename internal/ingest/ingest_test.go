package ingest

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/simdata"
	"repro/internal/tsdb"
)

func smallFleet() *simdata.Fleet {
	return simdata.NewFleet(simdata.Config{Units: 4, SensorsPerUnit: 25, Seed: 1})
}

type collectingSink struct {
	mu     sync.Mutex
	points []tsdb.Point
	fail   error
}

func (s *collectingSink) SubmitContext(_ context.Context, pts []tsdb.Point) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail != nil {
		return s.fail
	}
	s.points = append(s.points, pts...)
	return nil
}

func TestDriverProducesEverySample(t *testing.T) {
	fleet := smallFleet()
	sink := &collectingSink{}
	d := NewDriver(fleet, sink, DriverConfig{BatchSize: 17, Senders: 3})
	stats, err := d.Run(100, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(4 * 25 * 5)
	if stats.Samples != want {
		t.Fatalf("Samples = %d, want %d", stats.Samples, want)
	}
	if int64(len(sink.points)) != want {
		t.Fatalf("sink received %d points", len(sink.points))
	}
	if stats.Rate <= 0 || stats.Elapsed <= 0 {
		t.Fatal("rate/elapsed not measured")
	}
	// Every (unit, sensor, t) appears exactly once.
	seen := make(map[[3]int64]bool, want)
	for _, p := range sink.points {
		if p.Metric != tsdb.MetricEnergy {
			t.Fatalf("metric = %q", p.Metric)
		}
		var u, s int64
		if _, err := fmtSscan(p.Tags["unit"], &u); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(p.Tags["sensor"], &s); err != nil {
			t.Fatal(err)
		}
		key := [3]int64{u, s, p.Timestamp}
		if seen[key] {
			t.Fatalf("duplicate sample %v", key)
		}
		seen[key] = true
		if got := fleet.Value(int(u), int(s), p.Timestamp); got != p.Value {
			t.Fatal("driver value differs from fleet value")
		}
	}
}

func TestDriverCountsFailures(t *testing.T) {
	sink := &collectingSink{fail: errors.New("down")}
	d := NewDriver(smallFleet(), sink, DriverConfig{BatchSize: 10, Senders: 2})
	stats, err := d.Run(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failures == 0 {
		t.Fatal("failures not counted")
	}
	if stats.Samples != 0 {
		t.Fatal("failed batches must not count as samples")
	}
}

func TestLineRoundTrip(t *testing.T) {
	p := tsdb.EnergyPoint(3, 14, 1500, 2.718)
	line := FormatLine(&p)
	if line != "put energy 1500 2.718 sensor=14 unit=3" {
		t.Fatalf("line = %q", line)
	}
	got, err := ParseLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if got.Metric != p.Metric || got.Timestamp != p.Timestamp || got.Value != p.Value {
		t.Fatalf("round trip = %+v", got)
	}
	if got.Tags["unit"] != "3" || got.Tags["sensor"] != "14" {
		t.Fatalf("tags = %v", got.Tags)
	}
}

func TestParseLineErrors(t *testing.T) {
	bad := []string{
		"",
		"get energy 1 2 a=b",
		"put energy xx 2 a=b",
		"put energy 1 yy a=b",
		"put energy 1 2",
		"put energy 1 2 ab",
		"put energy 1 2 =b",
		"put energy 1 2 a=",
	}
	for _, line := range bad {
		if _, err := ParseLine(line); err == nil {
			t.Fatalf("line %q must fail", line)
		}
	}
}

func TestLinePropertyRoundTrip(t *testing.T) {
	f := func(unit, sensor uint8, ts uint32, val float64) bool {
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return true
		}
		p := tsdb.EnergyPoint(int(unit), int(sensor), int64(ts), val)
		got, err := ParseLine(FormatLine(&p))
		return err == nil && got.Value == val && got.Timestamp == int64(ts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	pts := []tsdb.Point{
		tsdb.EnergyPoint(1, 2, 10, 1.5),
		tsdb.EnergyPoint(3, 4, 20, -2.5),
	}
	body, err := FormatJSON(pts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSON(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Value != 1.5 || got[1].Tags["unit"] != "3" {
		t.Fatalf("round trip = %+v", got)
	}
	// Single-object form.
	one, err := ParseJSON([]byte(`{"metric":"energy","timestamp":5,"value":7,"tags":{"unit":"1","sensor":"2"}}`))
	if err != nil || len(one) != 1 || one[0].Value != 7 {
		t.Fatalf("single object = %+v, %v", one, err)
	}
	// Errors.
	if _, err := ParseJSON([]byte("{nope")); err == nil {
		t.Fatal("bad JSON must fail")
	}
	if _, err := ParseJSON([]byte("[{nope")); err == nil {
		t.Fatal("bad JSON array must fail")
	}
	if _, err := ParseJSON([]byte(`{"metric":"","timestamp":5,"value":7,"tags":{"a":"b"}}`)); err == nil {
		t.Fatal("invalid point must fail validation")
	}
}

// fmtSscan is a tiny strconv wrapper (avoids importing fmt for one call).
func fmtSscan(s string, out *int64) (int, error) {
	v := int64(0)
	for _, ch := range s {
		if ch < '0' || ch > '9' {
			return 0, errors.New("bad int " + s)
		}
		v = v*10 + int64(ch-'0')
	}
	*out = v
	return 1, nil
}

func TestParseLineMalformedEdgeCases(t *testing.T) {
	bad := []string{
		"put",                                  // nothing after the verb
		"put energy",                           // no timestamp/value/tags
		"put energy 1",                         // no value/tags
		"put energy -5 2 a=b",                  // negative timestamp fails Validate
		"put energy 1.5 2 a=b",                 // fractional timestamp
		"put energy 1 NaNistan a=b",            // unparseable value
		"put energy 9223372036854775808 2 a=b", // int64 overflow
		"put energy 1 2 ==",                    // empty tag key and value
		"PUT energy 1 2 a=b",                   // verb is case-sensitive
		"  ",                                   // whitespace only
		"put  energy  1  2  =",                 // lone '='
	}
	for _, line := range bad {
		if _, err := ParseLine(line); err == nil {
			t.Errorf("line %q must fail", line)
		} else if !errors.Is(err, tsdb.ErrBadPoint) {
			t.Errorf("line %q: err = %v, want ErrBadPoint", line, err)
		}
	}
	// Duplicate tag keys: last one wins (strings.Fields order), not an
	// error — matches OpenTSDB's lenient telnet handling.
	p, err := ParseLine("put energy 1 2 a=b a=c")
	if err != nil || p.Tags["a"] != "c" {
		t.Fatalf("duplicate tag: %+v, %v", p, err)
	}
	// A value containing '=' splits at the first one, OpenTSDB-style.
	p, err = ParseLine("put energy 1 2 a=b=c")
	if err != nil || p.Tags["a"] != "b=c" {
		t.Fatalf("nested '=': %+v, %v", p, err)
	}
	// Excess interior whitespace is tolerated.
	p, err = ParseLine("put   energy\t5   2.5   unit=1")
	if err != nil || p.Metric != "energy" || p.Timestamp != 5 {
		t.Fatalf("whitespace: %+v, %v", p, err)
	}
	// Scientific notation and negative values parse.
	p, err = ParseLine("put energy 1 -1.5e3 unit=1")
	if err != nil || p.Value != -1500 {
		t.Fatalf("scientific: %+v, %v", p, err)
	}
}

func TestParseJSONTruncatedAndInvalid(t *testing.T) {
	bad := [][]byte{
		nil,
		[]byte(""),
		[]byte("   "),
		[]byte(`{"metric":"energy","timestamp":5,"value":`),                       // truncated object
		[]byte(`[{"metric":"energy","timestamp":5,"value":7,"tags":{"a":"b"}}`),   // truncated array
		[]byte(`[{"metric":"energy","timestamp":5,"value":7,"tags":{"a":"b"}},]`), // trailing comma
		[]byte(`"just a string"`),
		[]byte(`42`),
		[]byte(`{"metric":"energy","timestamp":-1,"value":7,"tags":{"a":"b"}}`), // negative ts
		[]byte(`{"metric":"energy","timestamp":5,"value":7}`),                   // no tags
		[]byte(`{"metric":"energy","timestamp":5,"value":7,"tags":{}}`),         // empty tags
		[]byte(`{"metric":"energy","timestamp":5,"value":7,"tags":{"a":""}}`),   // empty tag value
	}
	for _, body := range bad {
		if _, err := ParseJSON(body); err == nil {
			t.Errorf("body %q must fail", body)
		} else if !errors.Is(err, tsdb.ErrBadPoint) {
			t.Errorf("body %q: err = %v, want ErrBadPoint", body, err)
		}
	}
	// An array dies on its first invalid element even when others are fine.
	mixed := []byte(`[{"metric":"energy","timestamp":5,"value":7,"tags":{"a":"b"}},{"metric":"","timestamp":5,"value":7,"tags":{"a":"b"}}]`)
	if _, err := ParseJSON(mixed); err == nil {
		t.Fatal("array with one invalid point must fail")
	}
	// Empty array is valid and yields no points.
	got, err := ParseJSON([]byte(`[]`))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty array = %v, %v", got, err)
	}
}

func TestJSONPropertyRoundTrip(t *testing.T) {
	f := func(unit, sensor uint8, ts uint32, val float64) bool {
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return true // JSON cannot carry non-finite floats
		}
		pts := []tsdb.Point{tsdb.EnergyPoint(int(unit), int(sensor), int64(ts), val)}
		body, err := FormatJSON(pts)
		if err != nil {
			return false
		}
		got, err := ParseJSON(body)
		return err == nil && len(got) == 1 &&
			got[0].Value == val && got[0].Timestamp == int64(ts) &&
			got[0].Tags["unit"] == pts[0].Tags["unit"] &&
			got[0].Tags["sensor"] == pts[0].Tags["sensor"]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLinePropertyRoundTripArbitraryTags(t *testing.T) {
	// Tags with arbitrary non-space printable runes survive the telnet
	// line format (space, '=' and empties are the only structural
	// characters).
	clean := func(s string) string {
		out := make([]rune, 0, len(s))
		for _, r := range s {
			if r > ' ' && r != '=' && r < 0x7f {
				out = append(out, r)
			}
		}
		if len(out) == 0 {
			return "x"
		}
		return string(out)
	}
	f := func(k, v string, ts uint32, val int32) bool {
		key, value := clean(k), clean(v)
		p := tsdb.Point{Metric: "m", Timestamp: int64(ts), Value: float64(val), Tags: map[string]string{key: value}}
		got, err := ParseLine(FormatLine(&p))
		return err == nil && got.Tags[key] == value
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDriverRunContextCancel(t *testing.T) {
	fleet := smallFleet()
	ctx, cancel := context.WithCancel(context.Background())
	var batches atomic.Int64
	sink := SinkFunc(func(points []tsdb.Point) error {
		if batches.Add(1) == 2 {
			cancel() // stop mid-replay
		}
		return nil
	})
	d := NewDriver(fleet, sink, DriverConfig{BatchSize: 10, Senders: 1})
	stats, err := d.RunContext(ctx, 0, 1000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	total := int64(fleet.Units() * fleet.Sensors() * 1000)
	if stats.Samples >= total {
		t.Fatalf("run was not cut short: %d samples", stats.Samples)
	}
}
