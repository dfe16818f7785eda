package api

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	v1 "repro/internal/api/v1"
	"repro/internal/tsdb"
	"repro/internal/viz"
)

// The v1 DTO copies the read routes built before the read encoder: the
// reference encoding/json marshals, field for field.

func dtoSamples(ss []tsdb.Sample) []v1.Sample {
	out := make([]v1.Sample, len(ss))
	for i, s := range ss {
		out[i] = v1.Sample{Timestamp: s.Timestamp, Value: s.Value}
	}
	return out
}

func dtoSeries(series []tsdb.Series) []v1.Series {
	out := make([]v1.Series, len(series))
	for i, s := range series {
		out[i] = v1.Series{Metric: s.Metric, Tags: s.Tags, Samples: dtoSamples(s.Samples)}
	}
	return out
}

func dtoMachine(mv *viz.MachineView) v1.MachineView {
	out := v1.MachineView{Unit: mv.Unit, Status: string(mv.Status), Anomalies: mv.Anomalies}
	out.Sensors = make([]v1.SensorSeries, len(mv.Sensors))
	for i, sv := range mv.Sensors {
		out.Sensors[i] = v1.SensorSeries{
			Sensor: sv.Sensor, Samples: dtoSamples(sv.Samples), Anomalies: dtoSamples(sv.Anomalies), Latest: sv.Latest,
		}
	}
	return out
}

func dtoTop(top []viz.TopAnomaly) v1.TopResponse {
	out := make([]v1.TopAnomaly, len(top))
	for i, a := range top {
		out[i] = v1.TopAnomaly{Unit: a.Unit, Sensor: a.Sensor, Timestamp: a.Timestamp, Severity: a.Severity}
	}
	return v1.TopResponse{Anomalies: out}
}

// ndjson is what json.Encoder writes for lines, one value a line, or
// its first error.
func ndjson[T any](lines []T) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range lines {
		if err := enc.Encode(lines[i]); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// marshalLine is json.Marshal plus the newline writeJSON appends.
func marshalLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(b, '\n'), err
}

// sameEncoding fails t unless the read encoder and encoding/json both
// error, or both produce exactly the same bytes.
func sameEncoding(t *testing.T, what string, got []byte, gotErr error, want []byte, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: encoder error %v, encoding/json error %v", what, gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s:\nencoder       %q\nencoding/json %q", what, got, want)
	}
}

// checkReadEncode holds every read body the encoder writes to
// encoding/json on the same data.
func checkReadEncode(t *testing.T, series []tsdb.Series, ev v1.AnomalyEvent) {
	t.Helper()
	got, gotErr := encodeSeriesArray(series)
	want, wantErr := json.Marshal(dtoSeries(series))
	sameEncoding(t, "series array", got, gotErr, want, wantErr)
	for _, degraded := range []bool{false, true} {
		if gotErr != nil {
			break
		}
		end := queryResponseEnd
		if degraded {
			end = queryResponseEndDegraded
		}
		body := append(append(append([]byte(nil), queryResponseStart...), got...), end...)
		want, wantErr := marshalLine(v1.QueryResponse{Series: dtoSeries(series), Degraded: degraded})
		sameEncoding(t, "query response", body, nil, want, wantErr)
	}

	got, gotErr = encodeSeriesLines(series)
	want, wantErr = ndjson(dtoSeries(series))
	sameEncoding(t, "series lines", got, gotErr, want, wantErr)

	mv := &viz.MachineView{Unit: 3, Status: viz.Status(series[0].Metric), Anomalies: len(series)}
	for i, s := range series {
		d := &viz.SensorDetail{Unit: i, Sensor: len(s.Samples), Samples: s.Samples, Anomalies: series[len(series)-1-i].Samples}
		got, gotErr = encodeSeriesDetail(d)
		want, wantErr = marshalLine(v1.SeriesDetail{Unit: d.Unit, Sensor: d.Sensor, Samples: dtoSamples(d.Samples), Anomalies: dtoSamples(d.Anomalies)})
		sameEncoding(t, "series detail", got, gotErr, want, wantErr)

		got, gotErr = encodeSensorLines(d)
		lines := make([]any, 0, len(d.Samples)+1)
		for _, smp := range dtoSamples(d.Samples) {
			lines = append(lines, smp)
		}
		want, wantErr = ndjson(append(lines, map[string]any{"anomalies": dtoSamples(d.Anomalies)}))
		sameEncoding(t, "sensor lines", got, gotErr, want, wantErr)

		latest := 0.0
		if len(s.Samples) > 0 {
			latest = s.Samples[len(s.Samples)-1].Value
		}
		mv.Sensors = append(mv.Sensors, viz.SensorView{Sensor: i, Samples: d.Samples, Anomalies: d.Anomalies, Latest: latest})
	}
	got, gotErr = encodeMachineView(mv)
	want, wantErr = marshalLine(dtoMachine(mv))
	sameEncoding(t, "machine view", got, gotErr, want, wantErr)

	var top []viz.TopAnomaly
	for i, s := range series {
		for _, smp := range s.Samples {
			top = append(top, viz.TopAnomaly{Unit: i, Sensor: -i, Timestamp: smp.Timestamp, Severity: smp.Value})
		}
	}
	got, gotErr = encodeTop(top)
	want, wantErr = marshalLine(dtoTop(top))
	sameEncoding(t, "top", got, gotErr, want, wantErr)

	got, gotErr = encodeAnomalyEvent(&ev)
	want, wantErr = json.Marshal(ev)
	sameEncoding(t, "anomaly event", got, gotErr, want, wantErr)
}

// FuzzReadEncode is differential: for any metric and tag strings,
// timestamps and float bit patterns, the read encoder and encoding/json
// on the v1 DTOs both error or produce equal bytes.
func FuzzReadEncode(f *testing.F) {
	seeds := []struct {
		metric, key, value string
		ts                 int64
		a, b               float64
	}{
		{"energy", "unit", "7", 1700000000, 3.5, -0.25},
		{"anomaly", "sensor", "12", 0, 1e21, 1e-7},
		{"energy", "<tag>", "a&b", -1, 999999999999999999999, 0.000001},
		{"line\u2028sep", "para\u2029sep", "\x00\x1f\b\f\n\r\t\"\\", math.MaxInt64, math.MaxFloat64, math.SmallestNonzeroFloat64},
		{"bad\xffutf8", "\xc3", "é✓😀", math.MinInt64, math.Copysign(0, -1), 123456789.125},
		{"energy", "unit", "1", 5, math.NaN(), 1},
		{"energy", "unit", "1", 5, 2, math.Inf(-1)},
		{"", "", "", 0, 0, 0},
	}
	for _, s := range seeds {
		f.Add(s.metric, s.key, s.value, s.ts, math.Float64bits(s.a), math.Float64bits(s.b))
	}
	f.Fuzz(func(t *testing.T, metric, key, value string, ts int64, a, b uint64) {
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		samples := []tsdb.Sample{{Timestamp: ts, Value: x}, {Timestamp: ts ^ 0x5a5a, Value: y}}
		series := []tsdb.Series{
			{Metric: metric, Tags: map[string]string{key: value, value: metric, "unit": key}, Samples: samples},
			{Metric: value, Samples: samples[:0]},
			{Metric: key, Tags: map[string]string{}, Samples: samples[1:]},
		}
		checkReadEncode(t, series, v1.AnomalyEvent{
			Unit: int(ts % 1000), Sensor: int(ts >> 40), Timestamp: ts,
			Value: x, Z: y, PValue: y, Adjusted: x, Detector: key, Score: y,
		})
		checkReadEncode(t, series[1:], v1.AnomalyEvent{Timestamp: ts, Value: y, Z: x})
	})
}

// TestReadEncodeRandomWindows runs the differential check over seeded
// random windows shaped like the read routes' — a few tagged series of
// up to 60 samples — with values drawn from every float spelling
// encoding/json has: plain decimals, both sides of the 'e' cut-offs,
// signed zeros, subnormals and arbitrary bit patterns.
func TestReadEncodeRandomWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	value := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return math.Float64frombits(rng.Uint64()) // may be NaN or ±Inf
		case 1:
			return (rng.Float64() - 0.5) * 1e-5
		case 2:
			return (rng.Float64() - 0.5) * 1e22
		case 3:
			return math.Copysign(0, float64(rng.Intn(2)-1))
		case 4:
			return float64(rng.Int63n(1e6) - 5e5)
		case 5:
			return math.SmallestNonzeroFloat64 * float64(rng.Intn(1000))
		default:
			return rng.NormFloat64() * 100
		}
	}
	names := []string{"energy", "anomaly", "unit", "sensor", "a<b>&c", "tab\there", "é", "\u2028", "\xfe", ""}
	for w := 0; w < 2000; w++ {
		series := make([]tsdb.Series, 1+rng.Intn(4))
		for i := range series {
			s := &series[i]
			s.Metric = names[rng.Intn(len(names))]
			if rng.Intn(4) > 0 {
				s.Tags = map[string]string{}
				for k := rng.Intn(4); k > 0; k-- {
					s.Tags[names[rng.Intn(len(names))]] = names[rng.Intn(len(names))]
				}
			}
			ts := rng.Int63n(1 << 40)
			for k := rng.Intn(61); k > 0; k-- {
				s.Samples = append(s.Samples, tsdb.Sample{Timestamp: ts, Value: value()})
				ts += 1 + rng.Int63n(10)
			}
		}
		ev := v1.AnomalyEvent{Unit: rng.Intn(64), Sensor: rng.Intn(256), Timestamp: rng.Int63(), Value: value(), Z: value(), PValue: rng.Float64(), Adjusted: rng.Float64()}
		if rng.Intn(2) == 0 {
			ev.Detector, ev.Score = names[rng.Intn(len(names))], value()
		}
		checkReadEncode(t, series, ev)
	}
}
