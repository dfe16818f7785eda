package api

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"unicode/utf8"

	v1 "repro/internal/api/v1"
	"repro/internal/tsdb"
	"repro/internal/viz"
)

// The read encoder writes the read routes' bodies straight from the
// storage and view types, without reflection and without first copying
// them into the v1 DTOs. Every function here must produce the bytes
// encoding/json produces for the DTO the same data fills, and fail
// where it fails; doc.go ("Read encoder") lists what that takes, and
// FuzzReadEncode holds the two to it.

// encoder appends JSON to buf. The first value JSON cannot carry (a NaN
// or an infinity) is kept in err, with encoding/json's error; the bytes
// after it are garbage, and result returns the error alone, as the v1
// 500 envelope.
type encoder struct {
	buf []byte
	err error
}

// sampleBytes is a guess at one encoded sample, {"t":…,"v":…}, to size
// the buffer once.
const sampleBytes = 32

func newEncoder(samples int) *encoder {
	return &encoder{buf: make([]byte, 0, 64+samples*sampleBytes)}
}

func (e *encoder) result() ([]byte, error) {
	if e.err != nil {
		return nil, encodeError(e.err)
	}
	return e.buf, nil
}

func (e *encoder) raw(s string) { e.buf = append(e.buf, s...) }

func (e *encoder) int(n int64) { e.buf = strconv.AppendInt(e.buf, n, 10) }

// float spells f as encoding/json spells a float64: the shortest
// representation, 'f' inside [1e-6, 1e21) and 'e' outside it with a
// one-digit negative exponent written e-7, not e-07.
func (e *encoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	e.buf = b
}

const hexDigits = "0123456789abcdef"

// string writes s quoted as encoding/json.Marshal does: the short
// escapes, \u00XX for the other control bytes and for <, > and & (the
// HTML-safe set), \u2028 and \u2029, and \ufffd for each byte of invalid
// UTF-8.
func (e *encoder) string(s string) {
	b := append(e.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		} else if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		} else {
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.buf = append(b, '"')
}

// tags writes a tag map with its keys in byte order, or null for a nil
// map.
func (e *encoder) tags(m map[string]string) {
	if m == nil {
		e.raw("null")
		return
	}
	var stack [8]string
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.buf = append(e.buf, '{')
	for i, k := range keys {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.string(k)
		e.buf = append(e.buf, ':')
		e.string(m[k])
	}
	e.buf = append(e.buf, '}')
}

// sample writes one v1.Sample.
func (e *encoder) sample(s tsdb.Sample) {
	e.raw(`{"t":`)
	e.int(s.Timestamp)
	e.raw(`,"v":`)
	e.float(s.Value)
	e.buf = append(e.buf, '}')
}

// samples writes a []v1.Sample. An empty or nil slice is [], as the
// DTO copy (a made slice) always was.
func (e *encoder) samples(ss []tsdb.Sample) {
	e.buf = append(e.buf, '[')
	for i := range ss {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.sample(ss[i])
	}
	e.buf = append(e.buf, ']')
}

// series writes one v1.Series.
func (e *encoder) series(s *tsdb.Series) {
	e.raw(`{"metric":`)
	e.string(s.Metric)
	e.raw(`,"tags":`)
	e.tags(s.Tags)
	e.raw(`,"samples":`)
	e.samples(s.Samples)
	e.buf = append(e.buf, '}')
}

func countSamples(series []tsdb.Series) int {
	n := 0
	for i := range series {
		n += len(series[i].Samples)
	}
	return n
}

// encodeSeriesArray is the []v1.Series of GET /api/v1/query as one JSON
// array — the "series" member of v1.QueryResponse, which the handler
// writes around it. It is the query.JSON encoding the engine caches.
func encodeSeriesArray(series []tsdb.Series) ([]byte, error) {
	e := newEncoder(countSamples(series))
	e.buf = append(e.buf, '[')
	for i := range series {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.series(&series[i])
	}
	e.buf = append(e.buf, ']')
	return e.result()
}

// encodeSeriesLines is the NDJSON body of GET /api/v1/query: one
// v1.Series a line. It is the query.NDJSON encoding the engine caches.
func encodeSeriesLines(series []tsdb.Series) ([]byte, error) {
	e := newEncoder(countSamples(series))
	for i := range series {
		e.series(&series[i])
		e.buf = append(e.buf, '\n')
	}
	return e.result()
}

// encodeSeriesDetail is the v1.SeriesDetail body of the drill-down.
func encodeSeriesDetail(d *viz.SensorDetail) ([]byte, error) {
	e := newEncoder(len(d.Samples) + len(d.Anomalies))
	e.raw(`{"unit":`)
	e.int(int64(d.Unit))
	e.raw(`,"sensor":`)
	e.int(int64(d.Sensor))
	e.raw(`,"samples":`)
	e.samples(d.Samples)
	e.raw(`,"anomalies":`)
	e.samples(d.Anomalies)
	e.raw("}\n")
	return e.result()
}

// encodeSensorLines is the drill-down's NDJSON body: one v1.Sample a
// line, then the anomaly flags as one {"anomalies":[…]} line.
func encodeSensorLines(d *viz.SensorDetail) ([]byte, error) {
	e := newEncoder(len(d.Samples) + len(d.Anomalies))
	for _, s := range d.Samples {
		e.sample(s)
		e.buf = append(e.buf, '\n')
	}
	e.raw(`{"anomalies":`)
	e.samples(d.Anomalies)
	e.raw("}\n")
	return e.result()
}

// encodeMachineView is the v1.MachineView body of GET
// /api/v1/machines/{unit}.
func encodeMachineView(mv *viz.MachineView) ([]byte, error) {
	n := 0
	for i := range mv.Sensors {
		n += len(mv.Sensors[i].Samples) + len(mv.Sensors[i].Anomalies)
	}
	e := newEncoder(n)
	e.raw(`{"unit":`)
	e.int(int64(mv.Unit))
	e.raw(`,"status":`)
	e.string(string(mv.Status))
	e.raw(`,"anomalies":`)
	e.int(int64(mv.Anomalies))
	e.raw(`,"sensors":[`)
	for i := range mv.Sensors {
		sv := &mv.Sensors[i]
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.raw(`{"sensor":`)
		e.int(int64(sv.Sensor))
		e.raw(`,"samples":`)
		e.samples(sv.Samples)
		e.raw(`,"anomalies":`)
		e.samples(sv.Anomalies)
		e.raw(`,"latest":`)
		e.float(sv.Latest)
		e.buf = append(e.buf, '}')
	}
	e.raw("]}\n")
	return e.result()
}

// encodeTop is the v1.TopResponse body of GET /api/v1/anomalies/top.
func encodeTop(top []viz.TopAnomaly) ([]byte, error) {
	e := newEncoder(2 * len(top))
	e.raw(`{"anomalies":[`)
	for i, a := range top {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.raw(`{"unit":`)
		e.int(int64(a.Unit))
		e.raw(`,"sensor":`)
		e.int(int64(a.Sensor))
		e.raw(`,"timestamp":`)
		e.int(a.Timestamp)
		e.raw(`,"severity":`)
		e.float(a.Severity)
		e.buf = append(e.buf, '}')
	}
	e.raw("]}\n")
	return e.result()
}

// encodeAnomalyEvent is the data line of one SSE anomaly event, without
// a newline. Detector and Score are omitted when zero, as their
// omitempty tags say.
func encodeAnomalyEvent(ev *v1.AnomalyEvent) ([]byte, error) {
	e := newEncoder(4)
	e.raw(`{"unit":`)
	e.int(int64(ev.Unit))
	e.raw(`,"sensor":`)
	e.int(int64(ev.Sensor))
	e.raw(`,"timestamp":`)
	e.int(ev.Timestamp)
	e.raw(`,"value":`)
	e.float(ev.Value)
	e.raw(`,"z":`)
	e.float(ev.Z)
	e.raw(`,"pValue":`)
	e.float(ev.PValue)
	e.raw(`,"adjusted":`)
	e.float(ev.Adjusted)
	if ev.Detector != "" {
		e.raw(`,"detector":`)
		e.string(ev.Detector)
	}
	if ev.Score != 0 {
		e.raw(`,"score":`)
		e.float(ev.Score)
	}
	e.buf = append(e.buf, '}')
	return e.result()
}
