package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"

	v1 "repro/internal/api/v1"
	"repro/internal/ingest"
	"repro/internal/tsdb"
)

// putdecode.go is the JSON half of POST /api/v1/points: the body is
// read into a pooled buffer and decoded in one pass by a scanner for
// the put grammar (doc.go, "Put body grammar"). A body using a JSON
// construct outside that grammar is decoded, whole, by encoding/json
// instead — the choice is made from the bytes, never from an option.

// maxPooledBody caps both the buffer a request pre-sizes from its
// Content-Length (a header is a claim, not bytes received) and the
// buffer a decoder may keep when it returns to the pool.
const maxPooledBody = 1 << 20

// putDecoder is the per-request scratch of the put path: the body
// bytes and the scanner's tag-pair extents. Nothing it owns outlives
// the request — every string a decoded point keeps is copied out.
type putDecoder struct {
	body  []byte
	pairs []tagPair

	// The intern tables decoded points draw on: the process's own
	// (tsdb.TagSets, tsdb.Metrics), except in tests that need a table of
	// their own size.
	sets    *tsdb.TagSetTable
	metrics *tsdb.InternTable[string]
}

var putDecoders = sync.Pool{New: func() any {
	return &putDecoder{sets: tsdb.TagSets, metrics: tsdb.Metrics}
}}

// release returns d to the pool, minus any scratch one outsized
// request grew.
func (d *putDecoder) release() {
	if cap(d.body) > maxPooledBody {
		d.body = nil
	}
	if cap(d.pairs) > 1024 {
		d.pairs = nil
	}
	putDecoders.Put(d)
}

// readBody reads r to EOF into d.body, failing with the error
// http.MaxBytesReader would give once more than max bytes arrive.
// size is the declared Content-Length, or negative when unknown.
func (d *putDecoder) readBody(r io.Reader, size, max int64) error {
	// One byte of slack lets the read that reports EOF fit without
	// growing the buffer.
	need := min(size, max, maxPooledBody) + 1
	if size < 0 {
		need = 512
	}
	if need > int64(cap(d.body)) {
		d.body = make([]byte, 0, need)
	}
	d.body = d.body[:0]
	for {
		if int64(len(d.body)) > max {
			return &http.MaxBytesError{Limit: max}
		}
		if len(d.body) == cap(d.body) {
			d.body = append(d.body, 0)[:len(d.body)]
		}
		n, err := r.Read(d.body[len(d.body):cap(d.body)])
		d.body = d.body[:len(d.body)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// decodeJSON decodes d.body: the scanner for the bodies it owns,
// encoding/json for the ones it declines.
func (d *putDecoder) decodeJSON() ([]tsdb.Point, error) {
	s := putScanner{d: d, b: d.body}
	pts, err := s.body()
	if errors.Is(err, errDeclined) {
		pts, err = unmarshalPut(d.body)
	}
	if err != nil {
		return nil, err
	}
	return validatePoints(pts)
}

// unmarshalPut is the encoding/json route: the v1 envelope, a bare
// array, or one object, with every liberty encoding/json takes
// (escapes, null, case-folded and unknown and repeated keys).
func unmarshalPut(body []byte) ([]tsdb.Point, error) {
	if b := bytes.TrimLeft(body, " \t\r\n"); len(b) > 0 && b[0] == '{' {
		var req v1.PutRequest
		if err := json.Unmarshal(body, &req); err == nil && req.Points != nil {
			out := make([]tsdb.Point, len(req.Points))
			for i, p := range req.Points {
				out[i] = tsdb.Point{Metric: p.Metric, Timestamp: p.Timestamp, Value: p.Value, Tags: p.Tags}
			}
			return out, nil
		}
	}
	pts, err := ingest.ParseJSON(body)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	return pts, nil
}

// validatePoints is the one gate between a decoded body of any format
// and the bus: a request publishes nothing unless every point in it is
// storable.
func validatePoints(pts []tsdb.Point) ([]tsdb.Point, error) {
	if len(pts) == 0 {
		return nil, errBadRequest("no points in request")
	}
	for i := range pts {
		if err := pts[i].Validate(); err != nil {
			return nil, errBadRequest("point %d: %v", i, err)
		}
	}
	return pts, nil
}

// ---- scanner --------------------------------------------------------

// errDeclined is the scanner's "not mine": the body uses a construct
// outside the put grammar and goes to unmarshalPut whole.
var errDeclined = errors.New("api: put body outside the scanner's grammar")

// tagPair is the extents, in the body, of one tags member's key and
// value (quotes excluded).
type tagPair struct{ k0, k1, v0, v1 int }

// putScanner decodes one body. Its methods return errDeclined to hand
// the body off, any other error to reject the request.
type putScanner struct {
	d      *putDecoder // the intern tables and the tags scratch
	b      []byte      // d.body
	i      int
	metric string // the previous point's, checked before the table
}

func (s *putScanner) syntax(want string) error {
	if s.i >= len(s.b) {
		return errBadRequest("put body: unexpected end, expected %s", want)
	}
	return errBadRequest("put body: unexpected %q at offset %d, expected %s", s.b[s.i], s.i, want)
}

// otherValue is the verdict on a byte found where a value of one JSON
// type was expected: the start of a value of another type is declined
// (encoding/json may ignore it, as it does null, or name the type
// mismatch), anything else is not JSON.
func (s *putScanner) otherValue(want string) error {
	if s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"', c == '-', c-'0' <= 9, c == '{', c == '[', c == 't', c == 'f', c == 'n':
			return errDeclined
		}
	}
	return s.syntax(want)
}

// ws skips JSON whitespace and returns the byte it stops at (0 at the
// end of the body — not a byte any caller expects).
func (s *putScanner) ws() byte {
	for s.i < len(s.b) {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return c
		}
	}
	return 0
}

// body scans the whole request: the envelope, a bare array or one
// object, then nothing but whitespace.
func (s *putScanner) body() (pts []tsdb.Point, err error) {
	switch s.ws() {
	case '[':
		pts, err = s.array()
	case '{':
		open := s.i
		s.i++
		s.ws()
		if bytes.HasPrefix(s.b[s.i:], []byte(`"points"`)) {
			pts, err = s.envelope()
		} else {
			s.i = open
			pts = make([]tsdb.Point, 1)
			err = s.point(&pts[0])
		}
	default:
		return nil, s.otherValue("a JSON value")
	}
	if err != nil {
		return nil, err
	}
	if s.ws(); s.i < len(s.b) {
		return nil, s.syntax("end of body")
	}
	return pts, nil
}

// envelope scans {"points":[…]} from its member name. Any second
// member is something only encoding/json knows what to do with.
func (s *putScanner) envelope() ([]tsdb.Point, error) {
	s.i += len(`"points"`)
	if s.ws() != ':' {
		return nil, s.syntax("':'")
	}
	s.i++
	if s.ws() != '[' {
		return nil, s.otherValue("'['")
	}
	pts, err := s.array()
	if err != nil {
		return nil, err
	}
	switch s.ws() {
	case '}':
		s.i++
		return pts, nil
	case ',':
		return nil, errDeclined
	}
	return nil, s.syntax("'}'")
}

// array scans [point, …] from its '['.
func (s *putScanner) array() ([]tsdb.Point, error) {
	// A point is two objects (itself and its tags) and, to be storable,
	// at least 32 bytes: the smaller estimate bounds what a body of
	// braces can make this allocate.
	rest := s.b[s.i:]
	pts := make([]tsdb.Point, 0, min(bytes.Count(rest, []byte{'{'})/2, len(rest)/32)+1)
	s.i++
	if s.ws() == ']' {
		s.i++
		return pts, nil
	}
	for {
		if s.ws() != '{' {
			return nil, s.otherValue("a point object")
		}
		pts = append(pts, tsdb.Point{})
		if err := s.point(&pts[len(pts)-1]); err != nil {
			return nil, err
		}
		switch s.ws() {
		case ',':
			s.i++
		case ']':
			s.i++
			return pts, nil
		default:
			return nil, s.syntax("',' or ']'")
		}
	}
}

// Point members, as bits of the seen mask.
const (
	seenMetric = 1 << iota
	seenTimestamp
	seenValue
	seenTags
)

// point scans one point object from its '{' into p. A member left out
// keeps its zero value, as encoding/json leaves it; Validate decides
// whether the point is storable.
func (s *putScanner) point(p *tsdb.Point) error {
	s.i++
	if s.ws() == '}' {
		s.i++
		return nil
	}
	seen := 0
	for {
		if s.ws() != '"' {
			return s.syntax("a member name")
		}
		key, err := s.str()
		if err != nil {
			return err
		}
		if s.ws() != ':' {
			return s.syntax("':'")
		}
		s.i++
		c := s.ws()
		var bit int
		switch string(key) {
		case "metric":
			bit = seenMetric
			if c != '"' {
				return s.otherValue("a string")
			}
			raw, err := s.str()
			if err != nil {
				return err
			}
			p.Metric = s.internMetric(raw)
		case "timestamp":
			bit = seenTimestamp
			lit, integer, err := s.number()
			if err != nil {
				return err
			}
			// encoding/json refuses a fraction or exponent for an int64
			// field, and so does an integer out of range.
			if !integer {
				return errBadRequest("put body: timestamp %s is not an integer", lit)
			}
			if p.Timestamp, err = strconv.ParseInt(string(lit), 10, 64); err != nil {
				return errBadRequest("put body: timestamp %s out of range", lit)
			}
		case "value":
			bit = seenValue
			lit, _, err := s.number()
			if err != nil {
				return err
			}
			if p.Value, err = strconv.ParseFloat(string(lit), 64); err != nil {
				return errBadRequest("put body: value %s out of range", lit)
			}
		case "tags":
			bit = seenTags
			if c != '{' {
				return s.otherValue("an object")
			}
			if p.Tags, err = s.tags(); err != nil {
				return err
			}
		default:
			return errDeclined
		}
		if seen&bit != 0 {
			return errDeclined
		}
		seen |= bit
		switch s.ws() {
		case ',':
			s.i++
		case '}':
			s.i++
			return nil
		default:
			return s.syntax("',' or '}'")
		}
	}
}

// str scans a string from its opening quote and returns the bytes
// between the quotes, still in the body. Escapes and non-ASCII bytes
// are encoding/json's to interpret.
func (s *putScanner) str() ([]byte, error) {
	s.i++
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], nil
		case c == '\\' || c >= 0x80:
			return nil, errDeclined
		case c < 0x20:
			return nil, s.syntax("a string character")
		}
	}
	return nil, s.syntax("'\"'")
}

// number scans a JSON number and reports whether it is written as an
// integer (no fraction, no exponent). A value of another type is
// declined.
func (s *putScanner) number() (lit []byte, integer bool, err error) {
	start := s.i
	at := func(c byte) bool { return s.i < len(s.b) && s.b[s.i] == c }
	digit := func() bool { return s.i < len(s.b) && s.b[s.i]-'0' <= 9 }
	digits := func() bool {
		from := s.i
		for digit() {
			s.i++
		}
		return s.i > from
	}

	if !at('-') && !digit() {
		return nil, false, s.otherValue("a number")
	}
	if at('-') {
		s.i++
	}
	if at('0') {
		s.i++
	} else if !digits() {
		return nil, false, s.syntax("a digit")
	}
	integer = true
	if at('.') {
		s.i++
		integer = false
		if !digits() {
			return nil, false, s.syntax("a digit")
		}
	}
	if at('e') || at('E') {
		s.i++
		integer = false
		if at('+') || at('-') {
			s.i++
		}
		if !digits() {
			return nil, false, s.syntax("a digit")
		}
	}
	return s.b[start:s.i], integer, nil
}

// internMetric returns the canonical string for a metric name.
func (s *putScanner) internMetric(raw []byte) string {
	if string(raw) == s.metric {
		return s.metric
	}
	m, ok := s.d.metrics.Get(raw)
	if !ok {
		m = s.d.metrics.Put(raw, string(raw))
	}
	s.metric = m
	return m
}

// tags scans a flat {"k":"v", …} object from its '{' and returns the
// tag set every occurrence of the same bytes shares (tsdb.Point.Tags:
// shared, never written), keyed by the object's JSON spelling. A set
// the table has no room for decodes into a map of its own.
func (s *putScanner) tags() (map[string]string, error) {
	start := s.i
	s.i++
	pairs := s.d.pairs[:0]
	if s.ws() == '}' {
		s.i++
		return map[string]string{}, nil
	}
	for {
		if s.ws() != '"' {
			return nil, s.syntax("a tag name")
		}
		k0 := s.i + 1
		k, err := s.str()
		if err != nil {
			return nil, err
		}
		if s.ws() != ':' {
			return nil, s.syntax("':'")
		}
		s.i++
		if s.ws() != '"' {
			return nil, s.otherValue("a tag value")
		}
		v0 := s.i + 1
		v, err := s.str()
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, tagPair{k0, k0 + len(k), v0, v0 + len(v)})
		c := s.ws()
		if c == ',' {
			s.i++
			continue
		}
		if c != '}' {
			return nil, s.syntax("',' or '}'")
		}
		s.i++
		break
	}
	s.d.pairs = pairs
	raw := s.b[start:s.i]
	if set, ok := s.d.sets.Get(raw); ok {
		return set, nil
	}
	set := make(map[string]string, len(pairs))
	for _, p := range pairs {
		set[string(s.b[p.k0:p.k1])] = string(s.b[p.v0:p.v1])
	}
	if len(set) != len(pairs) {
		return nil, errDeclined // a repeated tag name: last-wins is encoding/json's rule
	}
	return s.d.sets.Put(raw, set), nil
}
