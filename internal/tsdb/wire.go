package tsdb

// wire.go is how the TSD tier's rpc payloads — and the points inside a
// bus record — cross the TCP bridge: append-encode and bounds-checked
// decode over internal/rpc's codec (see that package's "The wire
// format"). RegisterWireTypes in package sentinel registers the three
// DTOs by tag.

import (
	"slices"

	"repro/internal/rpc"
)

// wireTagSets and wireMetrics intern what DecodePoints decodes, keyed by
// the wire bytes of a tag set (AppendPoints writes tags in key order, so
// one set has one spelling) and of a metric name: points decoded from
// the wire share immutable tag maps across batches exactly as the
// gateway's JSON-decoded points do (Point.Tags).
var (
	wireTagSets = NewInternTable[map[string]string](MaxInternedTagSets)
	wireMetrics = NewInternTable[string](MaxInternedMetrics)
)

// pointWireMin is the fewest bytes a point takes on the wire: two
// lengths, a one-byte timestamp and the value's eight.
const pointWireMin = 11

// AppendPoints appends pts: a count, then per point the metric, the
// length-prefixed tag block (0 bytes for nil tags, else a pair count and
// the pairs in key order), the timestamp and the value's bits.
func AppendPoints(b []byte, pts []Point) []byte {
	b = rpc.AppendUint(b, uint64(len(pts)))
	for i := range pts {
		p := &pts[i]
		b = rpc.AppendString(b, p.Metric)
		b = appendTagBlock(b, p.Tags)
		b = rpc.AppendInt(b, p.Timestamp)
		b = rpc.AppendFloat(b, p.Value)
	}
	return b
}

// appendTagBlock appends tags as one length-prefixed block.
func appendTagBlock(b []byte, tags map[string]string) []byte {
	if tags == nil {
		return append(b, 0)
	}
	var stack [8]string
	keys := stack[:0]
	for k := range tags {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	// Room for a one-byte length: a block under 128 bytes, which is any
	// the intern table will key, is written in place.
	start := len(b)
	b = rpc.AppendUint(append(b, 0), uint64(len(keys)))
	for _, k := range keys {
		b = rpc.AppendString(rpc.AppendString(b, k), tags[k])
	}
	n := len(b) - start - 1
	if n < 0x80 {
		b[start] = byte(n)
		return b
	}
	block := slices.Clone(b[start+1:])
	return append(rpc.AppendUint(b[:start], uint64(n)), block...)
}

// DecodePoints reads what AppendPoints wrote. Metric names and tag sets
// come from the intern tables: a set seen before costs a lookup, not a
// map.
func DecodePoints(r *rpc.WireReader) []Point {
	n := r.Count(pointWireMin)
	if n == 0 {
		return nil
	}
	pts := make([]Point, n)
	metric := ""
	for i := range pts {
		p := &pts[i]
		if raw := r.View(); string(raw) != metric {
			m, ok := wireMetrics.Get(raw)
			if !ok {
				m = wireMetrics.Put(raw, string(raw))
			}
			metric = m
		}
		p.Metric = metric
		p.Tags = decodeTagBlock(r)
		p.Timestamp = r.Int()
		p.Value = r.Float()
	}
	if r.Err() != nil {
		return nil
	}
	return pts
}

// decodeTagBlock resolves one tag block to its shared map.
func decodeTagBlock(r *rpc.WireReader) map[string]string {
	raw := r.View()
	if len(raw) == 0 {
		return nil
	}
	if set, ok := wireTagSets.Get(raw); ok {
		return set
	}
	br := rpc.NewWireReader(raw)
	n := br.Count(2)
	set := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := br.Str()
		set[k] = br.Str()
	}
	if err := br.Done(); err != nil {
		r.Fail(err)
		return nil
	}
	return wireTagSets.Put(raw, set)
}

// AppendWire implements rpc.WireEncoder.
func (p *PutBatch) AppendWire(b []byte) ([]byte, error) { return AppendPoints(b, p.Points), nil }

// DecodePutBatch is PutBatch's registered decoder.
func DecodePutBatch(r *rpc.WireReader) *PutBatch { return &PutBatch{Points: DecodePoints(r)} }

// AppendWire implements rpc.WireEncoder.
func (q *QueryRequest) AppendWire(b []byte) ([]byte, error) {
	b = rpc.AppendString(b, q.Query.Metric)
	b = rpc.AppendStringMap(b, q.Query.Tags)
	b = rpc.AppendInt(b, q.Query.Start)
	b = rpc.AppendInt(b, q.Query.End)
	b = rpc.AppendInt(b, q.Query.DownsampleSeconds)
	b = rpc.AppendInt(b, int64(q.Query.Aggregate))
	b = rpc.AppendInt(b, int64(q.Query.MaxPoints))
	return b, nil
}

// DecodeQueryRequest is QueryRequest's registered decoder.
func DecodeQueryRequest(r *rpc.WireReader) *QueryRequest {
	q := &QueryRequest{}
	q.Query.Metric = r.Str()
	q.Query.Tags = r.StringMap()
	q.Query.Start = r.Int()
	q.Query.End = r.Int()
	q.Query.DownsampleSeconds = r.Int()
	q.Query.Aggregate = AggFunc(r.Int())
	q.Query.MaxPoints = int(r.Int())
	return q
}

// sampleWireMin is the fewest bytes a sample takes on the wire.
const sampleWireMin = 9

// AppendWire implements rpc.WireEncoder.
func (q *QueryResponse) AppendWire(b []byte) ([]byte, error) {
	b = rpc.AppendUint(b, uint64(len(q.Series)))
	for i := range q.Series {
		s := &q.Series[i]
		b = rpc.AppendString(b, s.Metric)
		b = rpc.AppendStringMap(b, s.Tags)
		b = rpc.AppendUint(b, uint64(len(s.Samples)))
		for _, sm := range s.Samples {
			b = rpc.AppendFloat(rpc.AppendInt(b, sm.Timestamp), sm.Value)
		}
	}
	return b, nil
}

// DecodeQueryResponse is QueryResponse's registered decoder. Series get
// maps of their own: the read tier hands them to callers who may keep
// and change them.
func DecodeQueryResponse(r *rpc.WireReader) *QueryResponse {
	q := &QueryResponse{}
	n := r.Count(3)
	if n == 0 {
		return q
	}
	q.Series = make([]Series, n)
	for i := range q.Series {
		s := &q.Series[i]
		s.Metric = r.Str()
		s.Tags = r.StringMap()
		if m := r.Count(sampleWireMin); m > 0 {
			s.Samples = make([]Sample, m)
			for j := range s.Samples {
				s.Samples[j] = Sample{Timestamp: r.Int(), Value: r.Float()}
			}
		}
	}
	return q
}
