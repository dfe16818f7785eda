// Package tsdb is a miniature OpenTSDB on top of the simulated HBase
// cluster. It reproduces the pieces of OpenTSDB the paper's scalable
// ingestion architecture is built from:
//
//   - the data model: named metrics with key=value tags ("energy" with
//     unit=<id> sensor=<id> in the paper), string names interned into
//     3-byte UIDs through a UID table;
//   - the binary row-key design: metric UID ∥ hour-aligned base time ∥
//     tag UID pairs, with per-second offsets in 2-byte column
//     qualifiers, optionally prefixed by a salt byte — the §III-B key
//     finding that unlocked full RegionServer utilization;
//   - TSD daemons, one per storage node, each writing through its own
//     HBase client;
//   - queries with tag filters, time ranges, downsampling and
//     aggregation across salt buckets;
//   - optional OpenTSDB-style row compaction (merging a row's columns
//     into one wide cell), which the paper disabled to cut RPC volume.
//
// # The sealed storage tier
//
// On top of the hot rows sits a compressed block tier (block.go,
// blockstore.go, retention.go). A background Compactor seals rows
// older than a configurable age into Gorilla-encoded blocks and
// deletes the raw cells. The block format is:
//
//   - a uvarint sample count, then a bit-packed stream;
//   - the first sample's timestamp as a varint and its value as raw
//     IEEE-754 bits;
//   - subsequent timestamps as delta-of-delta with prefix codes
//     ('0' for dod=0, then 7/9/12/64-bit classes) — a fixed 1 Hz
//     cadence costs one bit per sample;
//   - subsequent values XORed against the previous value: '0' for an
//     identical value, '10' reusing the previous leading/trailing-
//     zero window, '11' with 6-bit leading-zero count + 6-bit
//     significant-bit length. Encoding is bit-lossless (NaN payloads,
//     -0 and ±Inf roundtrip exactly).
//
// BlockIter decodes a block with zero heap allocations
// (BenchmarkCompressedScan, pinned at 0 allocs/op). Each sealed block
// carries exact 1m/1h rollups (count/sum/min/max per bucket) that
// stay in memory so wide dashboard windows never decompress raw data;
// cold blocks spill to the hdfs tier past a byte budget and read back
// lazily. RetentionPolicy ages raw blocks and rollups out on separate
// TTLs, per metric, measured against the ingest frontier.
package tsdb

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Errors surfaced by the TSDB layer.
var (
	ErrNoSuchMetric = errors.New("tsdb: unknown metric")
	ErrBadPoint     = errors.New("tsdb: malformed point")
)

// Point is one sample: a metric, a tag set, a Unix-seconds timestamp
// and a value.
type Point struct {
	Metric string
	// Tags is shared and immutable: the gateway decodes every point of
	// a series into the same map, and published batches keep it for as
	// long as the log retains them. Whoever holds a Point reads Tags
	// and never assigns into it; to change a tag, build a new map.
	Tags      map[string]string
	Timestamp int64
	Value     float64
}

// Validate checks the point is storable.
func (p *Point) Validate() error {
	if p.Metric == "" {
		return fmt.Errorf("%w: empty metric", ErrBadPoint)
	}
	if p.Timestamp < 0 {
		return fmt.Errorf("%w: negative timestamp", ErrBadPoint)
	}
	if len(p.Tags) == 0 {
		return fmt.Errorf("%w: at least one tag required", ErrBadPoint)
	}
	for k, v := range p.Tags {
		if k == "" || v == "" {
			return fmt.Errorf("%w: empty tag key or value", ErrBadPoint)
		}
	}
	return nil
}

// seriesID renders a canonical "metric{k=v,...}" identity string.
func seriesID(metric string, tags map[string]string) string {
	keys := make([]string, 0, len(tags))
	for k := range tags {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(metric)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(tags[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Query selects samples of one metric over [Start, End] (inclusive
// seconds), optionally filtered by exact tag values.
type Query struct {
	Metric string
	Tags   map[string]string // nil/empty = all series
	Start  int64
	End    int64
	// DownsampleSeconds, when > 0, buckets samples into windows of this
	// width and aggregates each window.
	DownsampleSeconds int64
	// Aggregate selects the downsample function (default AggAvg).
	Aggregate AggFunc
	// MaxPoints, when > 0, asks the read tier to bound each returned
	// series to this many visually representative samples (LTTB). It
	// is a *rendering* bound: queries that count or rank samples must
	// leave it 0 for exact results. TSD daemons ignore the field; the
	// internal/query engine enforces it after its shard merge.
	MaxPoints int
}

// AggFunc names a downsampling aggregate.
type AggFunc int

// Supported aggregates.
const (
	AggAvg AggFunc = iota
	AggSum
	AggMin
	AggMax
	AggCount
)

// String implements fmt.Stringer.
func (a AggFunc) String() string {
	switch a {
	case AggAvg:
		return "avg"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggCount:
		return "count"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(a))
	}
}

// apply folds a window of values.
func (a AggFunc) apply(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	switch a {
	case AggSum, AggAvg:
		s := 0.0
		for _, v := range vals {
			s += v
		}
		if a == AggAvg {
			return s / float64(len(vals))
		}
		return s
	case AggMin:
		m := vals[0]
		for _, v := range vals[1:] {
			if v < m {
				m = v
			}
		}
		return m
	case AggMax:
		m := vals[0]
		for _, v := range vals[1:] {
			if v > m {
				m = v
			}
		}
		return m
	case AggCount:
		return float64(len(vals))
	default:
		return 0
	}
}

// Sample is one (timestamp, value) pair in a query result.
type Sample struct {
	Timestamp int64
	Value     float64
}

// Series is one tag combination's samples, sorted by timestamp.
type Series struct {
	Metric  string
	Tags    map[string]string
	Samples []Sample
}

// ID returns the canonical series identity.
func (s *Series) ID() string { return seriesID(s.Metric, s.Tags) }
