package tsdb

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/hbase"
)

// rowBaseSeconds is the time span covered by one row (OpenTSDB uses
// one hour; column qualifiers hold the offset within it).
const rowBaseSeconds = 3600

// Codec translates points to HBase cells and back. It owns the
// paper's key-design lever: with SaltBuckets == 0 keys begin with the
// metric UID and hour base time — sequential writes of one metric all
// land in one region (the hotspot §III-B describes). With SaltBuckets
// = N, a salt byte derived from the series identity is prepended,
// spreading series uniformly over N regions while keeping each series'
// row contiguous.
type Codec struct {
	uids *UIDTable
	// SaltBuckets is the number of salt prefixes (0 disables salting).
	SaltBuckets int
	// series caches what a row key needs of each interned tag set
	// (TagSets), keyed by the map's identity (mapID → *seriesTags): an
	// interned map never changes and is never evicted, and the key keeps
	// it reachable besides, so no other tag set can take its address. An
	// entry holds for one UID table generation: a Reload may give its ids
	// to other names.
	series sync.Map
}

// seriesTags is what a row key needs of one tag set: its tag-UID pairs
// as they follow the base time, and the metric UID of the first point
// encoded with it — a series' points share both — as the UID table's
// generation gen resolved them.
type seriesTags struct {
	gen    uint64
	metric string
	mu     uint32
	pairs  []byte
}

// NewCodec returns a codec over the UID table.
func NewCodec(uids *UIDTable, saltBuckets int) *Codec {
	if saltBuckets < 0 {
		saltBuckets = 0
	}
	if saltBuckets > 254 {
		saltBuckets = 254 // keep below the 0xFF meta prefix
	}
	return &Codec{uids: uids, SaltBuckets: saltBuckets}
}

// salt hashes the unsalted series key into a bucket byte. Deriving the
// salt from the series identity (rather than the paper's literal
// random byte) preserves the uniform spreading that fixed the hotspot
// while keeping reads exact; OpenTSDB 2.2 adopted the same scheme.
func (c *Codec) salt(seriesKey []byte) byte {
	h := uint32(2166136261)
	for _, b := range seriesKey {
		h ^= uint32(b)
		h *= 16777619
	}
	return byte(h % uint32(c.SaltBuckets))
}

// tagPairs interns a tag set and encodes its (tagk, tagv) UID pairs
// sorted by tag-key UID (OpenTSDB's canonical order).
func (c *Codec) tagPairs(tags map[string]string) ([]byte, error) {
	pairs := make([][2]uint32, 0, len(tags))
	for k, v := range tags {
		ku, err := c.uids.GetOrCreate(kindTagK, k)
		if err != nil {
			return nil, err
		}
		vu, err := c.uids.GetOrCreate(kindTagV, v)
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, [2]uint32{ku, vu})
	}
	slices.SortFunc(pairs, func(a, b [2]uint32) int { return cmp.Compare(a[0], b[0]) })
	out := make([]byte, 2*uidWidth*len(pairs))
	for i, p := range pairs {
		putUID(out[2*uidWidth*i:], p[0])
		putUID(out[2*uidWidth*i+uidWidth:], p[1])
	}
	return out, nil
}

// seriesOf returns the metric UID and encoded tag pairs of p's series,
// after checking p is storable. An interned tag set is resolved once per
// codec and UID table generation; any other map is resolved for every
// point, since its owner may change it between points.
func (c *Codec) seriesOf(p *Point) (mu uint32, pairs []byte, err error) {
	// Read before resolving: a Reload racing the resolution leaves the
	// entry stored below already stale.
	gen := c.uids.generation()
	if v, ok := c.series.Load(mapID(p.Tags)); ok && v.(*seriesTags).gen == gen {
		st := v.(*seriesTags)
		// The cached set passed Validate; the rest of p may not.
		if err := p.validateFields(); err != nil {
			return 0, nil, err
		}
		if p.Metric == st.metric {
			return st.mu, st.pairs, nil
		}
		mu, err = c.uids.GetOrCreate(kindMetric, p.Metric)
		return mu, st.pairs, err
	}
	if err := p.Validate(); err != nil {
		return 0, nil, err
	}
	if mu, err = c.uids.GetOrCreate(kindMetric, p.Metric); err != nil {
		return 0, nil, err
	}
	if pairs, err = c.tagPairs(p.Tags); err != nil {
		return 0, nil, err
	}
	if TagSets.holds(p.Tags) {
		c.series.Store(mapID(p.Tags), &seriesTags{gen: gen, metric: p.Metric, mu: mu, pairs: pairs})
	}
	return mu, pairs, nil
}

// Encode converts a point into its HBase cell: row key, qualifier and
// value share one allocation. The row key is [salt ∥] metric UID ∥ base
// time ∥ sorted tag-UID pairs.
func (c *Codec) Encode(p *Point) (hbase.Cell, error) {
	mu, pairs, err := c.seriesOf(p)
	if err != nil {
		return hbase.Cell{}, err
	}
	salted := 0
	if c.SaltBuckets > 0 {
		salted = 1
	}
	keyLen := salted + uidWidth + 4 + len(pairs)
	buf := make([]byte, keyLen+2+8)
	key := buf[:keyLen:keyLen]
	base := p.Timestamp - p.Timestamp%rowBaseSeconds
	putUID(key[salted:], mu)
	binary.BigEndian.PutUint32(key[salted+uidWidth:], uint32(base))
	copy(key[salted+uidWidth+4:], pairs)
	if salted > 0 {
		key[0] = c.salt(key[1:])
	}
	qual := buf[keyLen : keyLen+2 : keyLen+2]
	binary.BigEndian.PutUint16(qual, uint16(p.Timestamp-base))
	val := buf[keyLen+2:]
	binary.BigEndian.PutUint64(val, math.Float64bits(p.Value))
	return hbase.Cell{Row: key, Qual: qual, Value: val}, nil
}

// rowMeta is what a data row key names: one series and the base time
// of its hour.
type rowMeta struct {
	metric string
	tags   map[string]string
	base   int64
}

// decodeRow parses a data row key. Scans return a row's cells
// together, so callers decode the key once per row — the UID lookups
// and the tag map are the expensive part of reading a cell. ok is false
// for rows that do not hold data (UID meta rows).
func (c *Codec) decodeRow(key []byte) (m rowMeta, ok bool, err error) {
	if len(key) == 0 || key[0] == metaPrefix {
		return rowMeta{}, false, nil
	}
	if c.SaltBuckets > 0 {
		key = key[1:]
	}
	if len(key) < uidWidth+4 || (len(key)-uidWidth-4)%(2*uidWidth) != 0 {
		return rowMeta{}, false, fmt.Errorf("tsdb: bad row key length %d", len(key))
	}
	metricUID := readUID(key[:uidWidth])
	if m.metric, ok = c.uids.Name(kindMetric, metricUID); !ok {
		return rowMeta{}, false, fmt.Errorf("%w: uid %d", ErrNoSuchMetric, metricUID)
	}
	m.base = int64(binary.BigEndian.Uint32(key[uidWidth : uidWidth+4]))
	m.tags = make(map[string]string)
	for rest := key[uidWidth+4:]; len(rest) > 0; rest = rest[2*uidWidth:] {
		ku := readUID(rest[:uidWidth])
		vu := readUID(rest[uidWidth : 2*uidWidth])
		kname, ok1 := c.uids.Name(kindTagK, ku)
		vname, ok2 := c.uids.Name(kindTagV, vu)
		if !ok1 || !ok2 {
			return rowMeta{}, false, fmt.Errorf("tsdb: dangling tag uid (%d,%d)", ku, vu)
		}
		m.tags[kname] = vname
	}
	return m, true, nil
}

// decodeCell appends to dst the samples held by one cell (regular or
// row-compacted) of a row whose base time is base.
func decodeCell(dst []Sample, base int64, cell hbase.Cell) ([]Sample, error) {
	// Row-compacted wide cell: qualifier 0xFF 0xFF, value is a packed
	// list of (offset u16, value f64) pairs.
	if len(cell.Qual) == 2 && cell.Qual[0] == 0xFF && cell.Qual[1] == 0xFF {
		if len(cell.Value)%10 != 0 {
			return dst, fmt.Errorf("tsdb: bad compacted cell size %d", len(cell.Value))
		}
		for v := cell.Value; len(v) > 0; v = v[10:] {
			off := binary.BigEndian.Uint16(v[:2])
			bits := binary.BigEndian.Uint64(v[2:10])
			dst = append(dst, Sample{Timestamp: base + int64(off), Value: math.Float64frombits(bits)})
		}
		return dst, nil
	}
	if len(cell.Qual) != 2 || len(cell.Value) != 8 {
		return dst, fmt.Errorf("tsdb: bad cell shape qual=%d val=%d", len(cell.Qual), len(cell.Value))
	}
	off := binary.BigEndian.Uint16(cell.Qual)
	bits := binary.BigEndian.Uint64(cell.Value)
	return append(dst, Sample{Timestamp: base + int64(off), Value: math.Float64frombits(bits)}), nil
}

// rowRanges returns the scan ranges covering metric UID mu over
// [start, end] — one range per salt bucket (or a single unsalted one).
func (c *Codec) rowRanges(mu uint32, start, end int64) [][2][]byte {
	baseStart := start - start%rowBaseSeconds
	baseEnd := end - end%rowBaseSeconds
	var u [uidWidth]byte
	putUID(u[:], mu)
	mkRange := func(salt []byte) [2][]byte {
		lo := append(append([]byte{}, salt...), u[:]...)
		var ts [4]byte
		binary.BigEndian.PutUint32(ts[:], uint32(baseStart))
		lo = append(lo, ts[:]...)
		hi := append(append([]byte{}, salt...), u[:]...)
		binary.BigEndian.PutUint32(ts[:], uint32(baseEnd+rowBaseSeconds))
		hi = append(hi, ts[:]...)
		return [2][]byte{lo, hi}
	}
	if c.SaltBuckets == 0 {
		return [][2][]byte{mkRange(nil)}
	}
	out := make([][2][]byte, 0, c.SaltBuckets)
	for s := 0; s < c.SaltBuckets; s++ {
		out = append(out, mkRange([]byte{byte(s)}))
	}
	return out
}

// SplitKeys returns the pre-split boundaries matching the salt scheme:
// one region per salt bucket (the paper's manual split for equal write
// shares). Without salting it returns nil (single region).
func (c *Codec) SplitKeys() [][]byte {
	if c.SaltBuckets <= 1 {
		// Split between data (< 0xFF) and meta rows.
		return [][]byte{{metaPrefix}}
	}
	out := make([][]byte, 0, c.SaltBuckets)
	for s := 1; s < c.SaltBuckets; s++ {
		out = append(out, []byte{byte(s)})
	}
	out = append(out, []byte{metaPrefix})
	return out
}
