package tsdb

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/hbase"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// TSDConfig tunes one TSD daemon.
type TSDConfig struct {
	// SaltBuckets is the row-key salting width shared by every TSD in
	// the deployment (0 disables — the ablation baseline).
	SaltBuckets int
	// CompactionEnabled turns on OpenTSDB-style row compaction. The
	// paper disables it to cut RPC volume; the ablation measures why.
	CompactionEnabled bool
	// QueueCap bounds the TSD's own RPC queue (default 1024).
	QueueCap int
	// Workers is the TSD's handler pool (default 4).
	Workers int
	// FailFast makes the TSD's HBase client surface RegionServer queue
	// overflows to the caller instead of absorbing them with retries —
	// real OpenTSDB applies no backpressure toward HBase, which is the
	// §III-B failure mode. The proxy's cap on concurrent requests is
	// then the only thing standing between producers and RegionServer
	// crashes.
	FailFast bool
}

func (c TSDConfig) withDefaults() TSDConfig {
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	return c
}

// TSD is one OpenTSDB daemon: it accepts batched puts and queries,
// translating them into HBase operations through its own client — one
// TSD runs per storage node in the paper's deployment.
type TSD struct {
	name   string
	client *hbase.Client
	codec  *Codec
	cfg    TSDConfig
	// marks is the deployment-shared write watermark table; nil
	// for a TSD outside a deployment.
	marks *Watermarks
	// faults, when set, injects on this daemon's storage operations
	// ("tsdb/put/<name>", "tsdb/query/<name>"). These hooks sit below
	// the rpc layer, so they also cover in-process direct writers like
	// the detector tier's anomaly sink.
	faults atomic.Pointer[faultinject.Injector]
	// blocks, when set, is the deployment-shared sealed tier: closed
	// rows compact into compressed blocks there, and queries merge its
	// contribution with the hot HBase scan.
	blocks atomic.Pointer[BlockStore]

	// PointsWritten counts samples accepted.
	PointsWritten telemetry.Counter
	// QueriesServed counts query RPCs.
	QueriesServed telemetry.Counter
	// SamplesReturned counts samples returned by queries after tag
	// filtering — the payload a read actually ships, as opposed to the
	// cells its scan touched.
	SamplesReturned telemetry.Counter
	// RowsCompacted counts row-compaction rewrites.
	RowsCompacted telemetry.Counter
}

// tsdAddr names a TSD on the network.
func tsdAddr(name string) string { return "tsd/" + name }

// Deployment wires a fleet of TSDs over one HBase cluster, sharing a
// UID table (backed by the same HBase table) and one write-watermark
// table (the read tier's cache-invalidation signal).
type Deployment struct {
	Cluster *hbase.Cluster
	UIDs    *UIDTable
	cfg     TSDConfig
	marks   *Watermarks
	faults  atomic.Pointer[faultinject.Injector]

	mu     sync.Mutex
	tsds   []*TSD
	blocks *BlockStore
}

// NewDeployment creates the shared UID table and n TSD daemons
// ("tsd-1" …), registering each on the cluster's network.
func NewDeployment(cluster *hbase.Cluster, n int, cfg TSDConfig) (*Deployment, error) {
	cfg = cfg.withDefaults()
	uidClient := cluster.NewClient(hbase.ClientConfig{})
	d := &Deployment{
		Cluster: cluster,
		UIDs:    NewUIDTable(uidClient),
		cfg:     cfg,
		marks:   NewWatermarks(),
	}
	for i := 0; i < n; i++ {
		if _, err := d.AddTSD(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// CreateTable pre-splits the HBase table to match the salt scheme.
func (d *Deployment) CreateTable() error {
	codec := NewCodec(d.UIDs, d.cfg.SaltBuckets)
	return d.Cluster.CreateTable(codec.SplitKeys())
}

// AddTSD scales the TSD tier out by one daemon.
func (d *Deployment) AddTSD() (*TSD, error) {
	d.mu.Lock()
	name := fmt.Sprintf("tsd-%d", len(d.tsds)+1)
	d.mu.Unlock()
	ccfg := hbase.ClientConfig{FailFast: d.cfg.FailFast}
	if d.cfg.FailFast {
		// A no-backpressure TSD must not mask outages behind long retry
		// storms either: bound the failover retries tightly.
		ccfg.MaxRetries = 2
		ccfg.RetryBackoff = time.Millisecond
	}
	t := &TSD{
		name:   name,
		client: d.Cluster.NewClient(ccfg),
		codec:  NewCodec(d.UIDs, d.cfg.SaltBuckets),
		cfg:    d.cfg,
		marks:  d.marks,
	}
	t.faults.Store(d.faults.Load())
	d.mu.Lock()
	t.blocks.Store(d.blocks)
	d.mu.Unlock()
	_, err := d.Cluster.Network().Register(tsdAddr(name), t.handle, rpc.ServerConfig{
		QueueCap: d.cfg.QueueCap,
		Workers:  d.cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.tsds = append(d.tsds, t)
	d.mu.Unlock()
	return t, nil
}

// SetFaults installs (or, with nil, removes) a fault injector on every
// TSD in the deployment, present and future, with operations named
// "tsdb/put/<name>" and "tsdb/query/<name>".
func (d *Deployment) SetFaults(f *faultinject.Injector) {
	d.faults.Store(f)
	for _, t := range d.TSDs() {
		t.SetFaults(f)
	}
}

// SetFaults installs (or, with nil, removes) this daemon's fault
// injector.
func (t *TSD) SetFaults(f *faultinject.Injector) { t.faults.Store(f) }

// CrashTSD abruptly kills the named daemon's RPC server: queued and
// subsequent calls fail with rpc.ErrServerDown until RestartTSD. The
// daemon's in-process state (codec, HBase client) is untouched, exactly
// like a killed OpenTSDB process in front of a healthy HBase.
func (d *Deployment) CrashTSD(name string) error {
	t := d.byName(name)
	if t == nil {
		return fmt.Errorf("tsdb: no such daemon %q", name)
	}
	s, ok := d.Cluster.Network().Lookup(tsdAddr(name))
	if !ok {
		return fmt.Errorf("tsdb: daemon %q not on the network", name)
	}
	s.Crash()
	return nil
}

// RestartTSD brings a crashed daemon back by re-registering its handler
// at the same address (replacing the dead server), as if the process
// was restarted by an operator.
func (d *Deployment) RestartTSD(name string) error {
	t := d.byName(name)
	if t == nil {
		return fmt.Errorf("tsdb: no such daemon %q", name)
	}
	_, err := d.Cluster.Network().Register(tsdAddr(name), t.handle, rpc.ServerConfig{
		QueueCap: d.cfg.QueueCap,
		Workers:  d.cfg.Workers,
	})
	return err
}

func (d *Deployment) byName(name string) *TSD {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, t := range d.tsds {
		if t.name == name {
			return t
		}
	}
	return nil
}

// TSDs returns the daemons in creation order.
func (d *Deployment) TSDs() []*TSD {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]*TSD(nil), d.tsds...)
}

// Addrs returns the TSD RPC addresses, for the proxy's round-robin.
func (d *Deployment) Addrs() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, len(d.tsds))
	for i, t := range d.tsds {
		out[i] = tsdAddr(t.name)
	}
	return out
}

// PointsWritten sums samples accepted across the TSD tier.
func (d *Deployment) PointsWritten() int64 {
	var total int64
	for _, t := range d.TSDs() {
		total += t.PointsWritten.Value()
	}
	return total
}

// QueriesServed sums query RPCs handled across the TSD tier.
func (d *Deployment) QueriesServed() int64 {
	var total int64
	for _, t := range d.TSDs() {
		total += t.QueriesServed.Value()
	}
	return total
}

// Watermarks returns the deployment's shared write watermark table.
func (d *Deployment) Watermarks() *Watermarks { return d.marks }

// RPC payloads for the TSD tier.
type (
	// PutBatch writes a batch of points.
	PutBatch struct {
		Points []Point
	}
	// QueryRequest runs one query.
	QueryRequest struct {
		Query Query
	}
	// QueryResponse returns matching series sorted by ID.
	QueryResponse struct {
		Series []Series
	}
)

// handle is the TSD RPC dispatch. The fabric's context — carrying the
// original caller's deadline, e.g. the proxy's delivery timeout — is
// threaded into the TSD's own HBase client calls, so backpressure
// deadlines propagate through the whole storage path.
func (t *TSD) handle(ctx context.Context, method string, payload any) (any, error) {
	switch method {
	case "put":
		return nil, t.PutContext(ctx, payload.(*PutBatch).Points)
	case "query":
		series, err := t.QueryContext(ctx, payload.(*QueryRequest).Query)
		if err != nil {
			return nil, err
		}
		return &QueryResponse{Series: series}, nil
	case "watermark":
		q := &payload.(*QueryRequest).Query
		return t.marks.Version(q.Metric, q.Start, q.End), nil
	default:
		return nil, fmt.Errorf("tsdb: %s: unknown method %q", t.name, method)
	}
}

// Name returns the daemon name.
func (t *TSD) Name() string { return t.name }

// Put writes points with no deadline (see PutContext).
func (t *TSD) Put(points []Point) error {
	return t.PutContext(context.Background(), points)
}

// PutContext encodes and writes a batch of points through the HBase
// client under the caller's deadline.
func (t *TSD) PutContext(ctx context.Context, points []Point) error {
	if len(points) == 0 {
		return nil
	}
	if f := t.faults.Load(); f.Active() > 0 {
		if err := f.Do(ctx, "tsdb/put/"+t.name); err != nil {
			return err
		}
	}
	cells := make([]hbase.Cell, 0, len(points))
	for i := range points {
		cell, err := t.codec.Encode(&points[i])
		if err != nil {
			return err
		}
		cells = append(cells, cell)
	}
	if err := t.client.PutContext(ctx, cells); err != nil {
		return err
	}
	t.PointsWritten.Add(int64(len(points)))
	// Advance the write watermark of each (metric, row-hour) the batch
	// landed in, and track the ingest frontier the sealing/retention
	// clock runs on.
	t.marks.bumpPoints(points)
	maxTS := int64(0)
	for i := range points {
		if points[i].Timestamp > maxTS {
			maxTS = points[i].Timestamp
		}
	}
	t.blocks.Load().Observe(maxTS)
	return nil
}

// Query runs q with no deadline (see QueryContext).
func (t *TSD) Query(q Query) ([]Series, error) {
	return t.QueryContext(context.Background(), q)
}

// QueryContext scans the row ranges for the metric (across all salt
// buckets) with the query's tags as a row filter, decodes the rows it
// keeps, groups them into series and optionally downsamples.
func (t *TSD) QueryContext(ctx context.Context, q Query) ([]Series, error) {
	t.QueriesServed.Inc()
	if f := t.faults.Load(); f.Active() > 0 {
		if err := f.Do(ctx, "tsdb/query/"+t.name); err != nil {
			return nil, err
		}
	}
	mu, ok := t.codec.uids.Lookup(kindMetric, q.Metric)
	if !ok {
		// Unknown locally; try reloading persisted UIDs once (another
		// TSD may have interned it).
		if err := t.codec.uids.Reload(); err != nil {
			return nil, err
		}
		if mu, ok = t.codec.uids.Lookup(kindMetric, q.Metric); !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoSuchMetric, q.Metric)
		}
	}
	grouped := make(map[string]*Series)
	// The sealed tier contributes first: wide downsampled windows come
	// back as exact pre-aggregated buckets (pre, per series id) without
	// a block ever being decompressed; drill-downs decode raw samples
	// straight into grouped alongside the hot HBase scan below.
	bs := t.blocks.Load()
	var pre map[string][]Sample
	if bs != nil && rollupWidthFor(q) > 0 {
		pre = make(map[string][]Sample)
	}
	if err := bs.collect(ctx, q, grouped, pre); err != nil {
		return nil, err
	}
	// The tags ride the scan as a row filter, so the region servers
	// merge and return only the rows of matching series. A tag no series
	// carries leaves nothing to scan.
	keep, ok := t.codec.rowFilter(q.Tags)
	var ranges [][2][]byte
	if ok {
		ranges = t.codec.rowRanges(mu, q.Start, q.End)
	}
	for _, rng := range ranges {
		cells, err := t.client.ScanContext(ctx, rng[0], rng[1], 0, keep)
		if err != nil {
			return nil, err
		}
		// Scan output is sorted, so a row's cells arrive together: the
		// key is decoded, tag-checked and grouped once per row.
		var samples []Sample
		for len(cells) > 0 {
			rowCells := cells[:rowLen(cells)]
			cells = cells[len(rowCells):]
			meta, ok, err := t.codec.decodeRow(rowCells[0].Row)
			if err != nil {
				return nil, err
			}
			if !ok || !tagsMatch(q.Tags, meta.tags) {
				continue
			}
			var ser *Series
			for _, cell := range rowCells {
				if samples, err = decodeCell(samples[:0], meta.base, cell); err != nil {
					return nil, err
				}
				for _, s := range samples {
					if s.Timestamp < q.Start || s.Timestamp > q.End {
						continue
					}
					if ser == nil {
						id := seriesID(meta.metric, meta.tags)
						if ser = grouped[id]; ser == nil {
							ser = &Series{Metric: meta.metric, Tags: meta.tags}
							grouped[id] = ser
						}
					}
					ser.Samples = append(ser.Samples, s)
				}
			}
		}
	}
	ids := make([]string, 0, len(grouped))
	var returned int64
	for id, ser := range grouped {
		// The sealed blocks and a series' hot rows usually arrive in time
		// order already; salted hours of one series may not.
		if !slices.IsSortedFunc(ser.Samples, bySampleTime) {
			slices.SortFunc(ser.Samples, bySampleTime)
		}
		ser.Samples = dedupeSamples(ser.Samples)
		if q.DownsampleSeconds > 0 {
			ser.Samples = downsample(ser.Samples, q.DownsampleSeconds, q.Aggregate)
		}
		if buckets := pre[id]; len(buckets) > 0 {
			ser.Samples = mergePreAggregated(ser.Samples, buckets)
		}
		if len(ser.Samples) == 0 {
			continue
		}
		returned += int64(len(ser.Samples))
		ids = append(ids, id)
	}
	t.SamplesReturned.Add(returned)
	// grouped is keyed by series ID, so sorting its keys orders the
	// output by ID without rendering one per comparison.
	slices.Sort(ids)
	out := make([]Series, len(ids))
	for i, id := range ids {
		out[i] = *grouped[id]
	}
	return out, nil
}

// bySampleTime orders samples by timestamp.
func bySampleTime(a, b Sample) int { return cmp.Compare(a.Timestamp, b.Timestamp) }

// mergePreAggregated merges a series' hot downsampled buckets with the
// sealed tier's pre-aggregated ones (both sorted by timestamp). Seal
// boundaries are row-aligned and rollup-eligible widths divide the row
// span, so a bucket lives wholly on one side; on the rare duplicate
// (a late write racing a re-seal) the sealed value wins until the next
// compaction pass absorbs the stragglers.
func mergePreAggregated(hot, sealed []Sample) []Sample {
	if len(hot) == 0 {
		return sealed
	}
	out := make([]Sample, 0, len(hot)+len(sealed))
	i, j := 0, 0
	for i < len(hot) && j < len(sealed) {
		switch {
		case hot[i].Timestamp < sealed[j].Timestamp:
			out = append(out, hot[i])
			i++
		case hot[i].Timestamp > sealed[j].Timestamp:
			out = append(out, sealed[j])
			j++
		default:
			out = append(out, sealed[j])
			i++
			j++
		}
	}
	out = append(out, hot[i:]...)
	out = append(out, sealed[j:]...)
	return out
}

// dedupeSamples drops duplicate timestamps (a row-compacted cell can
// coexist with a not-yet-deleted original; they carry equal values).
func dedupeSamples(in []Sample) []Sample {
	if len(in) < 2 {
		return in
	}
	out := in[:1]
	for _, s := range in[1:] {
		if s.Timestamp != out[len(out)-1].Timestamp {
			out = append(out, s)
		}
	}
	return out
}

// tagsMatch reports whether all filter tags equal the series tags.
func tagsMatch(filter, tags map[string]string) bool {
	for k, v := range filter {
		if tags[k] != v {
			return false
		}
	}
	return true
}

// BucketStart returns the start of ts's width-second bucket, flooring
// toward negative infinity. Go's % truncates toward zero, so the naive
// ts-ts%width mis-buckets negative timestamps (e.g. -5 with width 10
// would land in bucket 0 instead of -10).
func BucketStart(ts, width int64) int64 {
	b := ts / width
	if ts%width != 0 && ts < 0 {
		b--
	}
	return b * width
}

// downsample buckets samples into fixed windows and aggregates.
func downsample(in []Sample, width int64, agg AggFunc) []Sample {
	if len(in) == 0 {
		return in
	}
	var out []Sample
	var vals []float64
	cur := BucketStart(in[0].Timestamp, width)
	flush := func() {
		if len(vals) > 0 {
			out = append(out, Sample{Timestamp: cur, Value: agg.apply(vals)})
			vals = vals[:0]
		}
	}
	for _, s := range in {
		b := BucketStart(s.Timestamp, width)
		if b != cur {
			flush()
			cur = b
		}
		vals = append(vals, s.Value)
	}
	flush()
	return out
}

// CompactRows performs row compaction for every data row with base
// time strictly older than beforeBase. With a block store attached
// (AttachBlockStore) each closed row seals into the compressed tier —
// its samples are Gorilla-encoded into the deployment-shared
// BlockStore, its rollups refresh, and the raw HBase cells are
// deleted. Without one it falls back to OpenTSDB-style wide-cell
// rewrites (the operation the paper disabled — each compacted row
// costs a scan, a put and a delete RPC round). It returns the number
// of rows compacted or sealed.
func (t *TSD) CompactRows(beforeBase int64) (int, error) {
	return t.CompactRowsContext(context.Background(), beforeBase)
}

// CompactRowsContext is CompactRows under the caller's deadline.
func (t *TSD) CompactRowsContext(ctx context.Context, beforeBase int64) (int, error) {
	if bs := t.blocks.Load(); bs != nil {
		return t.sealRows(ctx, bs, beforeBase)
	}
	if !t.cfg.CompactionEnabled {
		return 0, nil
	}
	// Scan everything below the meta prefix (data rows only).
	cells, err := t.client.ScanContext(ctx, nil, []byte{metaPrefix}, 0, nil)
	if err != nil {
		return 0, err
	}
	byRow := make(map[string][]hbase.Cell)
	for _, c := range cells {
		if len(c.Qual) == 2 && c.Qual[0] == 0xFF && c.Qual[1] == 0xFF {
			continue // already compacted
		}
		byRow[string(c.Row)] = append(byRow[string(c.Row)], c)
	}
	compacted := 0
	for _, rowCells := range byRow {
		if len(rowCells) < 2 {
			continue
		}
		base, ok := t.codec.rowBase(rowCells[0].Row)
		if !ok || base >= beforeBase {
			continue
		}
		sort.Slice(rowCells, func(i, j int) bool {
			return binary.BigEndian.Uint16(rowCells[i].Qual) < binary.BigEndian.Uint16(rowCells[j].Qual)
		})
		wide := make([]byte, 0, len(rowCells)*10)
		for _, c := range rowCells {
			wide = append(wide, c.Qual...)
			wide = append(wide, c.Value...)
		}
		wideCell := hbase.Cell{Row: rowCells[0].Row, Qual: []byte{0xFF, 0xFF}, Value: wide}
		if err := t.client.PutContext(ctx, []hbase.Cell{wideCell}); err != nil {
			return compacted, err
		}
		if err := t.client.DeleteContext(ctx, rowCells); err != nil {
			return compacted, err
		}
		t.RowsCompacted.Inc()
		compacted++
	}
	return compacted, nil
}

// sealRows moves every data row with base time strictly older than
// beforeBase into the compressed sealed tier: decode the row's cells
// (one row is one series and hour), Seal the samples into the block
// store, then delete the raw cells. A row is only deleted after its
// block is durably in the store, so a crash between the two steps
// leaves duplicate data (deduped at read time), never a hole.
func (t *TSD) sealRows(ctx context.Context, bs *BlockStore, beforeBase int64) (int, error) {
	cells, err := t.client.ScanContext(ctx, nil, []byte{metaPrefix}, 0, nil)
	if err != nil {
		return 0, err
	}
	sealed := 0
	for len(cells) > 0 {
		rowCells := cells[:rowLen(cells)]
		cells = cells[len(rowCells):]
		if err := ctx.Err(); err != nil {
			return sealed, err
		}
		base, ok := t.codec.rowBase(rowCells[0].Row)
		if !ok || base >= beforeBase {
			continue
		}
		meta, ok, err := t.codec.decodeRow(rowCells[0].Row)
		if err != nil {
			return sealed, err
		}
		if !ok {
			continue
		}
		samples := make([]Sample, 0, len(rowCells))
		for _, c := range rowCells {
			if samples, err = decodeCell(samples, meta.base, c); err != nil {
				return sealed, err
			}
		}
		if len(samples) == 0 {
			continue
		}
		if err := bs.Seal(meta.metric, meta.tags, samples); err != nil {
			return sealed, err
		}
		if err := t.client.DeleteContext(ctx, rowCells); err != nil {
			return sealed, err
		}
		t.RowsCompacted.Inc()
		sealed++
	}
	return sealed, nil
}

// rowLen returns how many leading cells of sorted scan output share
// the first cell's row.
func rowLen(cells []hbase.Cell) int {
	n := 1
	for n < len(cells) && bytes.Equal(cells[n].Row, cells[0].Row) {
		n++
	}
	return n
}

// rowBase extracts the base time from a data row key.
func (c *Codec) rowBase(key []byte) (int64, bool) {
	if c.SaltBuckets > 0 {
		if len(key) < 1 {
			return 0, false
		}
		key = key[1:]
	}
	if len(key) < uidWidth+4 {
		return 0, false
	}
	return int64(binary.BigEndian.Uint32(key[uidWidth : uidWidth+4])), true
}
