package tsdb

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/hdfs"
	"repro/internal/telemetry"
)

// Rollup resolutions kept hot for every sealed series. Wide dashboard
// windows whose downsample width is a multiple of one of these (and
// still divides the row span, so buckets never straddle the sealed/hot
// boundary) are answered from rollups without decompressing a block.
const (
	RollupFine   = 60   // 1m
	RollupCoarse = 3600 // 1h
)

// RollupBucket is one pre-aggregated window of a sealed series. Count,
// Sum, Min and Max reconstruct every AggFunc exactly (avg = Sum/Count),
// so rollup answers are identical to downsampling the raw samples.
type RollupBucket struct {
	Start int64
	Count int64
	Sum   float64
	Min   float64
	Max   float64
}

func (b *RollupBucket) apply(agg AggFunc) float64 {
	switch agg {
	case AggSum:
		return b.Sum
	case AggMin:
		return b.Min
	case AggMax:
		return b.Max
	case AggCount:
		return float64(b.Count)
	default: // AggAvg
		return b.Sum / float64(b.Count)
	}
}

// merge folds o into b (same bucket start, wider target width).
func (b *RollupBucket) merge(o RollupBucket) {
	b.Count += o.Count
	b.Sum += o.Sum
	if o.Min < b.Min {
		b.Min = o.Min
	}
	if o.Max > b.Max {
		b.Max = o.Max
	}
}

// sealedBlock is one compressed, immutable run of a series, sorted by
// timestamp. Data is resident until the spill pass writes it to the
// HDFS tier and drops the payload; a query that still needs the raw
// samples then reads the file back lazily. The seek marks stay in
// memory either way, so a read of a spilled block seeks the bytes it
// reads back just as it seeks resident ones.
type sealedBlock struct {
	start, end int64 // inclusive sample timestamp range
	count      int
	size       int    // compressed bytes (kept after spill, for accounting)
	data       []byte // nil once spilled
	path       string // HDFS path when spilled
	marks      []blockMark
}

// seriesBlocks is one series' sealed state: blocks sorted by start plus
// the hot rollups derived from them.
type seriesBlocks struct {
	metric  string
	tags    map[string]string
	blocks  []*sealedBlock
	rollups map[int64][]RollupBucket // width → buckets sorted by Start
}

// BlockStoreConfig tunes a BlockStore.
type BlockStoreConfig struct {
	// HotBlockBytes bounds resident compressed payload before the spill
	// pass pushes the oldest sealed blocks to the HDFS tier (default
	// 64 MiB; negative spills everything on every pass).
	HotBlockBytes int64
	// PathPrefix roots the spill files in the HDFS namespace (default
	// "/tsdb/blocks/").
	PathPrefix string
}

func (c BlockStoreConfig) withDefaults() BlockStoreConfig {
	if c.HotBlockBytes == 0 {
		c.HotBlockBytes = 64 << 20
	}
	if c.PathPrefix == "" {
		c.PathPrefix = "/tsdb/blocks/"
	}
	return c
}

// BlockStore is the deployment-shared sealed tier: compressed blocks
// per series, their hot rollups, and the spill state against the HDFS
// tier. Every TSD of a deployment shares one store (like the UID table
// and the watermarks), so scatter-gather reads and failover keep
// working over sealed data no matter which daemon answers.
//
// All methods are safe for concurrent use and nil-safe: a nil
// *BlockStore behaves as an empty, sealing-disabled tier.
type BlockStore struct {
	cfg   BlockStoreConfig
	dfs   *hdfs.Cluster // nil disables spilling
	marks *Watermarks   // bumped on retention drops (cache invalidation)

	mu       sync.RWMutex
	series   map[string]*seriesBlocks
	order    []string // insertion-ordered series keys, for stable passes
	hotBytes int64
	frontier atomic.Int64 // max timestamp observed by any put

	// testAfterSpillWrite, when set by tests, runs after a spill file
	// is written and before the block records it — the window where a
	// concurrent drop would orphan the file.
	testAfterSpillWrite func()

	// BlocksSealed / SamplesSealed / BytesSealed count the seal path;
	// BytesSealed is compressed payload, the bytes/sample numerator.
	BlocksSealed  telemetry.Counter
	SamplesSealed telemetry.Counter
	BytesSealed   telemetry.Counter
	// BlocksSpilled counts blocks pushed to HDFS; SpillReads lazy
	// readbacks of spilled payloads on the query path.
	BlocksSpilled telemetry.Counter
	SpillReads    telemetry.Counter
	// BlockScans counts sealed blocks decompressed for queries (the
	// drill-down cost); RollupServes counts sealed sub-ranges answered
	// from rollups without touching a block — the wide-dashboard path.
	BlockScans   telemetry.Counter
	RollupServes telemetry.Counter
	// BlocksExpired / RollupsExpired count retention drops.
	BlocksExpired  telemetry.Counter
	RollupsExpired telemetry.Counter
}

// NewBlockStore builds a sealed tier spilling to dfs (nil keeps every
// block resident) and invalidating reads through marks.
func NewBlockStore(dfs *hdfs.Cluster, marks *Watermarks, cfg BlockStoreConfig) *BlockStore {
	return &BlockStore{
		cfg:    cfg.withDefaults(),
		dfs:    dfs,
		marks:  marks,
		series: make(map[string]*seriesBlocks),
	}
}

// AttachBlockStore wires a shared sealed tier into every TSD of the
// deployment, present and future: CompactRows seals closed rows into
// compressed blocks instead of wide cells, and queries serve sealed
// ranges from the store. Returns the store.
func (d *Deployment) AttachBlockStore(cfg BlockStoreConfig) *BlockStore {
	bs := NewBlockStore(d.Cluster.DFS(), d.marks, cfg)
	d.mu.Lock()
	d.blocks = bs
	tsds := append([]*TSD(nil), d.tsds...)
	d.mu.Unlock()
	for _, t := range tsds {
		t.blocks.Store(bs)
	}
	return bs
}

// BlockStore returns the deployment's sealed tier (nil when none is
// attached).
func (d *Deployment) BlockStore() *BlockStore {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.blocks
}

// Observe advances the ingest frontier — the "now" retention and
// sealing measure age against. Called by every TSD put.
func (s *BlockStore) Observe(ts int64) {
	if s == nil {
		return
	}
	for {
		cur := s.frontier.Load()
		if ts <= cur || s.frontier.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// Frontier returns the max timestamp any put has carried.
func (s *BlockStore) Frontier() int64 {
	if s == nil {
		return 0
	}
	return s.frontier.Load()
}

// HotBytes returns the resident compressed payload size.
func (s *BlockStore) HotBytes() int64 {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.hotBytes
}

// Seal compresses samples (any order, duplicates allowed — they are
// sorted and deduplicated first) into the series' sealed tier and
// refreshes its rollups. A new block overlapping existing sealed
// ranges is merged with them: the union re-seals as one block and the
// affected rollup buckets are recomputed, so late writes never double
// count.
func (s *BlockStore) Seal(metric string, tags map[string]string, samples []Sample) error {
	if s == nil || len(samples) == 0 {
		return nil
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].Timestamp < samples[j].Timestamp })
	samples = dedupeSamples(samples)
	start, end := samples[0].Timestamp, samples[len(samples)-1].Timestamp

	key := seriesID(metric, tags)
	s.mu.Lock()
	defer s.mu.Unlock()
	sb, ok := s.series[key]
	if !ok {
		tcopy := make(map[string]string, len(tags))
		for k, v := range tags {
			tcopy[k] = v
		}
		sb = &seriesBlocks{metric: metric, tags: tcopy, rollups: make(map[int64][]RollupBucket)}
		s.series[key] = sb
		s.order = append(s.order, key)
	}

	// Absorb sealed blocks sharing a coarse-rollup bucket with the new
	// samples — not just range-overlapping ones. rebuildRollups below
	// replaces every touched bucket with aggregates of these samples
	// alone, so a block left out of the union (a second seal filling a
	// gap elsewhere in the same hour, say) would have its counts
	// silently dropped from the shared buckets. Merging can widen the
	// span into further buckets, so repeat until no block intersects
	// the bucket-aligned window.
	var lo int
	for {
		absorbLo := BucketStart(start, RollupCoarse)
		absorbHi := BucketStart(end, RollupCoarse) + RollupCoarse - 1
		lo = sort.Search(len(sb.blocks), func(i int) bool { return sb.blocks[i].end >= absorbLo })
		hi := lo
		for hi < len(sb.blocks) && sb.blocks[hi].start <= absorbHi {
			hi++
		}
		if lo == hi {
			break
		}
		merged := append([]Sample(nil), samples...)
		for _, blk := range sb.blocks[lo:hi] {
			data, err := s.payloadLocked(blk)
			if err != nil {
				return err
			}
			if merged, err = DecodeBlock(merged, data); err != nil {
				return err
			}
			s.dropBlockLocked(blk)
		}
		sb.blocks = append(sb.blocks[:lo], sb.blocks[hi:]...)
		// The new samples sit ahead of the decoded old ones, so the
		// stable sort plus keep-first dedupe lets a late rewrite of an
		// existing timestamp deterministically win.
		sort.SliceStable(merged, func(i, j int) bool { return merged[i].Timestamp < merged[j].Timestamp })
		samples = dedupeSamples(merged)
		start, end = samples[0].Timestamp, samples[len(samples)-1].Timestamp
	}

	data, marks := encodeBlockMarked(samples)
	blk := &sealedBlock{start: start, end: end, count: len(samples), size: len(data), data: data, marks: marks}
	sb.blocks = append(sb.blocks, nil)
	copy(sb.blocks[lo+1:], sb.blocks[lo:])
	sb.blocks[lo] = blk
	s.hotBytes += int64(len(data))
	s.BlocksSealed.Inc()
	s.SamplesSealed.Add(int64(len(samples)))
	s.BytesSealed.Add(int64(len(data)))

	// Recompute the rollup buckets the sealed span touches, from the
	// sealed samples themselves — exact by construction.
	for _, w := range [...]int64{RollupFine, RollupCoarse} {
		sb.rebuildRollups(w, samples, start, end)
	}
	s.Observe(end)
	return nil
}

// rebuildRollups replaces sb's width-w buckets covering [start, end]
// with buckets computed from samples (sorted, covering that span).
func (sb *seriesBlocks) rebuildRollups(w int64, samples []Sample, start, end int64) {
	var fresh []RollupBucket
	for i := 0; i < len(samples); {
		bstart := BucketStart(samples[i].Timestamp, w)
		b := RollupBucket{Start: bstart, Min: samples[i].Value, Max: samples[i].Value}
		for ; i < len(samples) && BucketStart(samples[i].Timestamp, w) == bstart; i++ {
			v := samples[i].Value
			b.Count++
			b.Sum += v
			if v < b.Min {
				b.Min = v
			}
			if v > b.Max {
				b.Max = v
			}
		}
		fresh = append(fresh, b)
	}
	old := sb.rollups[w]
	loStart, hiStart := BucketStart(start, w), BucketStart(end, w)
	lo := sort.Search(len(old), func(i int) bool { return old[i].Start >= loStart })
	hi := sort.Search(len(old), func(i int) bool { return old[i].Start > hiStart })
	out := make([]RollupBucket, 0, lo+len(fresh)+len(old)-hi)
	out = append(out, old[:lo]...)
	out = append(out, fresh...)
	out = append(out, old[hi:]...)
	sb.rollups[w] = out
}

// payloadLocked returns a block's compressed bytes, reading a spilled
// payload back from the HDFS tier. Caller holds s.mu (read or write).
func (s *BlockStore) payloadLocked(blk *sealedBlock) ([]byte, error) {
	if blk.data != nil {
		return blk.data, nil
	}
	if s.dfs == nil {
		return nil, fmt.Errorf("%w: spilled block with no HDFS tier", ErrBadBlock)
	}
	s.SpillReads.Inc()
	return s.dfs.ReadFile(blk.path)
}

// dropBlockLocked releases a block's resident bytes and spill file.
func (s *BlockStore) dropBlockLocked(blk *sealedBlock) {
	if blk.data != nil {
		s.hotBytes -= int64(len(blk.data))
		blk.data = nil
	}
	if blk.path != "" && s.dfs != nil {
		_ = s.dfs.DeleteFile(blk.path)
		blk.path = ""
	}
}

// RollupWidth returns the rollup resolution that answers a downsample
// of width w exactly and boundary-safely, or 0 when the query must
// decompress raw blocks: w must be a whole number of rollup buckets
// and divide the row span, so no output bucket straddles the
// sealed/hot boundary or a shard edge.
func RollupWidth(w int64) int64 {
	if w >= RollupCoarse && w%RollupCoarse == 0 {
		return RollupCoarse
	}
	if w >= RollupFine && w%RollupFine == 0 && RowSeconds%w == 0 {
		return RollupFine
	}
	return 0
}

// rollupWidthFor returns the rollup resolution serving q exactly, or 0
// when q must decode raw blocks: the downsample width must be
// rollup-eligible (RollupWidth) and the window edges must sit on the
// rollup grid — a partial edge bucket would admit samples outside
// [q.Start, q.End] that the raw and hot paths exclude.
func rollupWidthFor(q Query) int64 {
	if q.DownsampleSeconds <= 0 {
		return 0
	}
	rw := RollupWidth(q.DownsampleSeconds)
	if rw == 0 || BucketStart(q.Start, rw) != q.Start || BucketStart(q.End+1, rw) != q.End+1 {
		return 0
	}
	return rw
}

// collect appends the sealed tier's contribution for q over
// [q.Start, q.End] into grouped/pre. Raw-path series samples go into
// the grouped map (merged with the hot HBase scan); rollup-path series
// get pre-aggregated buckets in pre, keyed by series id.
func (s *BlockStore) collect(ctx context.Context, q Query, grouped map[string]*Series, pre map[string][]Sample) error {
	if s == nil {
		return nil
	}
	rw := int64(0)
	if pre != nil {
		rw = rollupWidthFor(q)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, key := range s.order {
		sb := s.series[key]
		if sb.metric != q.Metric || !tagsMatch(q.Tags, sb.tags) {
			continue
		}
		if rw > 0 {
			pre[key] = append(pre[key], s.rollupSamplesLocked(sb, rw, q)...)
			if grouped[key] == nil {
				grouped[key] = &Series{Metric: sb.metric, Tags: sb.tags}
			}
			continue
		}
		if err := s.rawSamplesLocked(ctx, sb, q, grouped, key); err != nil {
			return err
		}
	}
	return nil
}

// rollupSamplesLocked aggregates sb's width-rw buckets into the query's
// downsample buckets over [q.Start, q.End].
func (s *BlockStore) rollupSamplesLocked(sb *seriesBlocks, rw int64, q Query) []Sample {
	buckets := sb.rollups[rw]
	lo := sort.Search(len(buckets), func(i int) bool { return buckets[i].Start >= BucketStart(q.Start, rw) })
	hi := sort.Search(len(buckets), func(i int) bool { return buckets[i].Start > q.End })
	if lo >= hi {
		return nil
	}
	s.RollupServes.Inc()
	var out []Sample
	w := q.DownsampleSeconds
	i := lo
	for i < hi {
		ostart := BucketStart(buckets[i].Start, w)
		acc := buckets[i]
		for i++; i < hi && BucketStart(buckets[i].Start, w) == ostart; i++ {
			acc.merge(buckets[i])
		}
		out = append(out, Sample{Timestamp: ostart, Value: acc.apply(q.Aggregate)})
	}
	return out
}

// rawSamplesLocked decompresses sb's blocks overlapping the window into
// the grouped map (the drill-down path), reading spilled payloads back
// from HDFS as needed. A block is sorted (Seal sorts), so each decode
// seeks to the last mark before q.Start and stops at the first sample
// past q.End: a window costs its own samples, not its block's.
func (s *BlockStore) rawSamplesLocked(ctx context.Context, sb *seriesBlocks, q Query, grouped map[string]*Series, key string) error {
	lo := sort.Search(len(sb.blocks), func(i int) bool { return sb.blocks[i].end >= q.Start })
	for _, blk := range sb.blocks[lo:] {
		if blk.start > q.End {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		data, err := s.payloadLocked(blk)
		if err != nil {
			return err
		}
		s.BlockScans.Inc()
		ser := grouped[key]
		if ser == nil {
			ser = &Series{Metric: sb.metric, Tags: sb.tags}
			grouped[key] = ser
		}
		if ser.Samples, err = decodeWindow(ser.Samples, data, blk.marks, q.Start, q.End); err != nil {
			return err
		}
	}
	return nil
}

// SpillPass pushes the oldest resident blocks to the HDFS tier until
// resident compressed payload fits the configured HotBlockBytes
// budget. Rollups always stay hot. Returns the number of blocks
// spilled.
func (s *BlockStore) SpillPass() (int, error) {
	if s == nil || s.dfs == nil {
		return 0, nil
	}
	budget := s.cfg.HotBlockBytes
	if budget < 0 {
		budget = 0
	}
	type cand struct {
		blk *sealedBlock
		key string
	}
	s.mu.Lock()
	if s.hotBytes <= budget {
		s.mu.Unlock()
		return 0, nil
	}
	var cands []cand
	for _, key := range s.order {
		for _, blk := range s.series[key].blocks {
			if blk.data != nil {
				cands = append(cands, cand{blk, key})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].blk.end < cands[j].blk.end })
	over := s.hotBytes - budget
	var picked []cand
	for _, c := range cands {
		if over <= 0 {
			break
		}
		picked = append(picked, c)
		over -= int64(len(c.blk.data))
	}
	s.mu.Unlock()

	spilled := 0
	for _, c := range picked {
		s.mu.Lock()
		data := c.blk.data
		if data == nil { // raced with a merge re-seal
			s.mu.Unlock()
			continue
		}
		path := fmt.Sprintf("%s%s/%d-%d", s.cfg.PathPrefix, c.key, c.blk.start, c.blk.end)
		s.mu.Unlock()
		// Write outside the lock: the payload slice is immutable once
		// sealed, and hdfs copies it.
		if err := s.dfs.WriteFile(path, data); err != nil {
			return spilled, err
		}
		if s.testAfterSpillWrite != nil {
			s.testAfterSpillWrite()
		}
		s.mu.Lock()
		orphan := false
		if c.blk.data != nil {
			c.blk.path = path
			c.blk.data = nil
			s.hotBytes -= int64(len(data))
			s.BlocksSpilled.Inc()
			spilled++
		} else {
			// The block lost its payload while the write was in flight
			// (a retention drop or merge re-seal): nothing records the
			// file just written, so delete it rather than leak it. The
			// path != blk.path guard keeps a concurrent pass that spilled
			// the same block to the same deterministic path intact.
			orphan = c.blk.path != path
		}
		s.mu.Unlock()
		if orphan {
			_ = s.dfs.DeleteFile(path)
		}
	}
	return spilled, nil
}

// RetentionPolicy bounds how long a metric's sealed data lives,
// measured in fleet seconds behind the ingest frontier. Zero fields
// keep data forever.
type RetentionPolicy struct {
	// RawTTL drops sealed raw blocks whose whole range is older than
	// frontier-RawTTL. Rollups survive, so wide windows still render;
	// drill-downs into the dropped range come back empty.
	RawTTL int64
	// RollupTTL drops rollup buckets older than frontier-RollupTTL —
	// the final expiry of the metric's history.
	RollupTTL int64
}

// EnforceRetention applies per-metric policies (falling back to def)
// against the current ingest frontier, dropping expired raw blocks
// (and their spill files) and expired rollup buckets. Metrics that
// lost data get their watermark epoch bumped, so every cached window
// of them invalidates.
// Returns blocks and rollup buckets dropped.
func (s *BlockStore) EnforceRetention(def RetentionPolicy, perMetric map[string]RetentionPolicy) (blocksDropped, bucketsDropped int) {
	if s == nil {
		return 0, 0
	}
	frontier := s.Frontier()
	touched := make(map[string]bool)
	s.mu.Lock()
	for _, key := range s.order {
		sb := s.series[key]
		pol, ok := perMetric[sb.metric]
		if !ok {
			pol = def
		}
		if pol.RawTTL > 0 {
			cut := frontier - pol.RawTTL
			n := 0
			for _, blk := range sb.blocks {
				if blk.end < cut {
					s.dropBlockLocked(blk)
					s.BlocksExpired.Inc()
					blocksDropped++
					touched[sb.metric] = true
					continue
				}
				sb.blocks[n] = blk
				n++
			}
			sb.blocks = sb.blocks[:n]
		}
		if pol.RollupTTL > 0 {
			cut := frontier - pol.RollupTTL
			for w, buckets := range sb.rollups {
				lo := sort.Search(len(buckets), func(i int) bool { return buckets[i].Start+w > cut })
				if lo > 0 {
					s.RollupsExpired.Add(int64(lo))
					bucketsDropped += lo
					sb.rollups[w] = append([]RollupBucket(nil), buckets[lo:]...)
					touched[sb.metric] = true
				}
			}
		}
	}
	s.mu.Unlock()
	for m := range touched {
		s.marks.Bump(m)
	}
	return blocksDropped, bucketsDropped
}
