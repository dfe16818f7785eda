package hbase

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/hdfs"
)

// RegionInfo is the metadata the master publishes for one region.
type RegionInfo struct {
	ID    int    `json:"id"`
	Start []byte `json:"start"` // inclusive; empty = -inf
	End   []byte `json:"end"`   // exclusive; empty = +inf
	// Server is the region server currently assigned, by name.
	Server string `json:"server"`
}

// Contains reports whether key falls in this region's range.
func (ri RegionInfo) Contains(key []byte) bool { return inRange(key, ri.Start, ri.End) }

// dir returns the region's HDFS directory prefix.
func (ri RegionInfo) dir() string { return regionDir(ri.ID) }

func regionDir(id int) string { return fmt.Sprintf("/hbase/region-%d/", id) }

// storeFile is one immutable flushed file, newest sequence wins: the
// key-sorted rows it was flushed from or, reopened, decoded into.
type storeFile struct {
	path string
	seq  int64 // highest WAL sequence contained
	rows []*memRow
}

// region is the in-memory serving state for one assigned region.
type region struct {
	mu   sync.RWMutex
	info RegionInfo
	mem  *memstore // live write buffer
	// snap is the memstore a flush in flight is writing out: immutable,
	// newer than every store file, older than mem. Scans read it until
	// its store file is registered.
	snap  *memstore
	files []storeFile // sorted by seq ascending
	// maxSeq is the highest WAL sequence applied to this region (for
	// flush markers).
	maxSeq int64
	// flushMu admits one flush at a time; a second caller waits.
	flushMu sync.Mutex
	// seqMu makes a logged write one step: a server holds it from drawing
	// the WAL sequence to applying the cells, and snapshot takes it, so a
	// snapshot at sequence S holds every write up to S and none after —
	// the WAL can be cut at S and the next store file gets a later name.
	seqMu sync.Mutex
	// walked counts the cells scans stepped over, returned or not.
	walked atomic.Int64
}

func newRegion(info RegionInfo) *region {
	return &region{info: info, mem: newMemstore()}
}

// put applies cells (already range-checked) carrying WAL sequence seq.
// A delete marker is kept only while something older could still hold
// its slot — a store file or a flush snapshot; otherwise the delete
// clears the slot outright, and a row whose last cell goes leaves the
// memstore.
func (r *region) put(cells []Cell, seq int64) {
	r.mu.Lock()
	keepTombs := len(r.files) > 0 || r.snap != nil
	var cleared []*memRow
	for _, c := range cells {
		if !c.Tomb || keepTombs {
			r.mem.set(r.mem.row(c.Row, true), c)
			continue
		}
		row := r.mem.row(c.Row, false)
		if row == nil {
			continue // deleting from a row the memstore does not hold
		}
		r.mem.unset(row, c.Qual)
		if len(cleared) == 0 || cleared[len(cleared)-1] != row {
			cleared = append(cleared, row)
		}
	}
	r.mem.settle(cleared)
	if seq > r.maxSeq {
		r.maxSeq = seq
	}
	r.mu.Unlock()
}

// memSize returns the bytes the live memstore holds.
func (r *region) memSize() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.mem.size
}

// fileSize returns the bytes the rows of the store files hold.
func (r *region) fileSize() (n int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, sf := range r.files {
		for _, row := range sf.rows {
			n += row.size()
		}
	}
	return n
}

// scan returns the merged view of [start, end): memstore shadows the
// flush snapshot, which shadows store files, newer files shadow older
// ones. Every source is sorted, so the scan seeks each to start and
// walks to end (or limit): its cost is the cells in range, not the
// cells in the region. Cells are sorted by (Row, Qual) and alias
// immutable store bytes. limit <= 0 means unlimited.
func (r *region) scan(start, end []byte, limit int) []Cell {
	r.mu.RLock()
	defer r.mu.RUnlock()
	// The usual region has a store file or two: its cursors fit on the
	// stack.
	var few [4]run
	runs := few[:0]
	for _, sf := range r.files {
		runs = append(runs, runOf(sf.rows, start, end))
	}
	if r.snap != nil {
		runs = append(runs, runOf(r.snap.rows, start, end))
	}
	runs = append(runs, runOf(r.mem.rows, start, end))
	out, walked := mergeRuns(runs, limit)
	r.walked.Add(int64(walked))
	return out
}

// errStoreFileExists refuses a flush whose sequence names a store file
// the region already has.
var errStoreFileExists = errors.New("store file already exists")

// flushMarker is the durable record of how far a region has flushed.
type flushMarker struct {
	FlushedSeq int64    `json:"flushedSeq"`
	Files      []string `json:"files"`
}

// snapshot starts a flush: under one lock it takes the memstore (nil
// if empty) with the sequence it reaches and swaps in a fresh one, so
// no write can fall between the two. The snapshot is immutable from
// here and stays readable through r.snap.
func (r *region) snapshot() (*memstore, int64) {
	r.seqMu.Lock()
	defer r.seqMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.mem.rows) == 0 {
		return nil, 0
	}
	r.snap, r.mem = r.mem, newMemstore()
	return r.snap, r.maxSeq
}

// restore abandons a flush: the writes that arrived since the snapshot
// are folded back over it and it becomes the live memstore again.
func (r *region) restore(snap *memstore) {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap.absorb(r.mem)
	r.snap, r.mem = nil, snap
}

// flush writes the memstore to a new immutable store file in HDFS,
// returning the flushed sequence: everything up to it is in store
// files, so the WAL may be truncated that far and no further. A nil
// error with seq 0 means the memstore was empty. Writes arriving while
// the file is written land in a fresh memstore; if the write fails
// nothing is lost (restore); if it succeeds the snapshot's rows are the
// store file, uncopied.
func (r *region) flush(dfs *hdfs.Cluster) (int64, error) {
	r.flushMu.Lock()
	defer r.flushMu.Unlock()
	snap, seq := r.snapshot()
	if snap == nil {
		return 0, nil
	}
	// Store files are immutable: a flush never reuses a name (WriteFile
	// would replace the older file, whose rows this region still serves),
	// whatever its sequence is.
	path := fmt.Sprintf("%ssf-%020d", r.info.dir(), seq)
	err := errStoreFileExists
	if !dfs.Exists(path) {
		err = dfs.WriteFile(path, encodeRows(snap.rows))
	}
	if err != nil {
		r.restore(snap)
		return 0, fmt.Errorf("hbase: flush region %d to %s: %w", r.info.ID, path, err)
	}
	r.mu.Lock()
	// Flushes are serialized and maxSeq only grows: appending keeps
	// files in sequence order.
	r.files = append(r.files, storeFile{path: path, seq: seq, rows: snap.rows})
	r.snap = nil
	files := make([]string, len(r.files))
	for i, sf := range r.files {
		files[i] = sf.path
	}
	r.mu.Unlock()

	if err := r.writeMarker(dfs, seq, files); err != nil {
		return 0, err
	}
	return seq, nil
}

func (r *region) writeMarker(dfs *hdfs.Cluster, seq int64, files []string) error {
	data, err := json.Marshal(flushMarker{FlushedSeq: seq, Files: files})
	if err != nil {
		return err
	}
	if err := dfs.WriteFile(r.info.dir()+"marker", data); err != nil {
		return fmt.Errorf("hbase: write flush marker region %d: %w", r.info.ID, err)
	}
	return nil
}

// compact merges all store files into one (newest wins), deleting the
// inputs. It returns the number of files compacted away.
func (r *region) compact(dfs *hdfs.Cluster) (int, error) {
	r.mu.RLock()
	old := append([]storeFile(nil), r.files...)
	r.mu.RUnlock()
	if len(old) < 2 {
		return 0, nil
	}
	runs := make([]run, len(old))
	for i, sf := range old { // ascending seq: newest wins
		runs[i] = run{rows: sf.rows}
	}
	maxSeq := old[len(old)-1].seq
	// Major compaction reclaims delete markers: every file they could
	// shadow is merged away with them.
	rows := mergeRows(runs)

	path := fmt.Sprintf("%ssf-%020d-c", r.info.dir(), maxSeq)
	if err := dfs.WriteFile(path, encodeRows(rows)); err != nil {
		return 0, fmt.Errorf("hbase: compact region %d: %w", r.info.ID, err)
	}

	r.mu.Lock()
	// Only swap if the file set is unchanged (no concurrent flush).
	if !slices.EqualFunc(r.files, old, func(a, b storeFile) bool { return a.path == b.path }) {
		r.mu.Unlock()
		_ = dfs.DeleteFile(path)
		return 0, nil
	}
	r.files = []storeFile{{path: path, seq: maxSeq, rows: rows}}
	r.mu.Unlock()

	if err := r.writeMarker(dfs, maxSeq, []string{path}); err != nil {
		return 0, err
	}
	for _, sf := range old {
		_ = dfs.DeleteFile(sf.path)
	}
	return len(old), nil
}

// openRegion reconstructs a region's flushed state from HDFS: reads the
// marker, loads the listed store files. Used when a region is assigned
// to a server (initial assignment, failover, split).
func openRegion(info RegionInfo, dfs *hdfs.Cluster) (*region, int64, error) {
	r := newRegion(info)
	markerPath := info.dir() + "marker"
	if !dfs.Exists(markerPath) {
		return r, 0, nil // brand-new region
	}
	data, err := dfs.ReadFile(markerPath)
	var m flushMarker
	if err == nil {
		err = json.Unmarshal(data, &m)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("hbase: open region %d marker: %w", info.ID, err)
	}
	for _, path := range m.Files {
		raw, err := dfs.ReadFile(path)
		var rows []*memRow
		if err == nil {
			rows, err = decodeRows(raw) // the rows keep raw
		}
		if err != nil {
			return nil, 0, fmt.Errorf("hbase: open region %d file %s: %w", info.ID, path, err)
		}
		r.files = append(r.files, storeFile{path: path, seq: seqFromPath(path), rows: rows})
	}
	sort.Slice(r.files, func(i, j int) bool { return r.files[i].seq < r.files[j].seq })
	r.maxSeq = m.FlushedSeq
	return r, m.FlushedSeq, nil
}

// seqFromPath recovers the sequence embedded in a store file name.
func seqFromPath(path string) int64 {
	base := path[strings.LastIndex(path, "/")+1:]
	base = strings.TrimPrefix(base, "sf-")
	base = strings.TrimSuffix(base, "-c")
	n, _ := strconv.ParseInt(base, 10, 64)
	return n
}
