package hbase

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/hdfs"
)

func cell(row, qual, val string) Cell {
	return Cell{Row: []byte(row), Qual: []byte(qual), Value: []byte(val)}
}

func TestCellOrderingAndEquality(t *testing.T) {
	a := cell("a", "1", "x")
	b := cell("a", "2", "x")
	c := cell("b", "0", "x")
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Fatal("cell ordering wrong")
	}
	if !a.Same(cell("a", "1", "different")) {
		t.Fatal("Same must ignore value")
	}
	if a.Same(b) {
		t.Fatal("Same must compare qualifiers")
	}
}

// flatten lists the cells of packed rows in order, delete markers
// included.
func flatten(rows []*memRow) []Cell {
	var out []Cell
	for _, row := range rows {
		for _, off := range row.offs {
			out = append(out, row.cell(off))
		}
	}
	return out
}

// fileCells counts the cells of every store file the region has.
func fileCells(r *region) int {
	n := 0
	for _, sf := range r.files {
		n += (&run{rows: sf.rows}).remaining()
	}
	return n
}

// TestEncodeDecodeCellsRoundTrip: whatever rows a memstore holds — a few
// rows of many cells, empty keys, qualifiers and values, delete markers,
// overwritten slots still dead in their arenas — a store file of them
// decodes to the same cells in the same order, from rows that alias the
// file's buffer, and encodes again to the same bytes.
func TestEncodeDecodeCellsRoundTrip(t *testing.T) {
	f := func(puts [][3][]byte, tombs []bool) bool {
		m := newMemstore()
		for i, p := range puts {
			c := Cell{Row: p[0][:min(len(p[0]), 1)], Qual: p[1], Value: p[2], Tomb: i < len(tombs) && tombs[i]}
			if len(c.Row) > 0 {
				c.Row = []byte{c.Row[0] & 3} // five rows at most: slots collide
			}
			if len(c.Qual) > 1 {
				c.Qual = c.Qual[:1]
			}
			m.set(m.row(c.Row, true), c)
		}
		data := encodeRows(m.rows)
		rows, err := decodeRows(bytes.Clone(data))
		if err != nil {
			t.Log(err)
			return false
		}
		got, want := flatten(rows), flatten(m.rows)
		if len(got) != len(want) || len(rows) != len(m.rows) {
			return false
		}
		for i := range want {
			if !got[i].Same(want[i]) || !bytes.Equal(got[i].Value, want[i].Value) || got[i].Tomb != want[i].Tomb {
				return false
			}
		}
		held := 0
		for _, row := range rows {
			held += len(row.key) + len(row.arena)
			if row.dead != 0 {
				return false
			}
		}
		// The rows are the buffer: nothing but the headers is outside them.
		return held == len(data)-fileHeader-fileRowHeader*len(rows) && bytes.Equal(encodeRows(rows), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, err := decodeRows([]byte{1, 2}); err == nil {
		t.Fatal("short input must fail")
	}
	m := newMemstore()
	for _, c := range []Cell{cell("r", "q", "v"), cell("r", "q2", ""), cell("s", "", "value")} {
		m.set(m.row(c.Row, true), c)
	}
	good := encodeRows(m.rows)
	if rows, err := decodeRows(bytes.Clone(good)); err != nil || render(flatten(rows)) != "r/q=v r/q2= s/=value" {
		t.Fatalf("good file = %q, %v", render(flatten(rows)), err)
	}
	if _, err := decodeRows(append(bytes.Clone(good), 0xFF)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
	for n := range good {
		if _, err := decodeRows(bytes.Clone(good[:n])); !errors.Is(err, errCorrupt) {
			t.Fatalf("file truncated to %d of %d bytes = %v", n, len(good), err)
		}
	}
	// A length that lies, in every place the layout has one: the file's
	// row count, the first row's key length and entry count, its first
	// entry's qualifier and value lengths.
	entry := fileHeader + fileRowHeader + len("r")
	for _, at := range []int{0, 3, fileHeader, fileHeader + 1, fileHeader + 2, fileHeader + 5, entry + 1, entry + 2, entry + 3, entry + 5} {
		for _, add := range []byte{1, 0xFF} {
			bad := bytes.Clone(good)
			bad[at] += add
			if _, err := decodeRows(bad); !errors.Is(err, errCorrupt) {
				t.Fatalf("byte %d of the file raised by %d = %v", at, add, err)
			}
		}
	}
}

func TestInRange(t *testing.T) {
	if !inRange([]byte("m"), nil, nil) {
		t.Fatal("open range contains everything")
	}
	if !inRange([]byte("m"), []byte("m"), []byte("n")) {
		t.Fatal("start is inclusive")
	}
	if inRange([]byte("n"), []byte("m"), []byte("n")) {
		t.Fatal("end is exclusive")
	}
	if inRange([]byte("a"), []byte("m"), nil) {
		t.Fatal("below start must be out")
	}
}

func TestRegionPutScanShadowing(t *testing.T) {
	r := newRegion(RegionInfo{ID: 1})
	r.put([]Cell{cell("r1", "q1", "old")}, 1)
	r.put([]Cell{cell("r1", "q1", "new"), cell("r2", "q1", "x")}, 2)
	got := r.scan(nil, nil, 0, nil)
	if len(got) != 2 {
		t.Fatalf("scan = %d cells, want 2", len(got))
	}
	if string(got[0].Value) != "new" {
		t.Fatal("memstore must keep the newest version")
	}
	// Range scan.
	got = r.scan([]byte("r2"), nil, 0, nil)
	if len(got) != 1 || string(got[0].Row) != "r2" {
		t.Fatalf("range scan wrong: %v", got)
	}
	// Limit.
	got = r.scan(nil, nil, 1, nil)
	if len(got) != 1 {
		t.Fatal("limit ignored")
	}
}

func TestRegionFlushAndReopen(t *testing.T) {
	dfs := hdfs.NewCluster()
	r := newRegion(RegionInfo{ID: 7})
	r.put([]Cell{cell("a", "1", "v1"), cell("b", "1", "v2")}, 5)
	seq, err := r.flush(dfs)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 5 {
		t.Fatalf("flushed seq = %d, want 5", seq)
	}
	if r.memSize() != 0 {
		t.Fatal("flush must clear the memstore")
	}
	// Scan still sees flushed data.
	if got := r.scan(nil, nil, 0, nil); len(got) != 2 {
		t.Fatalf("scan after flush = %d cells", len(got))
	}
	// Reopen from HDFS (what a failover assignment does).
	r2, flushedSeq, err := openRegion(RegionInfo{ID: 7}, dfs)
	if err != nil {
		t.Fatal(err)
	}
	if flushedSeq != 5 {
		t.Fatalf("reopened flushedSeq = %d", flushedSeq)
	}
	got := r2.scan(nil, nil, 0, nil)
	if len(got) != 2 || string(got[0].Value) != "v1" {
		t.Fatalf("reopened scan = %v", got)
	}
}

func TestRegionFlushEmptyIsNoop(t *testing.T) {
	dfs := hdfs.NewCluster()
	r := newRegion(RegionInfo{ID: 1})
	seq, err := r.flush(dfs)
	if err != nil || seq != 0 {
		t.Fatalf("empty flush = %d, %v", seq, err)
	}
}

func TestRegionMultipleFlushesNewestWins(t *testing.T) {
	dfs := hdfs.NewCluster()
	r := newRegion(RegionInfo{ID: 2})
	r.put([]Cell{cell("k", "q", "v1")}, 1)
	if _, err := r.flush(dfs); err != nil {
		t.Fatal(err)
	}
	r.put([]Cell{cell("k", "q", "v2")}, 2)
	if _, err := r.flush(dfs); err != nil {
		t.Fatal(err)
	}
	got := r.scan(nil, nil, 0, nil)
	if len(got) != 1 || string(got[0].Value) != "v2" {
		t.Fatalf("scan = %v, want newest", got)
	}
	// Reopen must also pick the newest.
	r2, _, err := openRegion(RegionInfo{ID: 2}, dfs)
	if err != nil {
		t.Fatal(err)
	}
	got = r2.scan(nil, nil, 0, nil)
	if len(got) != 1 || string(got[0].Value) != "v2" {
		t.Fatalf("reopened scan = %v", got)
	}
}

func TestRegionCompaction(t *testing.T) {
	dfs := hdfs.NewCluster()
	r := newRegion(RegionInfo{ID: 3})
	for i := 0; i < 4; i++ {
		r.put([]Cell{cell("k", "q", fmt.Sprintf("v%d", i)), cell(fmt.Sprintf("k%d", i), "q", "x")}, int64(i+1))
		if _, err := r.flush(dfs); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.files) != 4 {
		t.Fatalf("files = %d, want 4", len(r.files))
	}
	n, err := r.compact(dfs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || len(r.files) != 1 {
		t.Fatalf("compacted %d files into %d", n, len(r.files))
	}
	got := r.scan([]byte("k"), []byte("k\x00"), 0, nil) // just row "k"
	if len(got) != 1 || string(got[0].Value) != "v3" {
		t.Fatalf("post-compaction scan = %v", got)
	}
	// All rows intact.
	if got := r.scan(nil, nil, 0, nil); len(got) != 5 {
		t.Fatalf("post-compaction total = %d, want 5", len(got))
	}
	// Old files removed from HDFS (1 data file + marker remain).
	files := dfs.ListFiles(regionDir(3))
	if len(files) != 2 {
		t.Fatalf("HDFS files after compaction = %v", files)
	}
	// Compacting a single file is a no-op.
	if n, err := r.compact(dfs); err != nil || n != 0 {
		t.Fatalf("re-compaction = %d, %v", n, err)
	}
	// Reopen after compaction.
	r2, _, err := openRegion(RegionInfo{ID: 3}, dfs)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.scan(nil, nil, 0, nil); len(got) != 5 {
		t.Fatalf("reopen after compaction = %d cells", len(got))
	}
}

// TestStoreFileSizeIsBytesHeld: what StoreFileBytes reports is what the
// store files' rows hold. A flush moves the memstore's bytes there as
// they are — dead entries and all, nothing copied; a compaction and a
// reopen leave each key once and the live entries with their index slots.
func TestStoreFileSizeIsBytesHeld(t *testing.T) {
	c := newTestCluster(t, Config{RegionServers: 2, FlushThresholdBytes: -1})
	if err := c.CreateTable(nil); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(ClientConfig{})
	call := func(method string, req func(RegionInfo) any) {
		t.Helper()
		ri := c.Regions()[0]
		if _, err := c.net.Call(context.Background(), rsAddr(ri.Server), method, req(ri)); err != nil {
			t.Fatal(err)
		}
	}
	flush := func() { call("flush", func(ri RegionInfo) any { return &FlushRequest{Region: ri.ID} }) }
	const rows, perRow, perCell = 3, 10, entryHeader + 2 + 8 + 4 // header, qualifier, value, offset
	var batch []Cell
	for i := 0; i < rows*perRow; i++ {
		batch = append(batch, Cell{Row: []byte(fmt.Sprintf("row-%d", i/perRow)), Qual: []byte{0, byte(i % perRow)}, Value: make([]byte, 8)})
	}
	if err := cl.Put(batch); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(batch[:4]); err != nil { // overwrites: four dead entries ride along
		t.Fatal(err)
	}
	hot := c.MemstoreBytes()
	if want := int64(rows*len("row-0") + len(batch)*perCell + 4*(perCell-4)); hot != want || c.StoreFileBytes() != 0 {
		t.Fatalf("before the flush: memstore %d bytes (want %d), store files %d", hot, want, c.StoreFileBytes())
	}
	flush()
	if c.StoreFileBytes() != hot || c.MemstoreBytes() != 0 || c.WALBytes() != 0 {
		t.Fatalf("after the flush: store files %d bytes (the memstore held %d), memstore %d, WAL %d", c.StoreFileBytes(), hot, c.MemstoreBytes(), c.WALBytes())
	}
	if err := cl.Delete(batch[:perRow]); err != nil { // the whole first row
		t.Fatal(err)
	}
	flush()
	call("compact", func(ri RegionInfo) any { return &CompactRequest{Region: ri.ID} })
	live := int64((rows-1)*len("row-0") + (len(batch)-perRow)*perCell)
	if got := c.StoreFileBytes(); got != live {
		t.Fatalf("after compaction: store files %d bytes, want %d", got, live)
	}
	if err := c.KillRegionServer(c.Regions()[0].Server); err != nil {
		t.Fatal(err)
	}
	if got, err := cl.Scan(nil, nil, 0); err != nil || len(got) != len(batch)-perRow { // the kill reassigned
		t.Fatalf("scan after failover = %d cells, %v", len(got), err)
	}
	if got := c.StoreFileBytes(); got != live {
		t.Fatalf("after the reopen: store files %d bytes, want %d", got, live)
	}
}

// TestReopenAllocsFollowRows: opening a region allocates per file, not
// per cell — the rows it serves are the buffer it read.
func TestReopenAllocsFollowRows(t *testing.T) {
	reopen := func(perRow int) float64 {
		dfs := hdfs.NewCluster()
		info := RegionInfo{ID: perRow}
		r := newRegion(info)
		for row := 0; row < 50; row++ {
			for q := 0; q < perRow; q++ {
				r.put([]Cell{cell(fmt.Sprintf("row-%02d", row), fmt.Sprintf("q%03d", q), "value")}, 1)
			}
		}
		if _, err := r.flush(dfs); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			r2, _, err := openRegion(info, dfs)
			if err != nil || fileCells(r2) != 50*perRow {
				t.Fatalf("reopen = %v", err)
			}
		})
	}
	// Half an allocation per row of room: the race detector's jitter of
	// one passes, one allocation per cell (≥ 4,950 more) does not.
	const margin = 25
	if narrow, wide := reopen(1), reopen(100); wide > narrow+margin {
		t.Fatalf("reopen allocated %.0f times for 50 rows of 100 cells, %.0f for 50 rows of one (margin %d)", wide, narrow, margin)
	}
}
