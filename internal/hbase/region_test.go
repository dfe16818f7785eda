package hbase

import (
	"bytes"
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

func TestEncodeDecodeCellsRoundTrip(t *testing.T) {
	f := func(rows [][3][]byte) bool {
		cells := make([]Cell, len(rows))
		for i, r := range rows {
			cells[i] = Cell{Row: r[0], Qual: r[1], Value: r[2]}
		}
		out, err := decodeCells(encodeCells(cells))
		if err != nil {
			return false
		}
		if len(out) != len(cells) {
			return false
		}
		for i := range cells {
			if !bytes.Equal(out[i].Row, cells[i].Row) ||
				!bytes.Equal(out[i].Qual, cells[i].Qual) ||
				!bytes.Equal(out[i].Value, cells[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, err := decodeCells([]byte{1, 2}); err == nil {
		t.Fatal("short input must fail")
	}
	good := encodeCells([]Cell{cell("r", "q", "v")})
	if _, err := decodeCells(append(good, 0xFF)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
	if _, err := decodeCells(good[:len(good)-1]); err == nil {
		t.Fatal("truncated input must fail")
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
	got := r.scan(nil, nil, 0)
	if len(got) != 2 {
		t.Fatalf("scan = %d cells, want 2", len(got))
	}
	if string(got[0].Value) != "new" {
		t.Fatal("memstore must keep the newest version")
	}
	// Range scan.
	got = r.scan([]byte("r2"), nil, 0)
	if len(got) != 1 || string(got[0].Row) != "r2" {
		t.Fatalf("range scan wrong: %v", got)
	}
	// Limit.
	got = r.scan(nil, nil, 1)
	if len(got) != 1 {
		t.Fatal("limit ignored")
	}
}

func TestRegionFlushAndReopen(t *testing.T) {
	dfs := hdfs.NewCluster(3)
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
	if got := r.scan(nil, nil, 0); len(got) != 2 {
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
	got := r2.scan(nil, nil, 0)
	if len(got) != 2 || string(got[0].Value) != "v1" {
		t.Fatalf("reopened scan = %v", got)
	}
}

func TestRegionFlushEmptyIsNoop(t *testing.T) {
	dfs := hdfs.NewCluster(2)
	r := newRegion(RegionInfo{ID: 1})
	seq, err := r.flush(dfs)
	if err != nil || seq != 0 {
		t.Fatalf("empty flush = %d, %v", seq, err)
	}
}

func TestRegionMultipleFlushesNewestWins(t *testing.T) {
	dfs := hdfs.NewCluster(2)
	r := newRegion(RegionInfo{ID: 2})
	r.put([]Cell{cell("k", "q", "v1")}, 1)
	if _, err := r.flush(dfs); err != nil {
		t.Fatal(err)
	}
	r.put([]Cell{cell("k", "q", "v2")}, 2)
	if _, err := r.flush(dfs); err != nil {
		t.Fatal(err)
	}
	got := r.scan(nil, nil, 0)
	if len(got) != 1 || string(got[0].Value) != "v2" {
		t.Fatalf("scan = %v, want newest", got)
	}
	// Reopen must also pick the newest.
	r2, _, err := openRegion(RegionInfo{ID: 2}, dfs)
	if err != nil {
		t.Fatal(err)
	}
	got = r2.scan(nil, nil, 0)
	if len(got) != 1 || string(got[0].Value) != "v2" {
		t.Fatalf("reopened scan = %v", got)
	}
}

func TestRegionCompaction(t *testing.T) {
	dfs := hdfs.NewCluster(2)
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
	got := r.scan([]byte("k"), []byte("k\x00"), 0) // just row "k"
	if len(got) != 1 || string(got[0].Value) != "v3" {
		t.Fatalf("post-compaction scan = %v", got)
	}
	// All rows intact.
	if got := r.scan(nil, nil, 0); len(got) != 5 {
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
	if got := r2.scan(nil, nil, 0); len(got) != 5 {
		t.Fatalf("reopen after compaction = %d cells", len(got))
	}
}
