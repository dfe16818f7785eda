package hbase

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func TestWALStore(t *testing.T) {
	w := newWALStore()
	w.Append("rs-1", 1, 1, []Cell{cell("a", "q", "1")})
	w.Append("rs-1", 2, 2, []Cell{cell("b", "q", "2")})
	w.Append("rs-1", 1, 3, []Cell{cell("c", "q", "3"), cell("d", "q", "4")})
	if got := entries(t, w, "rs-1", 1, 0); len(got) != 2 {
		t.Fatalf("region 1 records = %d", len(got))
	}
	got := entries(t, w, "rs-1", 1, 1)
	if len(got) != 1 || got[0].Seq != 3 || render(got[0].Cells) != "c/q=3 d/q=4" {
		t.Fatalf("afterSeq filter wrong: %v", got)
	}
	w.Truncate("rs-1", 1, 1)
	if got := entries(t, w, "rs-1", 1, 0); len(got) != 1 {
		t.Fatalf("region 1 after truncate = %d records", len(got))
	}
	if got := entries(t, w, "rs-1", 2, 0); len(got) != 1 || render(got[0].Cells) != "b/q=2" {
		t.Fatalf("region 2 after truncating region 1 = %v", got)
	}
	if got := entries(t, w, "rs-2", 1, 0); got != nil {
		t.Fatalf("unknown server holds %v", got)
	}
	w.Drop("rs-1")
	if w.Bytes() != 0 || entries(t, w, "rs-1", 2, 0) != nil {
		t.Fatal("Drop must clear the log")
	}
}

// entries is EntriesFor on a log that must parse.
func entries(t *testing.T, w *walStore, server string, region int, afterSeq int64) []walRecord {
	t.Helper()
	recs, err := w.EntriesFor(server, region, afterSeq)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// renderTombs is render with delete markers told apart.
func renderTombs(cells []Cell) string {
	var b bytes.Buffer
	for _, c := range cells {
		fmt.Fprintf(&b, "%s/%s=%s tomb=%v; ", c.Row, c.Qual, c.Value, c.Tomb)
	}
	return b.String()
}

// heldWAL is what a server's log pins in memory: the chunks' capacity.
func heldWAL(w *walStore, server string) (chunks, capacity int) {
	l := w.log(server, false)
	if l == nil {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, chunk := range l.chunks {
		capacity += cap(chunk)
	}
	return len(l.chunks), capacity
}

// TestWALTruncateReleasesBytes: truncating a flushed region gives its
// bytes back. The slice-backed log filtered in place and kept both its
// backing array and the dropped entries' cell bytes reachable.
func TestWALTruncateReleasesBytes(t *testing.T) {
	w := newWALStore()
	const records = 4000
	value := bytes.Repeat([]byte{'v'}, 200)
	want := map[int][]string{}
	regionBytes := map[int]int{}
	for seq := int64(1); seq <= records; seq++ {
		region := 1 + int(seq%2)
		batch := []Cell{
			{Row: []byte(fmt.Sprintf("row-%05d", seq)), Qual: []byte("q"), Value: value},
			{Row: []byte(fmt.Sprintf("row-%05d", seq)), Qual: []byte("gone"), Tomb: true},
		}
		w.Append("rs-1", region, seq, batch)
		want[region] = append(want[region], renderTombs(batch))
		regionBytes[region] += walRecordSize(batch)
	}
	chunks, held := heldWAL(w, "rs-1")
	if chunks < 3 || w.Bytes() != regionBytes[1]+regionBytes[2] {
		t.Fatalf("log = %d chunks, %d bytes; want several chunks and %d bytes", chunks, w.Bytes(), regionBytes[1]+regionBytes[2])
	}
	survivors := func(stage string, region int, afterSeq int64, want []string) {
		t.Helper()
		got := entries(t, w, "rs-1", region, 0)
		if len(got) != len(want) {
			t.Fatalf("%s: region %d holds %d records, want %d", stage, region, len(got), len(want))
		}
		for i, rec := range got {
			if rec.Seq <= afterSeq || renderTombs(rec.Cells) != want[i] {
				t.Fatalf("%s: region %d record %d = seq %d %q, want %q", stage, region, i, rec.Seq, renderTombs(rec.Cells), want[i])
			}
		}
	}

	w.Truncate("rs-1", 1, records) // region 1 flushed everything it logged
	if got := w.Bytes(); got != regionBytes[2] {
		t.Fatalf("after truncating region 1 the log holds %d bytes, want region 2's %d", got, regionBytes[2])
	}
	if _, after := heldWAL(w, "rs-1"); after > held*6/10 {
		t.Fatalf("truncating half the log left %d of %d bytes pinned", after, held)
	}
	survivors("region 1 truncated", 1, 0, nil)
	survivors("region 1 truncated", 2, 0, want[2])

	// A partial cut: only the records past it stay.
	w.Truncate("rs-1", 2, records/2)
	survivors("region 2 cut halfway", 2, records/2, want[2][records/4:])

	// The log keeps taking appends after chunks were dropped and rewritten.
	w.Append("rs-1", 1, records+1, []Cell{cell("late", "q", "x")})
	survivors("appended after truncate", 1, records, []string{renderTombs([]Cell{cell("late", "q", "x")})})

	w.Truncate("rs-1", 2, records)
	w.Truncate("rs-1", 1, records+1)
	if chunks, held := heldWAL(w, "rs-1"); chunks != 0 || held != 0 || w.Bytes() != 0 {
		t.Fatalf("fully flushed log still holds %d chunks, %d bytes", chunks, held)
	}
}

// TestWALRecordRoundTrip: whatever batch a put RPC may carry comes back
// from the log cell for cell — empty qualifiers and values, delete
// markers, many cells under one sequence, fields at the header limits —
// and in its own bytes, not the log's.
func TestWALRecordRoundTrip(t *testing.T) {
	tomb := func(c Cell) Cell { c.Tomb, c.Value = true, nil; return c }
	batches := [][]Cell{
		{cell("r", "", "")},
		{cell("r", "q", "")},
		{cell("r", "", "v")},
		{tomb(cell("r", "q", "")), tomb(cell("r", "", ""))},
		{cell("a", "1", "x"), tomb(cell("a", "2", "")), cell("b", "1", "y"), cell("", "", "")},
		{
			{Row: make([]byte, maxRowLen), Qual: make([]byte, maxQualLen), Value: make([]byte, maxValueLen)},
			cell("after", "the", "giant"),
		},
	}
	rng := rand.New(rand.NewSource(7))
	field := func(max int) []byte {
		b := make([]byte, rng.Intn(max))
		rng.Read(b)
		return b
	}
	for i := 0; i < 200; i++ {
		batch := make([]Cell, 1+rng.Intn(40))
		for j := range batch {
			batch[j] = Cell{Row: field(40), Qual: field(6), Value: field(300), Tomb: rng.Intn(4) == 0}
		}
		batches = append(batches, batch)
	}
	w := newWALStore()
	for i, batch := range batches {
		for _, c := range batch {
			if err := checkCellLens(c); err != nil {
				t.Fatal(err)
			}
		}
		w.Append("rs", i%3, int64(i+1), batch)
	}
	for region := 0; region < 3; region++ {
		recs := entries(t, w, "rs", region, 0)
		for k, rec := range recs {
			i := region + 3*k
			if rec.Seq != int64(i+1) || len(rec.Cells) != len(batches[i]) {
				t.Fatalf("batch %d: read back seq %d with %d cells, want seq %d with %d", i, rec.Seq, len(rec.Cells), i+1, len(batches[i]))
			}
			for j, got := range rec.Cells {
				want := batches[i][j]
				if !bytes.Equal(got.Row, want.Row) || !bytes.Equal(got.Qual, want.Qual) || !bytes.Equal(got.Value, want.Value) || got.Tomb != want.Tomb {
					t.Fatalf("batch %d cell %d: read back %d/%d/%d bytes tomb=%v, want %d/%d/%d tomb=%v", i, j,
						len(got.Row), len(got.Qual), len(got.Value), got.Tomb, len(want.Row), len(want.Qual), len(want.Value), want.Tomb)
				}
			}
		}
		if want := (len(batches) - region + 2) / 3; len(recs) != want {
			t.Fatalf("region %d: %d records, want %d", region, len(recs), want)
		}
	}
	// Decoded cells are the caller's: scribbling on them leaves the log
	// as it was.
	recs := entries(t, w, "rs", 1, 0)
	want := renderTombs(recs[0].Cells)
	for _, c := range recs[0].Cells {
		for _, f := range [][]byte{c.Row, c.Qual, c.Value} {
			for i := range f {
				f[i] ^= 0xFF
			}
		}
	}
	if got := renderTombs(entries(t, w, "rs", 1, 0)[0].Cells); got != want {
		t.Fatalf("the log changed under a decoded record: %q, was %q", got, want)
	}
}

// TestReplayRefusesCorruptLog: a log whose last record was cut short —
// the crash-replay path used to index past it and panic — fails
// EntriesFor with errCorrupt, Truncate leaves it for the next look, and
// the master's reassignment reports the error instead of opening the
// region on part of its log.
func TestReplayRefusesCorruptLog(t *testing.T) {
	c := newTestCluster(t, Config{RegionServers: 2})
	if err := c.CreateTable(nil); err != nil {
		t.Fatal(err)
	}
	if err := c.NewClient(ClientConfig{}).Put([]Cell{cell("a", "q", "1"), cell("b", "q", "2")}); err != nil {
		t.Fatal(err)
	}
	m, err := c.ActiveMaster()
	if err != nil {
		t.Fatal(err)
	}
	ri := m.Regions()[0]
	l := c.wal.log(ri.Server, false)
	whole := l.chunks[0]
	for _, cut := range []int{1, 4, walRecordHeader + 3, len(whole) - 3} {
		l.chunks[0] = whole[:len(whole)-cut]
		if recs, err := c.wal.EntriesFor(ri.Server, ri.ID, 0); !errors.Is(err, errCorrupt) {
			t.Fatalf("log cut by %d bytes replays as %v, %v", cut, recs, err)
		}
		c.wal.Truncate(ri.Server, ri.ID, 1<<40)
		if got := c.wal.Bytes(); got != len(whole)-cut {
			t.Fatalf("truncating the log cut by %d bytes left %d of its %d", cut, got, len(whole)-cut)
		}
		if err := m.assignRegion(&ri, m.liveServers(), ri.Server); !errors.Is(err, errCorrupt) {
			t.Fatalf("reassigning over the log cut by %d bytes = %v", cut, err)
		}
	}
}
