package hbase

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/hdfs"
)

// failWrites makes every HDFS write fail, or, with on false, succeed
// again: with it on, a store-file write fails.
func failWrites(dfs *hdfs.Cluster, on bool) {
	if !on {
		dfs.SetFaults(nil)
		return
	}
	inj := faultinject.New(1)
	inj.Set("hdfs-down", faultinject.Rule{Op: "hdfs/write/", ErrorRate: 1})
	dfs.SetFaults(inj)
}

// TestFlushKeepsConcurrentWrites is the regression test for the flush
// race: cells put while a store file is being written used to vanish
// when the flush swapped in an empty memstore afterwards. Writers put
// while flushes run — one of them failing at the HDFS write — and every
// put must be readable afterwards, from memory and from a reopen.
func TestFlushKeepsConcurrentWrites(t *testing.T) {
	dfs := hdfs.NewCluster()
	r := newRegion(RegionInfo{ID: 11})
	const writers, perWriter = 4, 400
	var seq atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Each slot is written twice; the later value must win
				// whichever side of a flush each write lands on.
				for _, v := range []string{"old", "new"} {
					r.seqMu.Lock() // as handlePut does: sequence order is apply order
					r.put([]Cell{cell(fmt.Sprintf("w%d-%03d", w, i/10), fmt.Sprintf("q%d", i%10), v)}, seq.Add(1))
					r.seqMu.Unlock()
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for flushes, running := 0, true; running; flushes++ {
		select {
		case <-done:
			running = false
		default:
		}
		if flushes == 3 { // this one's store-file write fails
			failWrites(dfs, true)
			if _, err := r.flush(dfs); err != nil && !errors.Is(err, faultinject.ErrInjected) {
				t.Fatal(err)
			}
			failWrites(dfs, false)
			continue
		}
		if _, err := r.flush(dfs); err != nil {
			t.Fatal(err)
		}
	}
	check := func(name string, got []Cell) {
		t.Helper()
		if len(got) != writers*perWriter {
			t.Fatalf("%s: %d cells readable, want %d", name, len(got), writers*perWriter)
		}
		for _, c := range got {
			if string(c.Value) != "new" {
				t.Fatalf("%s: slot %s/%s reads %q, want the later write", name, c.Row, c.Qual, c.Value)
			}
		}
	}
	check("after flushes", r.scan(nil, nil, 0, nil))
	if r.snap != nil {
		t.Fatal("flush snapshot still registered with no flush in flight")
	}
	if _, err := r.flush(dfs); err != nil {
		t.Fatal(err)
	}
	r2, _, err := openRegion(RegionInfo{ID: 11}, dfs)
	if err != nil {
		t.Fatal(err)
	}
	check("reopened", r2.scan(nil, nil, 0, nil))
}

// TestFailedFlushFoldsSnapshotBack walks a flush whose HDFS write
// fails: a reader sees snapshot and later writes merged while it is in
// flight, the snapshot returns under those writes (deletes included),
// and the next flush persists both.
func TestFailedFlushFoldsSnapshotBack(t *testing.T) {
	dfs := hdfs.NewCluster()
	r := newRegion(RegionInfo{ID: 12})
	r.put([]Cell{cell("a", "1", "snap"), cell("a", "2", "snap"), cell("b", "1", "snap")}, 1)
	snap, seq := r.snapshot()
	if snap == nil || seq != 1 {
		t.Fatalf("snapshot = %v, seq %d", snap, seq)
	}
	tomb := cell("a", "2", "")
	tomb.Tomb = true
	r.put([]Cell{cell("a", "1", "later"), tomb, cell("c", "1", "later")}, 2)
	want := "a/1=later b/1=snap c/1=later"
	if got := render(r.scan(nil, nil, 0, nil)); got != want {
		t.Fatalf("scan during flush = %q, want %q", got, want)
	}
	r.restore(snap)
	if got := render(r.scan(nil, nil, 0, nil)); got != want || r.snap != nil {
		t.Fatalf("scan after abandoned flush = %q (snapshot still set: %v), want %q", got, r.snap != nil, want)
	}
	failWrites(dfs, true)
	if _, err := r.flush(dfs); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("flush with HDFS writes failing = %v", err)
	}
	failWrites(dfs, false)
	if got := render(r.scan(nil, nil, 0, nil)); got != want {
		t.Fatalf("scan after failed flush = %q, want %q", got, want)
	}
	if seq, err := r.flush(dfs); err != nil || seq != 2 {
		t.Fatalf("flush after recovery = %d, %v", seq, err)
	}
	r2, _, err := openRegion(RegionInfo{ID: 12}, dfs)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(r2.scan(nil, nil, 0, nil)); got != want {
		t.Fatalf("reopened = %q, want %q", got, want)
	}
}

// TestFlushUnderLoadSurvivesCrash drives the same race through the
// region servers: threshold and explicit flushes run under two writers
// per region, then a server dies and the only copy of its unflushed
// tail is the WAL. Every acked cell must be readable before the crash,
// and after it — which holds only if each flush truncated the WAL no
// further than the sequence of the snapshot it persisted.
func TestFlushUnderLoadSurvivesCrash(t *testing.T) {
	c := newTestCluster(t, Config{RegionServers: 2, FlushThresholdBytes: 2048})
	if err := c.CreateTable(byteSplits(4)); err != nil {
		t.Fatal(err)
	}
	regions := c.Regions()
	const writers, perWriter = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := c.NewClient(ClientConfig{})
			for i := 0; i < perWriter; i++ {
				row := []byte{byte(w * 32), byte(i / 20)} // two writers to each of the four regions
				if err := cl.Put([]Cell{{Row: row, Qual: []byte{byte(i % 20)}, Value: []byte("0123456789abcdef")}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		for _, ri := range regions {
			if _, err := c.net.Call(context.Background(), rsAddr(ri.Server), "flush", &FlushRequest{Region: ri.ID}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cl := c.NewClient(ClientConfig{})
	for _, stage := range []string{"before crash", "after crash"} {
		got, err := cl.Scan(nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != writers*perWriter {
			t.Fatalf("%s: %d cells readable, want %d", stage, len(got), writers*perWriter)
		}
		if stage == "before crash" {
			if err := c.KillRegionServer(regions[0].Server); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// render prints cells as "row/qual=value …" for comparisons.
func render(cells []Cell) string {
	var b bytes.Buffer
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s/%s=%s", c.Row, c.Qual, c.Value)
	}
	return b.String()
}

// modelSchedule weights the steps of one TestRegionMatchesModel run:
// of 20, put steps put or delete a batch, flush, failFlush and compact
// do that, and the rest reopen the region from store files and WAL.
type modelSchedule struct {
	name                           string
	put, flush, failFlush, compact int
	tombOneIn                      int  // a put cell is a delete one time in this many
	wantRepack                     bool // the run must repack a row under a held scan result
	// oneRow puts each batch — up to 8 cells, every other one in
	// qualifier order — on one row, so deletes of a row arrive in runs,
	// between puts and re-puts of the same slots.
	oneRow bool
}

var modelSchedules = []modelSchedule{
	{name: "", put: 11, flush: 3, failFlush: 1, compact: 2, tombOneIn: 3},
	// Long stretches between flushes over 40 slots: nearly every put
	// lands on a slot the memstore already holds.
	{name: "overwrite/", put: 18, flush: 0, failFlush: 1, compact: 0, tombOneIn: 12, wantRepack: true},
	{name: "delete/", put: 17, flush: 1, failFlush: 0, compact: 1, tombOneIn: 2, wantRepack: true},
	// A flush or a compaction every other step, half the cells deletes:
	// snapshots handed over as store files with delete markers in them,
	// compaction's row builder and the file codec, all under the reopen.
	{name: "handover/", put: 9, flush: 5, failFlush: 1, compact: 3, tombOneIn: 2},
	// No store file ever, so every delete clears its slot in place: runs
	// of in-order deletes of one row, mixed with puts to the same row.
	{name: "onerow/", put: 18, flush: 0, failFlush: 1, compact: 0, tombOneIn: 2, oneRow: true},
}

// TestRegionMatchesModel runs seeded random schedules of put /
// overwrite / delete / flush / failed flush / compact / reopen against
// a naive reference map. After every step, scans over random ranges and
// limits must equal the reference: sorted by (Row, Qual), no delete
// marker returned, no deleted cell resurrected — and every scan result
// still held from an earlier step must read byte for byte as it did
// when it was returned, whatever the store repacked or flushed since.
func TestRegionMatchesModel(t *testing.T) {
	for _, sched := range modelSchedules {
		for seed := int64(1); seed <= 40; seed++ {
			t.Run(fmt.Sprintf("%sseed=%d", sched.name, seed), func(t *testing.T) { runRegionModel(t, sched, seed, 250) })
		}
	}
}

func runRegionModel(t *testing.T, sched modelSchedule, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	// Keys that are prefixes of one another, and empty qualifiers, are
	// where an ordering or slot-identity bug would show.
	rows := []string{"a", "a\x00", "ab", "abc", "b", "b\xff", "c", "d"}
	quals := []string{"", "0", "1", "10", "2"}
	bounds := append([]string{"", "a\x00\x00", "bb", "e"}, rows...)
	info := RegionInfo{ID: int(seed)}
	dfs := hdfs.NewCluster()
	r := newRegion(info)
	ref := make(map[[2]string]string)
	wal := newWALStore()                       // what the server's log holds past the last flush
	type heldScan struct{ cells, want []Cell } // a scan result and a deep copy taken when it was returned
	var held []heldScan
	repacks := 0
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: %s\nrepro: go test ./internal/hbase -run 'TestRegionMatchesModel/%sseed=%d$'",
			seed, step, fmt.Sprintf(format, args...), sched.name, seed)
	}
	for step := 1; step <= steps; step++ {
		seq := int64(step)
		arenas := make(map[*memRow]int, len(r.mem.rows))
		for _, row := range r.mem.rows {
			arenas[row] = len(row.arena)
		}
		switch op := rng.Intn(20); {
		case op < sched.put: // put or delete a small batch
			batch := make([]Cell, 1+rng.Intn(4))
			var row string
			var picks []int // oneRow's qualifiers, by index
			if sched.oneRow {
				batch, row, picks = make([]Cell, 1+rng.Intn(8)), rows[rng.Intn(len(rows))], make([]int, 0, 8)
				for range batch {
					picks = append(picks, rng.Intn(len(quals)))
				}
				if rng.Intn(2) == 0 {
					sort.Ints(picks)
				}
			}
			for i := range batch {
				var c Cell
				if sched.oneRow {
					c = cell(row, quals[picks[i]], fmt.Sprintf("v%d.%d", step, i))
				} else {
					c = cell(rows[rng.Intn(len(rows))], quals[rng.Intn(len(quals))], fmt.Sprintf("v%d.%d", step, i))
				}
				if rng.Intn(sched.tombOneIn) == 0 {
					c.Tomb, c.Value = true, nil
					delete(ref, [2]string{string(c.Row), string(c.Qual)})
				} else {
					ref[[2]string{string(c.Row), string(c.Qual)}] = string(c.Value)
				}
				batch[i] = c
			}
			wal.Append("rs", info.ID, seq, batch)
			r.put(batch, seq)
		case op < sched.put+sched.flush:
			flushed, err := r.flush(dfs)
			if err != nil {
				fail(step, "flush: %v", err)
			}
			if flushed > 0 {
				wal.Truncate("rs", info.ID, flushed)
			}
		case op < sched.put+sched.flush+sched.failFlush:
			failWrites(dfs, true)
			if _, err := r.flush(dfs); err == nil && len(r.mem.rows) > 0 {
				fail(step, "flush with HDFS writes failing succeeded")
			}
			failWrites(dfs, false)
		case op < sched.put+sched.flush+sched.failFlush+sched.compact:
			if _, err := r.compact(dfs); err != nil {
				fail(step, "compact: %v", err)
			}
		default: // crash and reassignment: store files plus WAL replay
			r2, flushedSeq, err := openRegion(info, dfs)
			if err != nil {
				fail(step, "reopen: %v", err)
			}
			for _, rec := range entries(t, wal, "rs", info.ID, flushedSeq) {
				r2.put(rec.Cells, rec.Seq)
			}
			r = r2
		}
		rowBytes := 0
		for _, row := range r.mem.rows {
			rowBytes += row.size()
		}
		if r.mem.size != rowBytes || len(r.mem.index) != len(r.mem.rows) {
			fail(step, "memstore size %d with %d indexed rows; its %d rows hold %d bytes", r.mem.size, len(r.mem.index), len(r.mem.rows), rowBytes)
		}
		if len(held) > 0 {
			for _, row := range r.mem.rows { // an arena only ever shrinks by a repack
				if before, ok := arenas[row]; ok && len(row.arena) < before {
					repacks++
				}
			}
		}
		for _, h := range held {
			for i, c := range h.cells {
				if w := h.want[i]; !bytes.Equal(c.Row, w.Row) || !bytes.Equal(c.Qual, w.Qual) || !bytes.Equal(c.Value, w.Value) {
					fail(step, "a held scan result changed\n now %q\nheld %q", render(h.cells), render(h.want))
				}
			}
		}
		for probe := 0; probe < 4; probe++ {
			start, end, limit := bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))], 0
			if probe == 0 {
				start, end = "", ""
			}
			if rng.Intn(3) == 0 {
				limit = 1 + rng.Intn(6)
			}
			cells := r.scan([]byte(start), []byte(end), limit, nil)
			got := render(cells)
			if want := render(modelScan(ref, start, end, limit)); got != want {
				fail(step, "scan(%q, %q, %d)\n got %q\nwant %q", start, end, limit, got, want)
			}
			if probe == 0 && step%8 == 0 {
				want := make([]Cell, len(cells))
				for i, c := range cells {
					want[i] = Cell{Row: bytes.Clone(c.Row), Qual: bytes.Clone(c.Qual), Value: bytes.Clone(c.Value)}
				}
				held = append(held, heldScan{cells, want})
			}
		}
	}
	if sched.wantRepack && repacks == 0 {
		t.Fatalf("seed %d: schedule %q never repacked a row while a scan result was held", seed, sched.name)
	}
}

// modelScan is the reference scan: filter, sort, truncate.
func modelScan(ref map[[2]string]string, start, end string, limit int) []Cell {
	var out []Cell
	for k, v := range ref {
		if inRange([]byte(k[0]), []byte(start), []byte(end)) {
			out = append(out, cell(k[0], k[1], v))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// TestFailoverFlushKeepsAckedCells: a region flushes on one server,
// fails over to a server whose WAL sequence is far below that flush,
// takes more writes, flushes and fails over again. The second flush
// must get its own store file and cut the second server's WAL only up
// to its own snapshot — every acked cell stays readable, store-file
// paths stay unique.
func TestFailoverFlushKeepsAckedCells(t *testing.T) {
	const repro = "repro: go test ./internal/hbase -run TestFailoverFlushKeepsAckedCells"
	c := newTestCluster(t, Config{RegionServers: 3})
	if err := c.CreateTable(nil); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(ClientConfig{})
	acked := 0
	put := func(n int) {
		for i := 0; i < n; i++ {
			if err := cl.Put([]Cell{{Row: []byte(fmt.Sprintf("row-%04d", acked)), Qual: []byte("q"), Value: []byte("v")}}); err != nil {
				t.Fatal(err)
			}
			acked++
		}
	}
	flush := func() {
		ri := c.Regions()[0]
		if _, err := c.net.Call(context.Background(), rsAddr(ri.Server), "flush", &FlushRequest{Region: ri.ID}); err != nil {
			t.Fatalf("flush on %s: %v (%s)", ri.Server, err, repro)
		}
	}
	failover := func(stage string) {
		if err := c.KillRegionServer(c.Regions()[0].Server); err != nil {
			t.Fatal(err)
		}
		got, err := cl.Scan(nil, nil, 0) // the kill reassigned; the scan refreshes its map
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != acked {
			t.Fatalf("%s: %d of %d acked cells readable (%s)", stage, len(got), acked, repro)
		}
	}
	put(40) // the first server's sequence reaches 40
	flush()
	failover("after first failover")
	put(10) // the new server draws its sequences from (near) zero
	flush()
	put(10) // logged after the second flush's snapshot: only the WAL has them
	failover("after second failover")

	var marker flushMarker
	data, err := c.dfs.ReadFile(regionDir(c.Regions()[0].ID) + "marker")
	if err != nil || json.Unmarshal(data, &marker) != nil {
		t.Fatalf("read flush marker: %v", err)
	}
	seen := make(map[string]bool)
	for _, path := range marker.Files {
		if seen[path] {
			t.Fatalf("store file %s listed twice in %v (%s)", path, marker.Files, repro)
		}
		seen[path] = true
	}
	if len(marker.Files) != 2 {
		t.Fatalf("store files = %v, want one per flush (%s)", marker.Files, repro)
	}
}

// TestRowEntryRoundTrip: whatever is set into a packed row reads back
// slot for slot in qualifier order — empty qualifiers and values, delete
// markers, overwrites (so repacks), fields at the header limits — and
// the memstore's size is the bytes its rows hold.
func TestRowEntryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 60; round++ {
		m := newMemstore()
		row := m.row([]byte(fmt.Sprintf("row-%d", round)), true)
		type slot struct {
			value []byte
			tomb  bool
		}
		ref := map[string]slot{}
		set := func(c Cell) {
			if err := checkCellLens(c); err != nil {
				t.Fatal(err)
			}
			m.set(row, c)
			ref[string(c.Qual)] = slot{bytes.Clone(c.Value), c.Tomb}
		}
		if round == 0 { // the header's limits, beside the smallest entries
			set(Cell{Qual: make([]byte, maxQualLen), Value: make([]byte, maxValueLen)})
			set(Cell{})
			set(Cell{Qual: []byte{0}, Tomb: true})
		}
		for i, n := 0, rng.Intn(120); i < n; i++ {
			c := Cell{Qual: make([]byte, rng.Intn(3)), Value: make([]byte, rng.Intn(20)), Tomb: rng.Intn(5) == 0}
			rng.Read(c.Qual)
			rng.Read(c.Value)
			set(c)
		}
		quals := make([]string, 0, len(ref))
		for q := range ref {
			quals = append(quals, q)
		}
		sort.Strings(quals)
		if len(row.offs) != len(quals) {
			t.Fatalf("round %d: row holds %d slots, want %d", round, len(row.offs), len(quals))
		}
		for i, off := range row.offs {
			got, want := row.cell(off), ref[quals[i]]
			if string(got.Qual) != quals[i] || !bytes.Equal(got.Value, want.value) || got.Tomb != want.tomb || !bytes.Equal(got.Row, row.key) {
				t.Fatalf("round %d slot %d: read back %x=%x tomb=%v, want %x=%x tomb=%v", round, i, got.Qual, got.Value, got.Tomb, quals[i], want.value, want.tomb)
			}
			if cap(got.Qual) != len(got.Qual) || cap(got.Value) != len(got.Value) {
				t.Fatalf("round %d slot %d: a decoded field can be appended into its neighbour", round, i)
			}
		}
		if row.dead > len(row.arena)/2 {
			t.Fatalf("round %d: %d of %d arena bytes dead, past the repack threshold", round, row.dead, len(row.arena))
		}
		if want := len(row.key) + len(row.arena) + 4*len(row.offs); m.size != want {
			t.Fatalf("round %d: memstore size %d, its row holds %d bytes", round, m.size, want)
		}
	}
}

// TestMemstoreSizeIsBytesHeld: the size the flush threshold is compared
// with counts a row key once, every entry with its header and index
// slot, and superseded entries until their row repacks — and returns to
// zero when deletes empty the memstore.
func TestMemstoreSizeIsBytesHeld(t *testing.T) {
	r := newRegion(RegionInfo{ID: 1})
	const perCell = entryHeader + 2 + 8 + 4 // header, qualifier, value, offset
	var batch []Cell
	for i := 0; i < 10; i++ {
		batch = append(batch, Cell{Row: []byte("a-long-row-key"), Qual: []byte{0, byte(i)}, Value: make([]byte, 8)})
	}
	r.put(batch, 1)
	if got, want := r.memSize(), len("a-long-row-key")+10*perCell; got != want {
		t.Fatalf("10 cells of one row: size %d, want %d", got, want)
	}
	r.put(batch[:3], 2) // overwrites: three dead entries stay in the arena
	if got, want := r.memSize(), len("a-long-row-key")+10*perCell+3*(perCell-4); got != want {
		t.Fatalf("after 3 overwrites: size %d, want %d", got, want)
	}
	for i := range batch {
		batch[i].Tomb, batch[i].Value = true, nil
	}
	r.put(batch[:9], 3) // the arena is now mostly dead: repacked down to one entry
	if got, want := r.memSize(), len("a-long-row-key")+perCell; got != want {
		t.Fatalf("after deleting 9 of 10: size %d, want %d", got, want)
	}
	r.put(batch, 4)
	if r.memSize() != 0 || len(r.mem.rows) != 0 || len(r.mem.index) != 0 {
		t.Fatalf("after deleting every cell: size %d, %d rows", r.memSize(), len(r.mem.rows))
	}
}
