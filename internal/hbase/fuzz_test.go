package hbase

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// fuzzSeedCells is a batch with everything the packed layouts must carry:
// rows of several cells, a delete marker, empty qualifier and value.
func fuzzSeedCells() []Cell {
	tomb := cell("row-a", "q2", "")
	tomb.Tomb = true
	return []Cell{cell("row-a", "", "v0"), cell("row-a", "q1", ""), tomb, cell("row-b", "q", "value"), cell("row-c", "q", "v")}
}

// neighbour lays data out as a decoder meets it in a reused or shared
// buffer: followed, within the slice's capacity, by bytes that are not
// its own. A decoder that trusts a length past len(data) reads them.
const neighbour = "NEIGHBOUR"

func withNeighbour(data []byte) []byte {
	buf := append(bytes.Clone(data), bytes.Repeat([]byte(neighbour), 64)...)
	return buf[:len(data)]
}

// leaked reports whether a decoded cell holds neighbouring bytes that
// the input itself did not contain.
func leaked(data []byte, cells []Cell) bool {
	if bytes.Contains(data, []byte(neighbour)) {
		return false
	}
	for _, c := range cells {
		for _, f := range [][]byte{c.Row, c.Qual, c.Value} {
			if bytes.Contains(f[:cap(f)], []byte(neighbour)) {
				return true
			}
		}
	}
	return false
}

// FuzzStoreFile feeds the store-file decoder arbitrary bytes — the seeds
// are well-formed files, the mutations truncate them, flip bits and lie
// about lengths. Whatever arrives: errCorrupt or rows, never a panic; no
// row reaches past the file into the buffer it sits in; and a file that
// opens encodes again to the bytes it came from and can be scanned —
// every cell in bounds, whatever order a mutation left the rows in.
func FuzzStoreFile(f *testing.F) {
	m := newMemstore()
	for _, c := range fuzzSeedCells() {
		m.set(m.row(c.Row, true), c)
	}
	good := encodeRows(m.rows)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(encodeRows(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := decodeRows(withNeighbour(data))
		if err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("decode error is not errCorrupt: %v", err)
			}
			return
		}
		cells := flatten(rows)
		if leaked(data, cells) {
			t.Fatalf("decoded a neighbour's bytes: %q", render(cells))
		}
		if again := encodeRows(rows); !bytes.Equal(again, data) {
			t.Fatalf("file re-encodes to %x, was %x", again, data)
		}
		r := newRegion(RegionInfo{ID: 1})
		r.files = []storeFile{{rows: rows}}
		if got := r.scan(nil, nil, 0, nil); len(got) > len(cells) || leaked(data, got) {
			t.Fatalf("scan = %q, file holds %q", render(got), render(cells))
		}
	})
}

// FuzzWALRecord feeds the crash-replay path a log chunk of arbitrary
// bytes — seeds are chunks of well-formed records. Whatever the chunk:
// EntriesFor returns errCorrupt or records, Truncate leaves a log
// EntriesFor can still walk, neither panics; no cell reaches past its
// record's chunk; a record that decodes encodes again to its own bytes;
// and truncating at a sequence leaves exactly the later records.
func FuzzWALRecord(f *testing.F) {
	cells := fuzzSeedCells()
	good := appendWALRecord(nil, 1, 1, cells[:3])
	good = appendWALRecord(good, 2, 2, cells[3:4])
	good = appendWALRecord(good, 1, 3, cells[3:])
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(appendWALRecord(nil, 1, 1, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		region := 1
		if len(data) >= walRecordHeader {
			region = int(binary.LittleEndian.Uint32(data[4:])) // the first record's
		}
		w := newWALStore()
		w.log("rs", true).chunks = [][]byte{withNeighbour(data)}
		recs, err := w.EntriesFor("rs", region, 0)
		if err != nil && !errors.Is(err, errCorrupt) {
			t.Fatalf("replay error is not errCorrupt: %v", err)
		}
		var later []walRecord
		cut := int64(0)
		if len(recs) > 0 {
			cut = recs[len(recs)/2].Seq
		}
		for rest := data; err == nil && len(rest) > 0; {
			rec, reg, seq, _ := walRecordAt(rest)
			if rest = rest[len(rec):]; reg != region || seq <= 0 {
				continue
			}
			if leaked(data, recs[0].Cells) {
				t.Fatalf("record %d decoded a neighbour's bytes: %q", seq, render(recs[0].Cells))
			}
			if again := appendWALRecord(nil, reg, seq, recs[0].Cells); recs[0].Seq != seq || !bytes.Equal(again, rec) {
				t.Fatalf("record %d re-encodes as %d, %x; was %x", seq, recs[0].Seq, again, rec)
			}
			if seq > cut {
				later = append(later, recs[0])
			}
			recs = recs[1:]
		}
		w.Truncate("rs", region, cut)
		if w.Bytes() > len(data) {
			t.Fatalf("truncating grew the log: %d bytes from %d", w.Bytes(), len(data))
		}
		kept, terr := w.EntriesFor("rs", region, 0)
		if (terr == nil) != (err == nil) || len(kept) != len(later) {
			t.Fatalf("after truncating at %d: %d records, %v; want %d, %v", cut, len(kept), terr, len(later), err)
		}
		for i := range kept {
			if kept[i].Seq != later[i].Seq || renderTombs(kept[i].Cells) != renderTombs(later[i].Cells) {
				t.Fatalf("after truncating at %d: record %d = seq %d %q, want seq %d %q",
					cut, i, kept[i].Seq, renderTombs(kept[i].Cells), later[i].Seq, renderTombs(later[i].Cells))
			}
		}
	})
}
