package hbase

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
)

// A row entry is one cell version packed into its row's arena:
//
//	flags u8 | qual-len u16 | value-len u24 | qual | value
//
// little-endian, with the row key held once by the memRow. The header is
// fixed-width so a scan decodes an entry with loads at known offsets. A
// store file is rows of these entries (cell.go); a WAL record prefixes
// each with its row key (wal.go).
const (
	entryHeader = 6
	entryTomb   = 1 << 0 // flags: the entry is a delete marker

	// maxRowLen is what the u16 in front of a row key can express, in a
	// WAL record and in a store file; handlePut checks all three limits.
	maxRowLen   = 1<<16 - 1
	maxQualLen  = 1<<16 - 1
	maxValueLen = 1<<24 - 1
)

// checkCellLens rejects a cell whose fields the packed headers cannot
// express.
func checkCellLens(c Cell) error {
	switch {
	case len(c.Row) > maxRowLen:
		return fmt.Errorf("row key of %d bytes exceeds %d", len(c.Row), maxRowLen)
	case len(c.Qual) > maxQualLen:
		return fmt.Errorf("qualifier of %d bytes exceeds %d", len(c.Qual), maxQualLen)
	case len(c.Value) > maxValueLen:
		return fmt.Errorf("value of %d bytes exceeds %d", len(c.Value), maxValueLen)
	}
	return nil
}

func entrySize(c Cell) int { return entryHeader + len(c.Qual) + len(c.Value) }

// appendEntry packs c (minus its row key) onto dst.
func appendEntry(dst []byte, c Cell) []byte {
	var flags byte
	if c.Tomb {
		flags = entryTomb
	}
	ql, vl := len(c.Qual), len(c.Value)
	dst = append(dst, flags, byte(ql), byte(ql>>8), byte(vl), byte(vl>>8), byte(vl>>16))
	dst = append(dst, c.Qual...)
	return append(dst, c.Value...)
}

// entryLens reads the qualifier and value lengths from the header of
// the entry at the front of e.
func entryLens(e []byte) (ql, vl int) {
	return int(e[1]) | int(e[2])<<8, int(e[3]) | int(e[4])<<8 | int(e[5])<<16
}

// entryAt returns the bytes the entry at b[at:] occupies; false when b
// is too short to hold it or its flags are none appendEntry writes: what
// a decoder of a store file or a WAL record steps by.
func entryAt(b []byte, at int) (n int, ok bool) {
	if at > len(b)-entryHeader || b[at]&^entryTomb != 0 {
		return 0, false
	}
	ql, vl := entryLens(b[at:])
	n = entryHeader + ql + vl
	return n, n <= len(b)-at
}

// memRow is one memstore row: its key, the arena its entries are
// appended to, and the offsets of the live entries — the newest version
// of each slot — in qualifier order. Arena bytes are never rewritten: a
// superseded or removed entry stays where it is, counted in dead, until
// repack moves the live ones to a fresh arena. Offsets are 32-bit: one
// row's arena stays below 4 GiB.
type memRow struct {
	key   []byte
	arena []byte
	offs  []uint32
	dead  int
}

// size is the bytes the row holds: key, arena (dead entries included)
// and offset index.
func (row *memRow) size() int { return len(row.key) + len(row.arena) + 4*len(row.offs) }

// qual returns the qualifier of the entry at off.
func (row *memRow) qual(off uint32) []byte {
	e := row.arena[off:]
	ql, _ := entryLens(e)
	return e[entryHeader : entryHeader+ql]
}

// entryLen returns the arena bytes the entry at off occupies.
func (row *memRow) entryLen(off uint32) int {
	ql, vl := entryLens(row.arena[off:])
	return entryHeader + ql + vl
}

// decode reads the entry at off into c, whose fields then alias the
// row's key and arena. Capacities are clipped: appending to a field
// cannot reach its neighbour.
func (row *memRow) decode(off uint32, c *Cell) {
	e := row.arena[off:]
	ql, vl := entryLens(e)
	q, v := entryHeader+ql, entryHeader+ql+vl
	c.Row, c.Qual, c.Value, c.Tomb = row.key, e[entryHeader:q:q], e[q:v:v], e[0]&entryTomb != 0
}

// cell returns the entry at off, decoded.
func (row *memRow) cell(off uint32) (c Cell) {
	row.decode(off, &c)
	return c
}

// seek returns the position in offs of the first entry whose qualifier
// is >= qual, and whether it is qual's own slot.
func (row *memRow) seek(qual []byte) (at int, found bool) {
	at = len(row.offs)
	// The usual put is the row's next qualifier: past the last entry.
	if at == 0 || bytes.Compare(row.qual(row.offs[at-1]), qual) < 0 {
		return at, false
	}
	at = sort.Search(at, func(i int) bool { return bytes.Compare(row.qual(row.offs[i]), qual) >= 0 })
	return at, bytes.Equal(row.qual(row.offs[at]), qual)
}

// repack moves the live entries to a fresh arena. The old one is left
// intact for the scan results that alias it.
func (row *memRow) repack() {
	arena := make([]byte, 0, len(row.arena)-row.dead)
	for i, off := range row.offs {
		row.offs[i] = uint32(len(arena))
		arena = append(arena, row.arena[off:int(off)+row.entryLen(off)]...)
	}
	row.arena, row.dead = arena, 0
}

// memstore is a region's write buffer, kept in row order: index finds a
// row in O(1) for puts, rows (sorted by key) is what scans seek and
// walk. TSDB writes arrive in time order per series-hour, so the usual
// put is an index hit plus an append to the row's arena and offsets;
// out-of-order rows and qualifiers binary-insert. Stored key and entry
// bytes are never modified once written — an overwrite appends a new
// entry and repoints the slot — which is what lets scans hand out cells
// that alias them.
type memstore struct {
	index map[string]*memRow
	rows  []*memRow
	size  int // bytes held: the sum of the rows' size()
}

func newMemstore() *memstore { return &memstore{index: make(map[string]*memRow)} }

// row returns the row stored under key; when it is missing, create
// inserts an empty one (nil otherwise).
func (m *memstore) row(key []byte, create bool) *memRow {
	if row, ok := m.index[string(key)]; ok || !create {
		return row
	}
	row := &memRow{key: bytes.Clone(key)}
	m.index[string(row.key)] = row
	at := len(m.rows)
	if at > 0 && bytes.Compare(m.rows[at-1].key, key) > 0 {
		at = sort.Search(at, func(i int) bool { return bytes.Compare(m.rows[i].key, key) >= 0 })
	}
	m.rows = slices.Insert(m.rows, at, row)
	m.size += len(row.key)
	return row
}

// set stores a copy of c as the newest version of its slot in row.
func (m *memstore) set(row *memRow, c Cell) {
	at, found := row.seek(c.Qual)
	off := uint32(len(row.arena))
	row.arena = appendEntry(row.arena, c)
	m.size += entrySize(c)
	if !found {
		row.offs = slices.Insert(row.offs, at, off)
		m.size += 4
		return
	}
	row.dead += row.entryLen(row.offs[at])
	row.offs[at] = off
	m.reclaim(row)
}

// unset removes qual's slot from row, if it holds one.
func (m *memstore) unset(row *memRow, qual []byte) {
	at, found := row.seek(qual)
	if !found {
		return
	}
	row.dead += row.entryLen(row.offs[at])
	row.offs = slices.Delete(row.offs, at, at+1)
	m.size -= 4
}

// reclaim repacks row once more than half of its arena is dead.
func (m *memstore) reclaim(row *memRow) {
	if row.dead > len(row.arena)/2 {
		m.size -= row.dead
		row.repack()
	}
}

// settle finishes a batch of unsets: it drops the given rows that were
// left empty and reclaims the others' dead bytes.
func (m *memstore) settle(rows []*memRow) {
	emptied := false
	for _, row := range rows {
		if len(row.offs) > 0 {
			m.reclaim(row)
			continue
		}
		if m.index[string(row.key)] != row {
			continue // listed twice, dropped the first time
		}
		m.size -= row.size()
		delete(m.index, string(row.key))
		emptied = true
	}
	if emptied {
		m.rows = slices.DeleteFunc(m.rows, func(row *memRow) bool { return len(row.offs) == 0 })
	}
}

// absorb applies every cell of newer on top of m.
func (m *memstore) absorb(newer *memstore) {
	for _, src := range newer.rows {
		dst := m.row(src.key, true)
		for _, off := range src.offs {
			m.set(dst, src.cell(off))
		}
	}
}

// runOf returns a cursor over those of rows (sorted by key) that lie in
// [start, end); an empty start or end is unbounded.
func runOf(rows []*memRow, start, end []byte) run {
	seek := func(k []byte) int {
		return sort.Search(len(rows), func(i int) bool { return bytes.Compare(rows[i].key, k) >= 0 })
	}
	if len(end) > 0 {
		rows = rows[:seek(end)]
	}
	if len(start) > 0 {
		rows = rows[seek(start):]
	}
	return run{rows: rows}
}

// run is a cursor over one sorted source of a merge — the rows of a
// store file, a flush snapshot or the live memstore: row is the current
// row, offs what is left of it and rows what follows it.
type run struct {
	rows []*memRow
	row  *memRow
	offs []uint32
}

// more reports whether the cursor is on a cell, moving on to the next
// row when it has finished one.
func (u *run) more() bool {
	for len(u.offs) == 0 {
		if len(u.rows) == 0 {
			return false
		}
		u.row, u.rows = u.rows[0], u.rows[1:]
		u.offs = u.row.offs
	}
	return true
}

// compare orders the cells at two cursors by (Row, Qual).
func (u *run) compare(o *run) int {
	if r := bytes.Compare(u.row.key, o.row.key); r != 0 {
		return r
	}
	return bytes.Compare(u.row.qual(u.offs[0]), o.row.qual(o.offs[0]))
}

// read decodes the cell at the cursor into dst, whose fields then alias
// its row.
func (u *run) read(dst *Cell) { u.row.decode(u.offs[0], dst) }

// next steps past the cell at the cursor.
func (u *run) next() { u.offs = u.offs[1:] }

// remaining counts the cells from the cursor to the end.
func (u *run) remaining() int {
	n := len(u.offs)
	for _, row := range u.rows {
		n += len(row.offs)
	}
	return n
}

// nextSlot returns the cursor on the newest version of the next slot of
// a merge over sorted runs, given oldest first, having stepped the older
// versions past (counted in walked); nil when all runs are spent. The
// caller reads the cell and steps the cursor.
func nextSlot(runs []run, walked *int) *run {
	var best *run
	for i := range runs {
		u := &runs[i]
		if !u.more() {
			continue
		}
		if best != nil {
			order := u.compare(best)
			if order > 0 {
				continue
			}
			if order == 0 { // the newer run shadows the older
				best.next()
				*walked++
			}
		}
		best = u
	}
	return best
}

// mergeRuns merges sorted runs into one sorted slice holding the newest
// version of each slot that is not a delete marker, stopping at limit
// cells (limit <= 0 means unlimited).
func mergeRuns(runs []run, limit int) (out []Cell, walked int) {
	size := 0
	for i := range runs {
		size += runs[i].remaining()
	}
	if limit > 0 {
		size = min(size, limit)
	}
	out = make([]Cell, 0, size)
	for limit <= 0 || len(out) < limit {
		best := nextSlot(runs, &walked)
		if best == nil {
			break
		}
		// Read straight into the result's next slot (size counted every
		// cell, so there is one); a delete marker is backed out again.
		out = out[:len(out)+1]
		best.read(&out[len(out)-1])
		if out[len(out)-1].Tomb {
			out = out[:len(out)-1]
		}
		best.next()
		walked++
	}
	return out, walked
}

// mergeRows merges the same way into packed rows, delete markers
// dropped: what a compaction keeps.
func mergeRows(runs []run) []*memRow {
	m, walked := newMemstore(), 0
	var c Cell
	for best := nextSlot(runs, &walked); best != nil; best = nextSlot(runs, &walked) {
		if best.read(&c); !c.Tomb {
			m.set(m.row(c.Row, true), c) // in slot order: an append to the last row
		}
		best.next()
	}
	return m.rows
}
