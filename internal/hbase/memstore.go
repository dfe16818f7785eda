package hbase

import (
	"bytes"
	"slices"
	"sort"
)

// memRow is one memstore row: its key and the newest version of each of
// its slots, in qualifier order. Every cell's Row aliases key.
type memRow struct {
	key   []byte
	cells []Cell
}

// memstore is a region's write buffer, kept in row order: index finds a
// row in O(1) for puts, rows (sorted by key) is what scans seek and
// walk. TSDB writes arrive in time order per series-hour, so the usual
// put is an index hit plus an append to the row; out-of-order rows and
// qualifiers binary-insert. Stored key, qualifier and value bytes are
// never modified once written — an overwrite replaces the cell — which
// is what lets scans hand out cells that alias them.
type memstore struct {
	index map[string]*memRow
	rows  []*memRow
	size  int // approximate bytes: row + qualifier + value per slot
}

func newMemstore() *memstore { return &memstore{index: make(map[string]*memRow)} }

func cellSize(c Cell) int { return len(c.Row) + len(c.Qual) + len(c.Value) }

// cutRange returns the positions [lo, hi) that the keys of [start, end)
// occupy among n sorted keys (empty start or end: unbounded).
func cutRange(n int, key func(int) []byte, start, end []byte) (lo, hi int) {
	seek := func(k []byte) int {
		return sort.Search(n, func(i int) bool { return bytes.Compare(key(i), k) >= 0 })
	}
	lo, hi = 0, n
	if len(start) > 0 {
		lo = seek(start)
	}
	if len(end) > 0 {
		hi = max(lo, seek(end))
	}
	return lo, hi
}

func (m *memstore) rowKey(i int) []byte { return m.rows[i].key }

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
		at, _ = cutRange(at, m.rowKey, key, nil)
	}
	m.rows = slices.Insert(m.rows, at, row)
	return row
}

// set stores a copy of c as the newest version of its slot in row.
func (m *memstore) set(row *memRow, c Cell) {
	at := len(row.cells)
	if at > 0 && bytes.Compare(row.cells[at-1].Qual, c.Qual) >= 0 {
		at = sort.Search(at, func(i int) bool { return bytes.Compare(row.cells[i].Qual, c.Qual) >= 0 })
	}
	// One buffer holds qualifier and value; the qualifier's capacity is
	// clipped so appending to it cannot reach the value.
	buf := make([]byte, len(c.Qual)+len(c.Value))
	n := copy(buf, c.Qual)
	copy(buf[n:], c.Value)
	cc := Cell{Row: row.key, Qual: buf[:n:n], Value: buf[n:], Tomb: c.Tomb}
	if at < len(row.cells) && bytes.Equal(row.cells[at].Qual, c.Qual) {
		m.size -= cellSize(row.cells[at])
		row.cells[at] = cc
	} else {
		row.cells = slices.Insert(row.cells, at, cc)
	}
	m.size += cellSize(cc)
}

// sweep drops the delete markers of the given rows, and the rows they
// leave empty.
func (m *memstore) sweep(rows []*memRow) {
	emptied := false
	for _, row := range rows {
		kept := row.cells[:0]
		for _, c := range row.cells {
			if c.Tomb {
				m.size -= cellSize(c)
			} else {
				kept = append(kept, c)
			}
		}
		clear(row.cells[len(kept):])
		row.cells = kept
		if len(row.cells) == 0 {
			delete(m.index, string(row.key))
			emptied = true
		}
	}
	if emptied {
		m.rows = slices.DeleteFunc(m.rows, func(row *memRow) bool { return len(row.cells) == 0 })
	}
}

// absorb applies every cell of newer on top of m.
func (m *memstore) absorb(newer *memstore) {
	for _, src := range newer.rows {
		dst := m.row(src.key, true)
		for _, c := range src.cells {
			m.set(dst, c)
		}
	}
}

// run returns a cursor over the rows in [start, end).
func (m *memstore) run(start, end []byte) run {
	lo, hi := cutRange(len(m.rows), m.rowKey, start, end)
	return run{rows: m.rows[lo:hi]}
}

// fileRun returns a cursor over the cells of a store file (sorted)
// whose rows lie in [start, end).
func fileRun(cells []Cell, start, end []byte) run {
	lo, hi := cutRange(len(cells), func(i int) []byte { return cells[i].Row }, start, end)
	return run{cells: cells[lo:hi]}
}

// run is a cursor over one sorted source of a merge: a store file's
// cells, or a memstore's rows (cells is then the rest of the current
// row and rows what follows it).
type run struct {
	cells []Cell
	rows  []*memRow
}

// head returns the cursor's current cell, or nil at the end.
func (u *run) head() *Cell {
	for len(u.cells) == 0 {
		if len(u.rows) == 0 {
			return nil
		}
		u.cells, u.rows = u.rows[0].cells, u.rows[1:]
	}
	return &u.cells[0]
}

// remaining counts the cells from the cursor to the end.
func (u *run) remaining() int {
	n := len(u.cells)
	for _, row := range u.rows {
		n += len(row.cells)
	}
	return n
}

// mergeRuns merges sorted runs, given oldest first, into one sorted
// slice holding the newest version of each slot, stopping at limit
// cells (limit <= 0 means unlimited). Delete markers shadow older
// versions either way and are emitted only if keepTombs. walked is the
// number of cells stepped over.
func mergeRuns(runs []run, limit int, keepTombs bool) (out []Cell, walked int) {
	size := 0
	for i := range runs {
		size += runs[i].remaining()
	}
	if limit > 0 {
		size = min(size, limit)
	}
	out = make([]Cell, 0, size)
	for limit <= 0 || len(out) < limit {
		var best *run
		for i := range runs {
			u := &runs[i]
			c := u.head()
			if c == nil {
				continue
			}
			if best != nil {
				order := c.compare(best.cells[0])
				if order > 0 {
					continue
				}
				if order == 0 { // the newer run shadows the older
					best.cells = best.cells[1:]
					walked++
				}
			}
			best = u
		}
		if best == nil {
			break
		}
		if c := best.cells[0]; keepTombs || !c.Tomb {
			out = append(out, c)
		}
		best.cells = best.cells[1:]
		walked++
	}
	return out, walked
}
