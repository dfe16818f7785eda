// Package hbase is a miniature HBase: a distributed, sorted,
// range-partitioned key-value store layered on the simulated HDFS,
// ZooKeeper and RPC substrates. It models the parts of HBase the
// paper's findings depend on:
//
//   - Regions: contiguous row-key ranges served by RegionServers, with
//     in-memory MemStores flushed to immutable store files in HDFS and
//     a write-ahead log for crash recovery.
//   - Packed, row-ordered MemStores: a hash index row → row record for
//     O(1) puts and the row records in a key-sorted slice; a row record
//     is its key, one append-only byte arena of entries (flags,
//     qualifier and value lengths, qualifier, value — a fixed 6-byte
//     header) and the 32-bit offsets of the live entries in qualifier
//     order (memstore.go). An in-order put appends to both and allocates
//     nothing once they have grown; an overwrite or delete repoints or
//     removes the offset, and the row is repacked into a fresh arena
//     once more than half of it is dead. A hot cell costs its payload
//     plus 10 bytes, not a Cell struct and a buffer, and the size the
//     flush threshold bounds is the bytes the rows hold. A scan seeks
//     every source — store files, a flush snapshot in flight, the live
//     memstore — to its start row by binary search and merges them
//     newest-wins up to the end row or the limit, decoding packed
//     entries as it emits them, so a read costs O(log rows) plus the
//     cells in its range, whatever the region holds. A delete marker
//     lives only while a store file or a flush snapshot could still
//     hold an older version of its slot; otherwise the delete frees the
//     slot (and an emptied row) at once.
//   - A byte WAL: each server's log is a list of fixed-size chunks
//     holding one record per put RPC — region, sequence, then every
//     cell of the batch with its row key — encoded straight from the
//     request under the region's sequence lock (wal.go). Records are
//     decoded only when a dead server's log is replayed. Truncating a
//     flushed region releases the chunks it alone filled and rewrites
//     the ones it shared, so the log's memory follows what is unflushed.
//   - Immutable cell bytes: the Row, Qual and Value of cells a scan
//     returns alias the store's own bytes — row keys, arenas, store
//     files. The store never modifies them (an overwrite appends a new
//     entry; a repack copies to a new arena and leaves the old one to
//     its holders), and callers must not either.
//   - Bounded RPC queues: RegionServers crash when their inbound queue
//     overflows persistently (§III-B), which is why the ingestion
//     pipeline needs the buffering reverse proxy.
//   - Key-hash placement: writes route by row key, so sequential keys
//     hotspot one server until the TSDB layer salts them (§III-B).
//   - Manual region splits and an HMaster (+backup, via ZooKeeper
//     election) that reassigns regions and replays WALs on crashes.
package hbase

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Cell is one versioned key-value entry: row key, column qualifier and
// value. Sorting is by (Row, Qual), with later sequence numbers
// shadowing earlier ones during reads. A cell with Tomb set is a
// delete marker: it shadows older versions of its slot and is elided
// from scans (and dropped entirely by major compaction).
type Cell struct {
	Row   []byte
	Qual  []byte
	Value []byte
	Tomb  bool
}

// compare orders cells by (Row, Qual): negative, zero or positive as c
// sorts before, at or after o.
func (c Cell) compare(o Cell) int {
	if r := bytes.Compare(c.Row, o.Row); r != 0 {
		return r
	}
	return bytes.Compare(c.Qual, o.Qual)
}

// Less orders cells by (Row, Qual).
func (c Cell) Less(o Cell) bool { return c.compare(o) < 0 }

// Same reports whether two cells address the same (Row, Qual) slot.
func (c Cell) Same(o Cell) bool {
	return bytes.Equal(c.Row, o.Row) && bytes.Equal(c.Qual, o.Qual)
}

// encodeCells serializes cells for a store file: a length-prefixed
// binary layout (no gob; the format is stable and compact).
func encodeCells(cells []Cell) []byte {
	var buf bytes.Buffer
	var lp [4]byte
	binary.BigEndian.PutUint32(lp[:], uint32(len(cells)))
	buf.Write(lp[:])
	for _, c := range cells {
		for _, field := range [][]byte{c.Row, c.Qual, c.Value} {
			binary.BigEndian.PutUint32(lp[:], uint32(len(field)))
			buf.Write(lp[:])
			buf.Write(field)
		}
		if c.Tomb {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	}
	return buf.Bytes()
}

// errCorrupt reports a malformed store file.
var errCorrupt = errors.New("hbase: corrupt store file")

// decodeCells parses a store file produced by encodeCells.
func decodeCells(data []byte) ([]Cell, error) {
	if len(data) < 4 {
		return nil, errCorrupt
	}
	n := binary.BigEndian.Uint32(data[:4])
	data = data[4:]
	cells := make([]Cell, 0, n)
	readField := func() ([]byte, error) {
		if len(data) < 4 {
			return nil, errCorrupt
		}
		l := binary.BigEndian.Uint32(data[:4])
		data = data[4:]
		if uint32(len(data)) < l {
			return nil, errCorrupt
		}
		f := append([]byte(nil), data[:l]...)
		data = data[l:]
		return f, nil
	}
	for i := uint32(0); i < n; i++ {
		row, err := readField()
		if err != nil {
			return nil, err
		}
		qual, err := readField()
		if err != nil {
			return nil, err
		}
		val, err := readField()
		if err != nil {
			return nil, err
		}
		if len(data) < 1 {
			return nil, errCorrupt
		}
		tomb := data[0] == 1
		data = data[1:]
		cells = append(cells, Cell{Row: row, Qual: qual, Value: val, Tomb: tomb})
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errCorrupt, len(data))
	}
	return cells, nil
}

// inRange reports whether key belongs to [start, end); an empty end
// means +infinity and an empty start means -infinity.
func inRange(key, start, end []byte) bool {
	if len(start) > 0 && bytes.Compare(key, start) < 0 {
		return false
	}
	if len(end) > 0 && bytes.Compare(key, end) >= 0 {
		return false
	}
	return true
}
