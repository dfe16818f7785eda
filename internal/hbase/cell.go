// Package hbase is a miniature HBase: a distributed, sorted,
// range-partitioned key-value store layered on the simulated HDFS,
// ZooKeeper and RPC substrates. It models the parts of HBase the
// paper's findings depend on:
//
//   - Regions: contiguous row-key ranges served by RegionServers, with
//     in-memory MemStores flushed to immutable store files in HDFS and
//     a write-ahead log for crash recovery.
//   - One sorted-run format, the packed row (memstore.go): a key, one
//     append-only byte arena of entries and the offsets of the live ones
//     in qualifier order, so a cell costs its payload plus 10 bytes
//     wherever it is held. The memstore is such rows, key-sorted, under a
//     hash index: an in-order put appends and allocates nothing once
//     arena and offsets have grown; an overwrite or delete repoints or
//     removes the offset, and a row more than half dead is repacked. A
//     flush copies nothing: once HDFS has the rows' keys and live entries
//     back to back (below), the snapshot's rows are the store file and
//     own their arenas. A region reopened from the file serves rows that
//     alias the one buffer it read.
//   - Scans that cost their range: every source — store files, a flush
//     snapshot in flight, the live memstore — is sought to the start row
//     by binary search and merged newest-wins to the end row or the
//     limit. A delete marker lives only while a store file or a flush
//     snapshot could still hold an older version of its slot.
//   - A byte WAL (wal.go): per server, fixed-size chunks holding one
//     record per put RPC — each cell as its row key and the same packed
//     entry — written under the region's sequence lock and decoded, by
//     the bounds-checked parser store files open with, only when a dead
//     server's log is replayed. Truncating a flushed region frees the
//     chunks it alone filled and rewrites the rest.
//   - Immutable cell bytes: the Row, Qual and Value of cells a scan
//     returns alias the store's own row keys and arenas. The store never
//     modifies them (an overwrite appends a new entry; a repack or a
//     compaction writes new rows and leaves the old to their holders),
//     and callers must not either.
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

// Less orders cells by (Row, Qual).
func (c Cell) Less(o Cell) bool {
	if r := bytes.Compare(c.Row, o.Row); r != 0 {
		return r < 0
	}
	return bytes.Compare(c.Qual, o.Qual) < 0
}

// Same reports whether two cells address the same (Row, Qual) slot.
func (c Cell) Same(o Cell) bool {
	return bytes.Equal(c.Row, o.Row) && bytes.Equal(c.Qual, o.Qual)
}

// A store file is a sorted run of packed rows, in memory and in HDFS
// alike. Its bytes are the rows back to back, each key once and only the
// live entries, in the memstore's entry layout (little-endian):
//
//	rows u32 | { key-len u16 | entries u32 | key | entry… }…
const (
	fileHeader    = 4
	fileRowHeader = 6
)

// encodeRows serializes rows (sorted by key) as a store file.
func encodeRows(rows []*memRow) []byte {
	size := fileHeader
	for _, row := range rows {
		size += fileRowHeader + len(row.key) + len(row.arena) - row.dead
	}
	dst := binary.LittleEndian.AppendUint32(make([]byte, 0, size), uint32(len(rows)))
	for _, row := range rows {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(row.key)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(row.offs)))
		dst = append(dst, row.key...)
		for _, off := range row.offs {
			dst = append(dst, row.arena[off:int(off)+row.entryLen(off)]...)
		}
	}
	return dst
}

// errCorrupt reports a malformed store file or WAL record.
var errCorrupt = errors.New("hbase: corrupt store bytes")

// decodeRows parses a store file into rows whose keys and arenas alias
// data: the caller hands the buffer over. Every count and length is
// checked against the bytes there before anything is sized by it.
func decodeRows(data []byte) ([]*memRow, error) {
	if len(data) < fileHeader {
		return nil, errCorrupt
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[fileHeader:]
	if n > len(data)/fileRowHeader {
		return nil, errCorrupt
	}
	rows := make([]*memRow, n)
	for i := range rows {
		if len(data) < fileRowHeader {
			return nil, errCorrupt
		}
		kl, entries := int(binary.LittleEndian.Uint16(data)), int(binary.LittleEndian.Uint32(data[2:]))
		data = data[fileRowHeader:]
		if kl > len(data) || entries > (len(data)-kl)/entryHeader {
			return nil, errCorrupt
		}
		row := &memRow{key: data[:kl:kl], offs: make([]uint32, entries)}
		data = data[kl:]
		end := 0
		for j := range row.offs {
			size, ok := entryAt(data, end)
			if !ok {
				return nil, errCorrupt
			}
			row.offs[j] = uint32(end)
			end += size
		}
		row.arena, data = data[:end:end], data[end:]
		rows[i] = row
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errCorrupt, len(data))
	}
	return rows, nil
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
