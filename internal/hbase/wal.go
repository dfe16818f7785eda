package hbase

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
)

// A WAL record is one put RPC as the log holds it: every cell of the
// batch under the one sequence number the server drew for it,
//
//	size u32 | region u32 | seq u64 | cells…
//
// little-endian, size counting the whole record. Each cell is its row
// key — a record may span rows — before the memstore's packed entry:
//
//	row-len u16 | row | entry
const (
	walRecordHeader = 16
	walRowLen       = 2

	// walChunkSize is the capacity a server's log grows by. A record
	// never straddles chunks; one larger than this gets a chunk of its
	// own.
	walChunkSize = 64 << 10
)

// walRecord is a decoded record, as the replay path hands it on.
type walRecord struct {
	Seq   int64
	Cells []Cell
}

func walRecordSize(cells []Cell) int {
	n := walRecordHeader
	for _, c := range cells {
		n += walRowLen + len(c.Row) + entrySize(c)
	}
	return n
}

// appendWALRecord encodes one record onto dst. Field lengths are within
// the header limits (checkCellLens).
func appendWALRecord(dst []byte, region int, seq int64, cells []Cell) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // the size, once known
	dst = binary.LittleEndian.AppendUint32(dst, uint32(region))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(seq))
	for _, c := range cells {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(c.Row)))
		dst = append(dst, c.Row...)
		dst = appendEntry(dst, c)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start))
	return dst
}

// walRecordAt returns the record at the front of b with its region and
// sequence. When b cannot hold the size it states, the error is
// errCorrupt and rec all of b, of no region: a walk by len(rec) ends.
func walRecordAt(b []byte) (rec []byte, region int, seq int64, err error) {
	if len(b) < walRecordHeader {
		return b, -1, 0, errCorrupt
	}
	size := int(binary.LittleEndian.Uint32(b))
	if size < walRecordHeader || size > len(b) {
		return b, -1, 0, errCorrupt
	}
	return b[:size], int(binary.LittleEndian.Uint32(b[4:])), int64(binary.LittleEndian.Uint64(b[8:])), nil
}

// decodeWALCells decodes the cells of one whole record, none reaching
// past it. They share one copy of the record's bytes, not the log's.
func decodeWALCells(rec []byte) ([]Cell, error) {
	b := bytes.Clone(rec[walRecordHeader:])
	var cells []Cell
	for len(b) > 0 {
		if len(b) < walRowLen {
			return nil, errCorrupt
		}
		rl := walRowLen + int(binary.LittleEndian.Uint16(b))
		n, ok := entryAt(b, rl)
		if !ok {
			return nil, errCorrupt
		}
		row := memRow{key: b[walRowLen:rl:rl], arena: b[rl : rl+n]}
		cells = append(cells, row.cell(0))
		b = b[rl+n:]
	}
	return cells, nil
}

// walLog is one server's log: records packed back to back into chunks,
// in append order. Only the last chunk takes appends.
type walLog struct {
	mu     sync.Mutex
	chunks [][]byte
}

// walStore models the node-local durable disks holding each region
// server's write-ahead log. It survives region-server crashes (the
// process dies, the log does not), which is exactly what lets the
// master replay un-flushed writes on failover. Indexed by server name.
type walStore struct {
	mu   sync.Mutex
	logs map[string]*walLog
}

func newWALStore() *walStore {
	return &walStore{logs: make(map[string]*walLog)}
}

// log returns server's log; when it is missing, create starts an empty
// one (nil otherwise).
func (w *walStore) log(server string, create bool) *walLog {
	w.mu.Lock()
	defer w.mu.Unlock()
	l := w.logs[server]
	if l == nil && create {
		l = &walLog{}
		w.logs[server] = l
	}
	return l
}

// Append durably records cells as one record of region under seq in
// server's log. The cells are copied.
func (w *walStore) Append(server string, region int, seq int64, cells []Cell) {
	l := w.log(server, true)
	l.mu.Lock()
	defer l.mu.Unlock()
	size := walRecordSize(cells)
	last := len(l.chunks) - 1
	if last < 0 || len(l.chunks[last])+size > cap(l.chunks[last]) {
		l.chunks = append(l.chunks, make([]byte, 0, max(walChunkSize, size)))
		last++
	}
	l.chunks[last] = appendWALRecord(l.chunks[last], region, seq, cells)
}

// EntriesFor returns the records server holds for region with sequence
// greater than afterSeq, in append order, or errCorrupt: a recovery must
// not go on with part of a log.
func (w *walStore) EntriesFor(server string, region int, afterSeq int64) ([]walRecord, error) {
	l := w.log(server, false)
	if l == nil {
		return nil, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []walRecord
	for _, chunk := range l.chunks {
		for len(chunk) > 0 {
			rec, reg, seq, err := walRecordAt(chunk)
			if err == nil && reg == region && seq > afterSeq {
				var cells []Cell
				cells, err = decodeWALCells(rec)
				out = append(out, walRecord{Seq: seq, Cells: cells})
			}
			if err != nil {
				return nil, fmt.Errorf("hbase: wal of %s, region %d: %w", server, region, err)
			}
			chunk = chunk[len(rec):]
		}
	}
	return out, nil
}

// Truncate drops server's records for region with sequence ≤ uptoSeq
// (called after a successful flush made them redundant). A chunk left
// with no record is released whole; one that keeps some is rewritten to
// just those, so the dropped bytes are freed either way. Bytes that
// cannot be parsed stay, for EntriesFor to report.
func (w *walStore) Truncate(server string, region int, uptoSeq int64) {
	l := w.log(server, false)
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.chunks[:0]
	for _, chunk := range l.chunks {
		dropped := 0
		for rest := chunk; len(rest) > 0; {
			rec, reg, seq, _ := walRecordAt(rest)
			if reg == region && seq <= uptoSeq {
				dropped += len(rec)
			}
			rest = rest[len(rec):]
		}
		switch {
		case dropped == 0:
			kept = append(kept, chunk)
		case dropped < len(chunk):
			live := make([]byte, 0, len(chunk)-dropped)
			for rest := chunk; len(rest) > 0; {
				rec, reg, seq, _ := walRecordAt(rest)
				if reg != region || seq > uptoSeq {
					live = append(live, rec...)
				}
				rest = rest[len(rec):]
			}
			kept = append(kept, live)
		}
	}
	clear(l.chunks[len(kept):])
	l.chunks = kept
}

// Drop removes server's entire log (after its regions were recovered
// elsewhere).
func (w *walStore) Drop(server string) {
	w.mu.Lock()
	delete(w.logs, server)
	w.mu.Unlock()
}

// Bytes returns the record bytes held across all servers' logs.
func (w *walStore) Bytes() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, l := range w.logs {
		l.mu.Lock()
		for _, chunk := range l.chunks {
			n += len(chunk)
		}
		l.mu.Unlock()
	}
	return n
}
