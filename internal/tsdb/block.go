package tsdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// The sealed-block codec: Gorilla-style (Pelkonen et al., VLDB 2015)
// delta-of-delta timestamp compression plus XOR value compression.
// A sealed block is a self-contained byte string:
//
//	uvarint sample count
//	first timestamp   zigzag uvarint
//	first value       64 raw bits
//	per subsequent sample:
//	  timestamp delta-of-delta, prefix-coded:
//	    0                     dod == 0        (the 1 Hz steady state)
//	    10 + 7 bits           dod in [-63, 64]
//	    110 + 9 bits          dod in [-255, 256]
//	    1110 + 12 bits        dod in [-2047, 2048]
//	    1111 + 64 bits        anything else (out-of-order rows included)
//	  value XOR against the previous value:
//	    0                     identical bits
//	    10 + meaningful bits  same leading/trailing window as previous
//	    11 + 6b lead + 6b len + bits   new window
//
// The codec is bit-lossless: NaN payloads, ±Inf and negative zero all
// round-trip, because values travel as raw IEEE-754 bit patterns. On
// quantized sensor telemetry (real transducers emit 12–16-bit ADC
// steps, not 52-bit mantissa noise) steady 1 Hz series compress to
// ~1.4–2 bytes/sample; arbitrary full-entropy float64s degrade
// gracefully toward ~9 bytes/sample, never above 10.
//
// Decoding is allocation-free: a BlockIter walks the byte string in
// place, so a warmed scan costs 0 allocs/op (pinned in ALLOC_PINS via
// BenchmarkCompressedScan).

// ErrBadBlock reports a corrupt or truncated sealed block.
var ErrBadBlock = errors.New("tsdb: bad sealed block")

// bitWriter appends bits to a byte slice, MSB first.
type bitWriter struct {
	buf  []byte
	free uint // unused low bits in the last byte (0 when buf is "full")
}

func (w *bitWriter) writeBit(b uint64) {
	if w.free == 0 {
		w.buf = append(w.buf, 0)
		w.free = 8
	}
	w.free--
	if b != 0 {
		w.buf[len(w.buf)-1] |= 1 << w.free
	}
}

// writeBits writes the low n bits of v, MSB first.
func (w *bitWriter) writeBits(v uint64, n uint) {
	for n > 0 {
		if w.free == 0 {
			w.buf = append(w.buf, 0)
			w.free = 8
		}
		take := w.free
		if take > n {
			take = n
		}
		chunk := (v >> (n - take)) & ((1 << take) - 1)
		w.buf[len(w.buf)-1] |= byte(chunk << (w.free - take))
		w.free -= take
		n -= take
	}
}

// writeUvarint writes v in LEB128 through the bit stream.
func (w *bitWriter) writeUvarint(v uint64) {
	for v >= 0x80 {
		w.writeBits(v&0x7F|0x80, 8)
		v >>= 7
	}
	w.writeBits(v, 8)
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// BlockBuilder encodes one series' samples into a sealed block.
// Samples are encoded in append order; the seal path sorts and
// deduplicates first, but the codec itself round-trips any order.
type BlockBuilder struct {
	w         bitWriter
	count     int
	prevTS    int64
	prevDelta int64
	prevVal   uint64
	// prevLead/prevSig frame the current XOR window; sig == 0 means no
	// window is open yet.
	prevLead, prevSig uint
}

// Reset clears the builder for reuse, keeping the buffer.
func (b *BlockBuilder) Reset() {
	b.w.buf = b.w.buf[:0]
	b.w.free = 0
	b.count = 0
	b.prevLead, b.prevSig = 0, 0
}

// Count returns the number of samples appended so far.
func (b *BlockBuilder) Count() int { return b.count }

// Append adds one sample to the block.
func (b *BlockBuilder) Append(ts int64, v float64) {
	bitsV := math.Float64bits(v)
	if b.count == 0 {
		b.w.writeUvarint(zigzag(ts))
		b.w.writeBits(bitsV, 64)
		b.prevTS, b.prevDelta, b.prevVal = ts, 0, bitsV
		b.count++
		return
	}
	delta := ts - b.prevTS
	dod := delta - b.prevDelta
	switch {
	case dod == 0:
		b.w.writeBit(0)
	case dod >= -63 && dod <= 64:
		b.w.writeBits(0b10, 2)
		b.w.writeBits(uint64(dod+63), 7)
	case dod >= -255 && dod <= 256:
		b.w.writeBits(0b110, 3)
		b.w.writeBits(uint64(dod+255), 9)
	case dod >= -2047 && dod <= 2048:
		b.w.writeBits(0b1110, 4)
		b.w.writeBits(uint64(dod+2047), 12)
	default:
		b.w.writeBits(0b1111, 4)
		b.w.writeBits(uint64(dod), 64)
	}
	b.prevTS, b.prevDelta = ts, delta

	xor := bitsV ^ b.prevVal
	b.prevVal = bitsV
	if xor == 0 {
		b.w.writeBit(0)
		b.count++
		return
	}
	b.w.writeBit(1)
	lead := uint(bits.LeadingZeros64(xor))
	if lead > 31 {
		lead = 31 // 5-bit headroom convention; keeps windows reusable
	}
	trail := uint(bits.TrailingZeros64(xor))
	sig := 64 - lead - trail
	if b.prevSig > 0 && lead >= b.prevLead && 64-lead-sig >= 64-b.prevLead-b.prevSig {
		// The XOR fits the previous window: reuse it.
		b.w.writeBit(0)
		b.w.writeBits(xor>>(64-b.prevLead-b.prevSig), b.prevSig)
	} else {
		b.w.writeBit(1)
		b.w.writeBits(uint64(lead), 6)
		b.w.writeBits(uint64(sig&63), 6) // 64 encodes as 0
		b.w.writeBits(xor>>trail, sig)
		b.prevLead, b.prevSig = lead, sig
	}
	b.count++
}

// Finish returns the sealed block bytes. The returned slice aliases the
// builder's buffer; copy it before the next Reset/Append cycle.
func (b *BlockBuilder) Finish() []byte {
	var hdr [10]byte
	n := putUvarint(hdr[:], uint64(b.count))
	out := make([]byte, 0, n+len(b.w.buf))
	out = append(out, hdr[:n]...)
	out = append(out, b.w.buf...)
	return out
}

// EncodeBlock seals samples into one compressed block.
func EncodeBlock(samples []Sample) []byte {
	var b BlockBuilder
	for _, s := range samples {
		b.Append(s.Timestamp, s.Value)
	}
	return b.Finish()
}

func putUvarint(buf []byte, v uint64) int {
	i := 0
	for v >= 0x80 {
		buf[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	buf[i] = byte(v)
	return i + 1
}

// bitReader consumes bits from a byte slice, MSB first.
type bitReader struct {
	buf []byte
	pos int  // next byte
	off uint // bits consumed of buf[pos]
	err bool
}

func (r *bitReader) reset(buf []byte) {
	r.buf = buf
	r.pos = 0
	r.off = 0
	r.err = false
}

func (r *bitReader) readBit() uint64 {
	if r.pos >= len(r.buf) {
		r.err = true
		return 0
	}
	b := uint64(r.buf[r.pos]>>(7-r.off)) & 1
	r.off++
	if r.off == 8 {
		r.off = 0
		r.pos++
	}
	return b
}

func (r *bitReader) readBits(n uint) uint64 {
	var v uint64
	for n > 0 {
		if r.pos >= len(r.buf) {
			r.err = true
			return 0
		}
		avail := 8 - r.off
		take := avail
		if take > n {
			take = n
		}
		chunk := uint64(r.buf[r.pos]>>(avail-take)) & ((1 << take) - 1)
		v = v<<take | chunk
		r.off += take
		if r.off == 8 {
			r.off = 0
			r.pos++
		}
		n -= take
	}
	return v
}

func (r *bitReader) readUvarint() uint64 {
	var v uint64
	var shift uint
	for {
		b := r.readBits(8)
		if r.err || shift > 63 || shift == 63 && b > 1 { // past 64 bits
			r.err = true
			return 0
		}
		v |= (b & 0x7F) << shift
		if b < 0x80 {
			return v
		}
		shift += 7
	}
}

// BlockIter decodes a sealed block in place, one sample per Next. The
// zero value is empty; Reset arms it. It performs no allocation.
type BlockIter struct {
	r         bitReader
	remaining int
	ts        int64
	delta     int64
	val       uint64
	lead, sig uint
	started   bool
}

// Reset points the iterator at a sealed block.
func (it *BlockIter) Reset(block []byte) {
	uv, n := binary.Uvarint(block)
	if n <= 0 || uv > uint64(len(block)-n)*8 {
		// No count, one past 64 bits, or one no block this size could
		// hold: a corrupt header.
		it.r.reset(nil)
		it.r.err = true
		it.remaining = 0
	} else {
		it.r.reset(block[n:])
		it.remaining = int(uv)
	}
	it.started = false
	it.lead, it.sig = 0, 0
}

// Next advances to the next sample; it returns false at the end of the
// block or on corruption (check Err).
func (it *BlockIter) Next() bool {
	if it.remaining <= 0 || it.r.err {
		return false
	}
	if !it.started {
		it.ts = unzigzag(it.r.readUvarint())
		it.val = it.r.readBits(64)
		it.delta = 0
		it.started = true
		it.remaining--
		return !it.r.err
	}
	// Timestamp.
	var dod int64
	if it.r.readBit() == 0 {
		dod = 0
	} else if it.r.readBit() == 0 {
		dod = int64(it.r.readBits(7)) - 63
	} else if it.r.readBit() == 0 {
		dod = int64(it.r.readBits(9)) - 255
	} else if it.r.readBit() == 0 {
		dod = int64(it.r.readBits(12)) - 2047
	} else {
		dod = int64(it.r.readBits(64))
	}
	it.delta += dod
	it.ts += it.delta
	// Value.
	if it.r.readBit() == 1 {
		if it.r.readBit() == 1 {
			it.lead = uint(it.r.readBits(6))
			it.sig = uint(it.r.readBits(6))
			if it.sig == 0 {
				it.sig = 64
			}
		}
		if it.lead+it.sig > 64 {
			it.r.err = true
			return false
		}
		xor := it.r.readBits(it.sig) << (64 - it.lead - it.sig)
		it.val ^= xor
	}
	it.remaining--
	return !it.r.err
}

// At returns the current sample. Valid only after a true Next.
func (it *BlockIter) At() (ts int64, v float64) {
	return it.ts, math.Float64frombits(it.val)
}

// Err reports whether the block was corrupt or truncated.
func (it *BlockIter) Err() error {
	if it.r.err {
		return ErrBadBlock
	}
	return nil
}

// DecodeBlock expands a sealed block back into samples, appending to
// dst (which may be nil).
func DecodeBlock(dst []Sample, block []byte) ([]Sample, error) {
	var it BlockIter
	it.Reset(block)
	for it.Next() {
		ts, v := it.At()
		dst = append(dst, Sample{Timestamp: ts, Value: v})
	}
	if err := it.Err(); err != nil {
		return dst, fmt.Errorf("%w: %d bytes", err, len(block))
	}
	return dst, nil
}

// QuantizeValue rounds v to the nearest multiple of 1/2^fracBits — the
// dyadic grid a fixed-point ADC reports on. Real transducers deliver
// 12–16-bit readings, not 52 bits of mantissa noise; quantizing the
// simulator's continuous gaussians to the sensor LSB before ingest is
// what makes the XOR codec's ~1.4 bytes/sample target reachable, and is
// how the storage benches and soaks model the fleet. NaN and ±Inf pass
// through unchanged.
func QuantizeValue(v float64, fracBits uint) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	scale := float64(uint64(1) << fracBits)
	return math.Round(v*scale) / scale
}
