package tsdb

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzSamples reads data as samples, ten bytes each: a signed 16-bit
// step from the previous timestamp (so every delta-of-delta class, the
// 64-bit escape included, is a few bytes away) and the value's bits.
func fuzzSamples(data []byte) []Sample {
	var out []Sample
	ts := int64(0)
	for ; len(data) >= 10; data = data[10:] {
		ts += int64(int16(binary.LittleEndian.Uint16(data)))
		out = append(out, Sample{Timestamp: ts, Value: math.Float64frombits(binary.LittleEndian.Uint64(data[2:]))})
	}
	return out
}

// FuzzBlockIter holds the sealed-block decoder to its contract on any
// bytes. Read as a block, data decodes without a panic to at most its
// header's sample count, and to exactly that count unless it errors; a
// block with no header errors. Read as samples, data encodes to a block
// that decodes to exactly those samples, bit for bit, and errors once
// cut short. Seeded from testdata/fuzz/FuzzBlockIter — truncated,
// count-lying, a count past 64 bits, bit-flipped, the 64-bit
// delta-of-delta escape, empty.
func FuzzBlockIter(f *testing.F) {
	f.Add(EncodeBlock([]Sample{{Timestamp: 3600, Value: 500}, {Timestamp: 3601, Value: 500.25}, {Timestamp: 3602, Value: 499.75}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4<<10 {
			t.Skip("longer inputs reach no new code, and slow minimization")
		}
		count, n := binary.Uvarint(data)
		var it BlockIter
		it.Reset(data)
		got := uint64(0)
		for it.Next() {
			it.At()
			if got++; n <= 0 || got > count {
				t.Fatalf("sample %d from a block whose header counts %d (header length %d)", got, count, n)
			}
		}
		if n <= 0 && it.Err() == nil {
			t.Fatal("a block with no header decoded without an error")
		}
		if it.Err() == nil && got != count {
			t.Fatalf("%d samples and no error from a block counting %d", got, count)
		}

		want := fuzzSamples(data)
		block := EncodeBlock(want)
		dec, err := DecodeBlock(nil, block)
		if err != nil || len(dec) != len(want) {
			t.Fatalf("%d samples encoded, %d decoded, err %v", len(want), len(dec), err)
		}
		for i := range want {
			if dec[i].Timestamp != want[i].Timestamp || math.Float64bits(dec[i].Value) != math.Float64bits(want[i].Value) {
				t.Fatalf("sample %d: decoded %+v, encoded %+v", i, dec[i], want[i])
			}
		}
		for _, cut := range []int{len(block) - 1, len(block) / 2} {
			if _, err := DecodeBlock(nil, block[:cut]); err == nil {
				t.Fatalf("a %d-sample block cut to %d of %d bytes decoded without an error", len(want), cut, len(block))
			}
		}
	})
}
