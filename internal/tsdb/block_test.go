package tsdb

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// rng is a tiny splitmix64 so the property tests are seeded and
// deterministic without importing math/rand.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { // uniform [0,1)
	return float64(r.next()>>11) / (1 << 53)
}

func (r *rng) norm() float64 { // rough gaussian (sum of 4 uniforms)
	return r.float() + r.float() + r.float() + r.float() - 2
}

func roundtrip(t *testing.T, samples []Sample) {
	t.Helper()
	data := EncodeBlock(samples)
	got, err := DecodeBlock(nil, data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(samples) {
		t.Fatalf("decoded %d samples, want %d", len(got), len(samples))
	}
	for i := range samples {
		if got[i].Timestamp != samples[i].Timestamp {
			t.Fatalf("sample %d: ts = %d, want %d", i, got[i].Timestamp, samples[i].Timestamp)
		}
		// Bit-identical, so NaN payloads and -0 must survive.
		if math.Float64bits(got[i].Value) != math.Float64bits(samples[i].Value) {
			t.Fatalf("sample %d: value bits %x, want %x", i,
				math.Float64bits(got[i].Value), math.Float64bits(samples[i].Value))
		}
	}
}

func TestBlockRoundtripRandomWalks(t *testing.T) {
	r := rng(1)
	for trial := 0; trial < 200; trial++ {
		n := int(r.next()%500) + 1
		ts := int64(r.next() % 1e9)
		v := 100 * r.norm()
		samples := make([]Sample, 0, n)
		for i := 0; i < n; i++ {
			samples = append(samples, Sample{Timestamp: ts, Value: v})
			// Mostly 1 Hz, occasionally a gap or a big jump.
			switch r.next() % 10 {
			case 0:
				ts += int64(r.next()%100000) + 1
			case 1:
				ts += int64(r.next()%90) + 1
			default:
				ts++
			}
			if r.next()%20 == 0 {
				v = 1e6 * (r.float() - 0.5) // level jump
			} else {
				v += r.norm()
			}
		}
		roundtrip(t, samples)
	}
}

func TestBlockRoundtripQuantized(t *testing.T) {
	// The sensor-shaped workload: 1 Hz, ADC-quantized values.
	r := rng(7)
	samples := make([]Sample, 3600)
	v := 500.0
	for i := range samples {
		v += r.norm()
		samples[i] = Sample{Timestamp: int64(i), Value: QuantizeValue(v, 4)}
	}
	roundtrip(t, samples)
	if got := len(EncodeBlock(samples)); got > 2*len(samples) {
		t.Fatalf("quantized 1 Hz block = %d bytes (%.2f bytes/sample), want <= 2.0",
			got, float64(got)/float64(len(samples)))
	}
}

func TestBlockSpecialValues(t *testing.T) {
	roundtrip(t, []Sample{
		{Timestamp: 0, Value: math.NaN()},
		{Timestamp: 1, Value: math.Inf(1)},
		{Timestamp: 2, Value: math.Inf(-1)},
		{Timestamp: 3, Value: math.Copysign(0, -1)},
		{Timestamp: 4, Value: 0},
		{Timestamp: 5, Value: math.Float64frombits(0x7FF8DEADBEEF0001)}, // NaN payload
		{Timestamp: 6, Value: math.MaxFloat64},
		{Timestamp: 7, Value: math.SmallestNonzeroFloat64},
	})
}

func TestBlockEmptyAndSingle(t *testing.T) {
	roundtrip(t, nil)
	roundtrip(t, []Sample{{Timestamp: -12345, Value: 42.5}})
	roundtrip(t, []Sample{{Timestamp: math.MaxInt64 / 2, Value: -1e300}})
}

func TestBlockOutOfOrderAndDuplicates(t *testing.T) {
	// The codec itself is order-agnostic: negative deltas and repeated
	// timestamps round-trip losslessly (the seal path sorts before
	// encoding, but the codec must not depend on it).
	roundtrip(t, []Sample{
		{Timestamp: 100, Value: 1},
		{Timestamp: 50, Value: 2},
		{Timestamp: 50, Value: 3},
		{Timestamp: 200, Value: 4},
		{Timestamp: 199, Value: 5},
		{Timestamp: -7, Value: 6},
	})
}

func TestBlockCorruptionDetected(t *testing.T) {
	samples := make([]Sample, 100)
	for i := range samples {
		samples[i] = Sample{Timestamp: int64(i), Value: float64(i)}
	}
	data := EncodeBlock(samples)
	// Truncation must surface ErrBadBlock, not loop or panic.
	for _, cut := range []int{0, 1, len(data) / 2, len(data) - 1} {
		if _, err := DecodeBlock(nil, data[:cut]); err == nil {
			// A short prefix can still be a valid smaller block only if
			// the count header says so; with 100 samples it cannot.
			t.Fatalf("truncated block at %d decoded without error", cut)
		}
	}
	// An absurd count header fails fast.
	if _, err := DecodeBlock(nil, []byte{0xFF, 0xFF, 0xFF, 0x7F}); err == nil {
		t.Fatal("bogus count header decoded without error")
	}
}

func TestQuantizeValue(t *testing.T) {
	if got := QuantizeValue(1.04, 4); got != 1.0625 {
		t.Fatalf("QuantizeValue(1.04, 4) = %v, want 1.0625", got)
	}
	if !math.IsNaN(QuantizeValue(math.NaN(), 4)) {
		t.Fatal("NaN must pass through quantization")
	}
	if !math.IsInf(QuantizeValue(math.Inf(-1), 4), -1) {
		t.Fatal("-Inf must pass through quantization")
	}
}

// sortedSamples draws n samples with strictly increasing timestamps
// whose steps reach every delta-of-delta class — the 1 Hz zero, the
// 7-, 9- and 12-bit classes and the 64-bit escape — and whose values mix
// a quantized walk, repeats, level jumps, ±Inf and NaNs with payloads.
func sortedSamples(r *rng, n int) []Sample {
	out := make([]Sample, 0, n)
	ts := int64(r.next()%1e6) - 5e5
	v := 100 * r.norm()
	for i := 0; i < n; i++ {
		switch r.next() % 12 {
		case 0:
			v = math.Float64frombits(0x7FF8000000000000 | r.next()&0xFFFFFFFFFFFF) // NaN payload
		case 1:
			v = math.Inf(1 - 2*int(r.next()%2))
		case 2:
			v = 1e6 * (r.float() - 0.5)
		case 3: // a repeat: the '0' value code
		default:
			v = QuantizeValue(500+100*r.norm(), 4)
		}
		out = append(out, Sample{Timestamp: ts, Value: v})
		switch r.next() % 10 {
		case 0:
			ts += int64(r.next()%60) + 2
		case 1:
			ts += int64(r.next()%250) + 60
		case 2:
			ts += int64(r.next()%2000) + 250
		case 3:
			ts += int64(r.next()%1e7) + 3000
		default:
			ts++
		}
	}
	return out
}

// TestBlockSeekWindowMatchesFullDecode holds the sealed tier's window
// read — seek to the last mark before the window, stop past its end —
// to a full decode filtered to the window, bit for bit, over seeded
// random sorted blocks and windows: inside, across and outside the
// block, and edges on mark boundaries.
func TestBlockSeekWindowMatchesFullDecode(t *testing.T) {
	r := rng(38)
	for trial := 0; trial < 300; trial++ {
		n := int(r.next() % 1500)
		samples := sortedSamples(&r, n)
		data, marks := encodeBlockMarked(samples)
		if want := max(n-1, 0) / blockMarkEvery; len(marks) != want {
			t.Fatalf("trial %d: %d samples gave %d marks, want %d", trial, n, len(marks), want)
		}
		full, err := DecodeBlock(nil, data)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			if got, err := decodeWindow(nil, data, marks, -1e9, 1e9); err != nil || len(got) != 0 {
				t.Fatalf("empty block: window read %d samples, err %v", len(got), err)
			}
			continue
		}
		lo, hi := samples[0].Timestamp, samples[n-1].Timestamp
		pick := func() int64 {
			switch r.next() % 4 {
			case 0: // a mark's own sample or the one before it
				if len(marks) > 0 {
					m := marks[r.next()%uint64(len(marks))]
					return samples[int(m.idx)-int(r.next()%2)].Timestamp
				}
			case 1: // any sample's timestamp
				return samples[r.next()%uint64(n)].Timestamp
			}
			return lo - 10 + int64(r.next()%uint64(hi-lo+21))
		}
		for w := 0; w < 20; w++ {
			start, end := pick(), pick()
			if start > end {
				start, end = end, start
			}
			got, err := decodeWindow(nil, data, marks, start, end)
			if err != nil {
				t.Fatalf("trial %d window [%d, %d]: %v", trial, start, end, err)
			}
			var want []Sample
			for _, s := range full {
				if s.Timestamp >= start && s.Timestamp <= end {
					want = append(want, s)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d window [%d, %d]: %d samples, want %d", trial, start, end, len(got), len(want))
			}
			for i := range want {
				if got[i].Timestamp != want[i].Timestamp || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
					t.Fatalf("trial %d window [%d, %d] sample %d: %+v, want %+v", trial, start, end, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBlockMarksLeaveBytesAlone: recording marks changes nothing in the
// block format — seeded blocks hash to the bytes the codec wrote before
// it kept marks, so sealed payloads and spill files stay readable both
// ways — and the marks sit every blockMarkEvery samples, each holding
// the timestamp of the sample before it.
func TestBlockMarksLeaveBytesAlone(t *testing.T) {
	const want = "c10426e876ebb74ae273c3e3ad640471f1cb21ee794a79536c360de6b655b5e5"
	r := rng(11)
	h := sha256.New()
	for trial := 0; trial < 20; trial++ {
		samples := sortedSamples(&r, int(r.next()%1000)+1)
		data, marks := encodeBlockMarked(samples)
		h.Write(data)
		if len(marks) != (len(samples)-1)/blockMarkEvery {
			t.Fatalf("trial %d: %d marks for %d samples", trial, len(marks), len(samples))
		}
		for i, m := range marks {
			if int(m.idx) != (i+1)*blockMarkEvery || m.ts != samples[m.idx-1].Timestamp {
				t.Fatalf("trial %d mark %d = %+v", trial, i, m)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("block bytes hash %s, want %s: the sealed format changed", got, want)
	}
}

// TestBlockSeekRejectsForeignMark: a mark that cannot belong to the
// block — past its sample count or its bytes — leaves the iterator in
// error instead of decoding garbage.
func TestBlockSeekRejectsForeignMark(t *testing.T) {
	r := rng(5)
	data, marks := encodeBlockMarked(sortedSamples(&r, 300))
	short := EncodeBlock(sortedSamples(&r, 100))
	for _, m := range []blockMark{marks[1], {idx: 0}, {idx: 1, bit: 1 << 30}} {
		var it BlockIter
		it.Reset(short)
		it.seek(m)
		if it.Next() || it.Err() == nil {
			t.Fatalf("seek to %+v on a 100-sample block did not fail", m)
		}
	}
	var it BlockIter
	it.Reset(data)
	it.seek(marks[0])
	n := 0
	for it.Next() {
		n++
	}
	if it.Err() != nil || n != 300-blockMarkEvery {
		t.Fatalf("from the first mark: %d samples, err %v", n, it.Err())
	}
}

// TestBlockWindowReadsOnlyItsBytes: a window read touches the block's
// bytes from the last mark before the window to the window's end and no
// others. With every byte before that mark clobbered and the block cut
// at the mark after the window, it still returns the window exactly; a
// read from the block's start, or one that does not stop at the
// window's end, would decode garbage or run off the cut.
func TestBlockWindowReadsOnlyItsBytes(t *testing.T) {
	r := rng(9)
	samples := make([]Sample, RowSeconds)
	v := 500.0
	for i := range samples {
		v += r.norm()
		samples[i] = Sample{Timestamp: int64(i), Value: QuantizeValue(v, 4)}
	}
	data, marks := encodeBlockMarked(samples)
	const start, end = 2000, 2100
	from, to := marks[start/blockMarkEvery-1], marks[end/blockMarkEvery] // idx 1920 and 2176
	n := len(binary.AppendUvarint(nil, uint64(len(samples))))            // the count header
	block := append([]byte(nil), data[:n+int(to.bit/8)+1]...)
	for i := n; i < n+int(from.bit/8); i++ {
		block[i] = 0xFF
	}
	got, err := decodeWindow(nil, block, marks, start, end)
	if err != nil || len(got) != end-start+1 {
		t.Fatalf("window read of the clobbered block: %d samples, err %v", len(got), err)
	}
	for i, s := range got {
		if w := samples[start+i]; s != w {
			t.Fatalf("sample %d = %+v, want %+v", i, s, w)
		}
	}
	if full, err := DecodeBlock(nil, block); err == nil && len(full) == len(samples) {
		t.Fatal("the clobbered block still decodes from its start: the test proves nothing")
	}
}
