// Package wiretest holds the round-trip property every type registered
// with internal/rpc's wire codec must satisfy, and the generator of
// awkward values to check it over, so each owning package's test states
// only how to build its type. Tests only; nothing outside _test files
// imports it.
package wiretest

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/rpc"
)

// envelope carries a value in an interface, as the gob transport's
// request and response structs carried payloads.
type envelope struct{ V any }

// RoundTrip checks the codec's contract on v, a value of a registered
// wire type (or a built-in): decode(encode(v)) equals v and equals what
// a round trip through the reference codec yields — callers pass
// gob.NewEncoder and gob.NewDecoder, the codec the transport used to
// speak, and have gob.Register'ed v's type; every strict prefix of the
// encoding fails to decode, as does the encoding with a byte appended;
// and what was decoded does not alias the encoded bytes.
func RoundTrip[E interface{ Encode(any) error }, D interface{ Decode(any) error }](
	t testing.TB, v any, newEncoder func(io.Writer) E, newDecoder func(io.Reader) D) {
	t.Helper()
	var (
		buf bytes.Buffer
		ref envelope
	)
	if err := newEncoder(&buf).Encode(envelope{v}); err != nil {
		t.Fatalf("reference encode %T: %v", v, err)
	}
	if err := newDecoder(&buf).Decode(&ref); err != nil {
		t.Fatalf("reference decode %T: %v", v, err)
	}
	reference := ref.V
	enc, err := rpc.AppendValue(nil, v)
	if err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	// Decode from a buffer with a marker beyond its length: a decoder
	// that trusted a length over the slice bounds would read it.
	backing := append(bytes.Clone(enc), "NEIGHBOUR-FRAME"...)
	got, err := rpc.DecodeValue(backing[:len(enc):len(enc)])
	if err != nil {
		t.Fatalf("decode %T: %v\nvalue %+v", v, err, v)
	}
	if !Equal(got, v) {
		t.Fatalf("%T round trip:\n got %+v\nwant %+v", v, got, v)
	}
	for i := range backing {
		backing[i] = 0xAA
	}
	if !Equal(got, v) {
		t.Fatalf("%T: decoded value aliases the bytes it was decoded from", v)
	}

	if !equal(reflect.ValueOf(got), reflect.ValueOf(reference), false) {
		t.Fatalf("%T: wire and the reference codec disagree:\nwire %+v\n ref %+v", v, got, reference)
	}

	// Every prefix of a short encoding; a long one is cut at ~512 places.
	for cut, step := 0, 1+len(enc)/512; cut < len(enc); cut += step {
		if _, err := rpc.DecodeValue(enc[:cut]); err == nil {
			t.Fatalf("%T: %d-byte prefix of a %d-byte encoding decoded", v, cut, len(enc))
		}
	}
	if _, err := rpc.DecodeValue(append(bytes.Clone(enc), 0)); !errors.Is(err, rpc.ErrWireCorrupt) {
		t.Fatalf("%T: trailing byte: %v, want ErrWireCorrupt", v, err)
	}
}

// Equal is deep equality as the wire sees it: floats compare by bits
// (NaN equals the same NaN, -0 differs from 0), and an empty slice or
// map equals a nil one — gob never told them apart either.
func Equal(a, b any) bool { return equal(reflect.ValueOf(a), reflect.ValueOf(b), true) }

// equal is Equal; with bits off, floats compare by value plus NaN equal
// to NaN, which is all gob preserves (it drops the sign of a zero).
func equal(a, b reflect.Value, bits bool) bool {
	if !a.IsValid() || !b.IsValid() {
		return a.IsValid() == b.IsValid()
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float()
		if bits {
			return math.Float64bits(x) == math.Float64bits(y)
		}
		return x == y || (x != x && y != y)
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return equal(a.Elem(), b.Elem(), bits)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !equal(a.Field(i), b.Field(i), bits) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equal(a.Index(i), b.Index(i), bits) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() || !equal(it.Value(), bv, bits) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

// Gen draws the awkward values a round-trip property should cover.
type Gen struct{ *rand.Rand }

// NewGen returns a generator seeded with seed.
func NewGen(seed uint64) Gen { return Gen{rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))} }

// Int64 returns an integer of any sign and magnitude, edge values
// included.
func (g Gen) Int64() int64 {
	edges := []int64{0, 1, -1, 63, 64, -64, -65, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	if g.IntN(3) == 0 {
		return edges[g.IntN(len(edges))]
	}
	return int64(g.Uint64()) >> g.IntN(64)
}

// Int returns Int64 narrowed to int.
func (g Gen) Int() int { return int(g.Int64()) }

// Float returns a float, NaN, ±Inf and -0 included.
func (g Gen) Float() float64 {
	edges := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	if g.IntN(3) == 0 {
		return edges[g.IntN(len(edges))]
	}
	return math.Float64frombits(g.Uint64())
}

// Str returns a string of up to max bytes, any byte value.
func (g Gen) Str(max int) string { return string(g.Bytes(max)) }

// Bytes returns nil, an empty slice, or up to max random bytes.
func (g Gen) Bytes(max int) []byte {
	switch g.IntN(4) {
	case 0:
		return nil
	case 1:
		return []byte{}
	}
	b := make([]byte, g.IntN(max+1))
	for i := range b {
		b[i] = byte(g.Uint32())
	}
	return b
}

// Strings returns nil, an empty slice, or up to n strings.
func (g Gen) Strings(n int) []string {
	switch g.IntN(4) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, g.IntN(n+1))
	for i := range out {
		out[i] = g.Str(12)
	}
	return out
}

// StringMap returns nil, an empty map, or up to n pairs.
func (g Gen) StringMap(n int) map[string]string {
	switch g.IntN(4) {
	case 0:
		return nil
	case 1:
		return map[string]string{}
	}
	m := make(map[string]string)
	for i := g.IntN(n + 1); i > 0; i-- {
		m[g.Str(8)] = g.Str(8)
	}
	return m
}
