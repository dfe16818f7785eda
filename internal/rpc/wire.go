package rpc

// wire.go is the one codec of the TCP bridge (transport.go): the frame
// layout, the tagged payload values inside a frame, and the registry
// through which every struct that crosses the wire brings its own
// append-encode and bounds-checked decode. The package documentation
// ("The wire format") is the reference; this file is the
// implementation.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
)

// MaxFrame caps one frame's body. The encoder refuses to build a larger
// frame and the decoder refuses to read one, so a lying length prefix
// costs at most this much memory.
const MaxFrame = 16 << 20

// Codec errors. All three are wire-registered: a server that cannot
// encode a handler's result answers the call with the named error.
var (
	// ErrWireType marks a payload whose Go type (encoding) or tag
	// (decoding) has no registered wire form.
	ErrWireType = errors.New("rpc: unregistered wire type")
	// ErrFrameTooLarge marks a frame over MaxFrame.
	ErrFrameTooLarge = errors.New("rpc: frame exceeds the 16 MiB cap")
	// ErrWireCorrupt marks bytes that do not decode: a truncated field,
	// a length or count larger than what remains of the frame, trailing
	// bytes.
	ErrWireCorrupt = errors.New("rpc: malformed wire bytes")
)

// Payload tags. 0–9 are the built-in Go types any handler may send or
// return bare; 16 and up belong to the structs registered with
// RegisterWireType, listed here so two packages cannot claim one tag.
const (
	tagNil byte = iota
	tagInt
	tagInt64
	tagString
	tagBool
	tagBytes
	tagStrings
	tagStringMap
	tagUint64
	tagFloat64
)

// Tags of the registered structs.
const (
	TagBusOp byte = 16 + iota
	TagBusResult
	TagBusRecord
	TagZKOp
	TagZKResult
	TagUnitBatch
	TagAnomaly
	TagPutBatch
	TagQueryRequest
	TagQueryResponse
)

// WireEncoder is implemented by every registered wire type: AppendWire
// appends the value's body (no tag) to b and returns the extended
// slice.
type WireEncoder interface {
	AppendWire(b []byte) ([]byte, error)
}

// wireTable is the registry: Go type → tag for encoding, tag → decoder
// for decoding. Replaced whole on registration, so the hot paths read
// it with one atomic load.
type wireTable struct {
	tags map[reflect.Type]byte
	dec  [256]func(*WireReader) any
}

var (
	wireRegMu sync.Mutex
	wireTypes atomic.Pointer[wireTable]
)

// RegisterWireType gives T the payload tag and the decoder that
// rebuilds a T from the body T.AppendWire wrote. Register the shape
// handlers exchange — *T for structs passed by pointer. Registering the
// same type under the same tag again is a no-op; a tag or type claimed
// twice is a programming error and panics.
func RegisterWireType[T WireEncoder](tag byte, decode func(*WireReader) T) {
	if tag <= tagFloat64 {
		panic(fmt.Sprintf("rpc: wire tag %d is a built-in", tag))
	}
	typ := reflect.TypeFor[T]()
	wireRegMu.Lock()
	defer wireRegMu.Unlock()
	next := &wireTable{tags: map[reflect.Type]byte{typ: tag}}
	if cur := wireTypes.Load(); cur != nil {
		if have, ok := cur.tags[typ]; ok && have == tag {
			return
		}
		for t, g := range cur.tags {
			if t == typ || g == tag {
				panic(fmt.Sprintf("rpc: wire type %v under tag %d collides with %v under tag %d", typ, tag, t, g))
			}
			next.tags[t] = g
		}
		next.dec = cur.dec
	}
	next.dec[tag] = func(r *WireReader) any { return decode(r) }
	wireTypes.Store(next)
}

// ---- encoding ---------------------------------------------------------

// AppendUint appends x as a uvarint.
func AppendUint(b []byte, x uint64) []byte { return binary.AppendUvarint(b, x) }

// AppendInt appends x as a zigzag varint.
func AppendInt(b []byte, x int64) []byte { return binary.AppendVarint(b, x) }

// AppendBool appends one byte, 0 or 1.
func AppendBool(b []byte, x bool) []byte {
	if x {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat appends x's IEEE-754 bits, little-endian: NaN payloads,
// -0 and ±Inf cross unchanged.
func AppendFloat(b []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
}

// AppendString appends a uvarint length and the bytes of s.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBytes appends a uvarint length and p. A nil and an empty slice
// encode alike and decode as nil.
func AppendBytes(b, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// AppendStrings appends a count and each string. A nil and an empty
// slice encode alike and decode as nil.
func AppendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// AppendStringMap appends 0 for a nil map, else len+1 and the pairs in
// map order.
func AppendStringMap(b []byte, m map[string]string) []byte {
	if m == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(m))+1)
	for k, v := range m {
		b = AppendString(AppendString(b, k), v)
	}
	return b
}

// AppendValue appends v as a self-contained tagged value: one tag byte
// and the body. v must be nil, one of the built-in types, or a
// registered wire type; anything else fails with ErrWireType and b is
// returned unextended.
func AppendValue(b []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case nil:
		return append(b, tagNil), nil
	case int:
		return AppendInt(append(b, tagInt), int64(v)), nil
	case int64:
		return AppendInt(append(b, tagInt64), v), nil
	case string:
		return AppendString(append(b, tagString), v), nil
	case bool:
		return AppendBool(append(b, tagBool), v), nil
	case []byte:
		return AppendBytes(append(b, tagBytes), v), nil
	case []string:
		return AppendStrings(append(b, tagStrings), v), nil
	case map[string]string:
		return AppendStringMap(append(b, tagStringMap), v), nil
	case uint64:
		return AppendUint(append(b, tagUint64), v), nil
	case float64:
		return AppendFloat(append(b, tagFloat64), v), nil
	case WireEncoder:
		if tab := wireTypes.Load(); tab != nil {
			if tag, ok := tab.tags[reflect.TypeOf(v)]; ok {
				out, err := v.AppendWire(append(b, tag))
				if err != nil {
					return b, err
				}
				return out, nil
			}
		}
	}
	return b, fmt.Errorf("%w: %T", ErrWireType, v)
}

// valueScratch holds the buffers EncodeValue sizes its result from.
var valueScratch = sync.Pool{New: func() any { return new([]byte) }}

// EncodeValue returns v as freshly allocated tagged bytes — what
// AppendValue appends, in a slice of its own. The result is the caller's and is
// never written again by this package, which is what lets the clustered
// bus store it in a log and forward it verbatim.
func EncodeValue(v any) ([]byte, error) {
	sp := valueScratch.Get().(*[]byte)
	buf, err := AppendValue((*sp)[:0], v)
	var out []byte
	if err == nil {
		if len(buf) > MaxFrame {
			err = fmt.Errorf("%w: %T value of %d bytes", ErrFrameTooLarge, v, len(buf))
		} else {
			out = bytes.Clone(buf)
		}
	}
	if cap(buf) <= maxKeptBuffer {
		*sp = buf
	}
	valueScratch.Put(sp)
	return out, err
}

// DecodeValue decodes tagged bytes produced by AppendValue or
// EncodeValue. All of b must be consumed. Nothing in the result aliases
// b.
func DecodeValue(b []byte) (any, error) {
	r := WireReader{b: b}
	v := r.Value()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return v, nil
}

// ---- decoding ---------------------------------------------------------

// WireReader consumes one frame's (or one value's) bytes field by
// field. Every read is bounds-checked against what remains; the first
// failure sticks — later reads return zero values — so a decoder reads
// its fields in a row and checks Err (or lets the transport check it)
// once. Strings and byte slices it returns are copies; only View
// aliases the input.
type WireReader struct {
	b   []byte
	err error
}

// NewWireReader reads from b.
func NewWireReader(b []byte) *WireReader { return &WireReader{b: b} }

// Err returns the first decoding failure, nil if none.
func (r *WireReader) Err() error { return r.err }

// Done returns Err, or ErrWireCorrupt when bytes remain unread.
func (r *WireReader) Done() error {
	if r.err == nil && len(r.b) > 0 {
		r.fail("trailing bytes")
	}
	return r.err
}

// Fail records err as the reader's failure unless one is already set;
// decoders use it to reject a value that parsed but is not valid.
func (r *WireReader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *WireReader) fail(what string) {
	r.Fail(fmt.Errorf("%w: %s", ErrWireCorrupt, what))
}

// Uint reads a uvarint.
func (r *WireReader) Uint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int reads a zigzag varint.
func (r *WireReader) Int() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Byte reads one byte.
func (r *WireReader) Byte() byte {
	if len(r.b) == 0 {
		r.fail("short byte")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Bool reads one byte: 0 or 1.
func (r *WireReader) Bool() bool {
	c := r.Byte()
	if c > 1 {
		r.fail("bad bool")
	}
	return c == 1
}

// Float reads eight little-endian bytes of IEEE-754 bits.
func (r *WireReader) Float() float64 {
	if len(r.b) < 8 {
		r.fail("short float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// Count reads an element count and rejects it unless count elements of
// at least unit wire bytes each still fit in what remains — before the
// caller allocates anything sized by it.
func (r *WireReader) Count(unit int) int {
	n := r.Uint()
	if n > uint64(len(r.b)/unit) {
		r.fail("count exceeds the bytes that remain")
		return 0
	}
	return int(n)
}

// View reads a length-prefixed field and returns it aliasing the input:
// valid only until the bytes being decoded are reused, so a decoder may
// compare or look it up but must copy to keep it.
func (r *WireReader) View() []byte {
	n := r.Count(1)
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// Str reads a length-prefixed string.
func (r *WireReader) Str() string { return string(r.View()) }

// Bytes reads a length-prefixed byte slice into a copy; nil when empty.
func (r *WireReader) Bytes() []byte {
	v := r.View()
	if len(v) == 0 {
		return nil
	}
	return bytes.Clone(v)
}

// Strings reads what AppendStrings wrote; nil when empty.
func (r *WireReader) Strings() []string {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.Str()
	}
	return out
}

// StringMap reads what AppendStringMap wrote.
func (r *WireReader) StringMap() map[string]string {
	n := r.Uint()
	if n == 0 {
		return nil
	}
	n--
	if n > uint64(len(r.b)/2) {
		r.fail("map size exceeds the bytes that remain")
		return nil
	}
	m := make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		k := r.Str()
		m[k] = r.Str()
	}
	return m
}

// Value reads one tagged value (see AppendValue).
func (r *WireReader) Value() any {
	switch tag := r.Byte(); tag {
	case tagNil:
		return nil
	case tagInt:
		return int(r.Int())
	case tagInt64:
		return r.Int()
	case tagString:
		return r.Str()
	case tagBool:
		return r.Bool()
	case tagBytes:
		return r.Bytes()
	case tagStrings:
		return r.Strings()
	case tagStringMap:
		return r.StringMap()
	case tagUint64:
		return r.Uint()
	case tagFloat64:
		return r.Float()
	default:
		if r.err != nil {
			return nil
		}
		var dec func(*WireReader) any
		if tab := wireTypes.Load(); tab != nil {
			dec = tab.dec[tag]
		}
		if dec == nil {
			r.Fail(fmt.Errorf("%w: tag %d", ErrWireType, tag))
			return nil
		}
		v := dec(r)
		if r.err != nil {
			return nil
		}
		return v
	}
}

// ---- frames -----------------------------------------------------------

// frameHeader is the length prefix: the body's size, little-endian.
const frameHeader = 4

// maxKeptBuffer bounds the encode and read buffers a connection (or the
// EncodeValue pool) keeps between frames; one outsized frame's buffer
// is dropped after use.
const maxKeptBuffer = 1 << 20

// request is one decoded call frame.
type request struct {
	id       uint64
	addr     string
	method   string
	budgetMS int64 // remaining deadline budget; 0 = none
	payload  any
}

// response is one decoded reply frame.
type response struct {
	id      uint64
	errCode string // the matched sentinel's Error() text, "" when none
	errMsg  string // the full error text, "" on success
	payload any
}

// sealFrame writes the length prefix of the frame that started at
// b[start] (prefix included), or cuts b back to start when the body is
// over the cap.
func sealFrame(b []byte, start int) ([]byte, error) {
	n := len(b) - start - frameHeader
	if n > MaxFrame {
		return b[:start], fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// appendRequest appends q as one frame. On error b comes back
// unextended: nothing of a frame that cannot be encoded is ever sent.
func appendRequest(b []byte, q *request) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0)
	b = AppendUint(b, q.id)
	b = AppendString(b, q.addr)
	b = AppendString(b, q.method)
	b = AppendInt(b, q.budgetMS)
	b, err := AppendValue(b, q.payload)
	if err != nil {
		return b[:start], err
	}
	return sealFrame(b, start)
}

// appendResponse appends p as one frame; see appendRequest.
func appendResponse(b []byte, p *response) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0)
	b = AppendUint(b, p.id)
	b = AppendString(b, p.errCode)
	b = AppendString(b, p.errMsg)
	b, err := AppendValue(b, p.payload)
	if err != nil {
		return b[:start], err
	}
	return sealFrame(b, start)
}

// decodeRequest decodes one frame body. headerOK reports that id is
// trustworthy even though err is set — the payload, not the envelope,
// was bad — so the call can be answered with the error.
func decodeRequest(body []byte) (q request, headerOK bool, err error) {
	r := WireReader{b: body}
	q.id = r.Uint()
	q.addr = r.Str()
	q.method = r.Str()
	q.budgetMS = r.Int()
	if r.err != nil {
		return q, false, r.err
	}
	q.payload = r.Value()
	return q, true, r.Done()
}

// decodeResponse decodes one frame body; see decodeRequest.
func decodeResponse(body []byte) (p response, headerOK bool, err error) {
	r := WireReader{b: body}
	p.id = r.Uint()
	p.errCode = r.Str()
	p.errMsg = r.Str()
	if r.err != nil {
		return p, false, r.err
	}
	p.payload = r.Value()
	return p, true, r.Done()
}

// readFrame reads one frame's body from r into buf (grown as needed)
// and returns it. The body aliases buf: decode it before the next call.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > MaxFrame {
		return buf, fmt.Errorf("%w: peer announced %d bytes", ErrFrameTooLarge, n)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	return buf, nil
}
