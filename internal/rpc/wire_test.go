package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// unregistered implements WireEncoder but was never given a tag.
type unregistered struct{}

func (unregistered) AppendWire(b []byte) ([]byte, error) { return b, nil }

// TestUnencodablePayloadFailsOnlyItsCall: a request or a response the
// codec cannot encode — an unregistered type, a frame over the cap —
// fails that one call with a named error; calls sharing the connection,
// in flight or later, are untouched (with gob the failed Encode
// poisoned the stream and the connection was closed).
func TestUnencodablePayloadFailsOnlyItsCall(t *testing.T) {
	release := make(chan struct{})
	_, tr := startServerNet(t, "srv", func(ctx context.Context, method string, payload any) (any, error) {
		switch method {
		case "slow":
			<-release
			return "slow-done", nil
		case "bad-result":
			return unregistered{}, nil
		case "huge-result":
			return make([]byte, MaxFrame+1), nil
		}
		return payload, nil
	})
	client := NewNetwork(0, nil)
	defer client.Close()
	client.AddRoute("srv", tr.Addr().String())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	inflight := client.Go(ctx, "srv", "slow", nil)
	for _, tc := range []struct {
		method  string
		payload any
		want    error
	}{
		{"echo", unregistered{}, ErrWireType},
		{"echo", struct{ X int }{1}, ErrWireType},
		{"echo", make([]byte, MaxFrame+1), ErrFrameTooLarge},
		{"bad-result", nil, ErrWireType},
		{"huge-result", nil, ErrFrameTooLarge},
	} {
		_, err := client.Call(ctx, "srv", tc.method, tc.payload)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s(%T): err = %v, want %v", tc.method, tc.payload, err, tc.want)
		}
		if errors.Is(err, ErrPeerUnreachable) {
			t.Errorf("%s(%T): the connection was dropped: %v", tc.method, tc.payload, err)
		}
		if v, err := client.Call(ctx, "srv", "echo", "after"); err != nil || v != "after" {
			t.Fatalf("call after a failed %s: %v, %v", tc.method, v, err)
		}
	}
	close(release)
	if v, err := inflight.Wait(ctx); err != nil || v != "slow-done" {
		t.Fatalf("the call in flight across the failures: %v, %v", v, err)
	}
}

// TestDecodedFrameNotAliased: the connection's read buffer is reused for
// the next frame, so nothing a decoded payload keeps may point into it.
func TestDecodedFrameNotAliased(t *testing.T) {
	var (
		mu   sync.Mutex
		seen []any
	)
	_, tr := startServerNet(t, "srv", func(ctx context.Context, method string, payload any) (any, error) {
		mu.Lock()
		seen = append(seen, payload)
		mu.Unlock()
		return payload, nil
	})
	client := NewNetwork(0, nil)
	defer client.Close()
	client.AddRoute("srv", tr.Addr().String())
	ctx := context.Background()

	first := []any{
		bytes.Repeat([]byte{'a'}, 300),
		strings.Repeat("b", 300),
		[]string{strings.Repeat("c", 100), strings.Repeat("d", 100)},
		map[string]string{strings.Repeat("e", 100): strings.Repeat("f", 100)},
		&echoPayload{N: 7, S: strings.Repeat("g", 300)},
	}
	var kept []any
	for _, p := range first {
		v, err := client.Call(ctx, "srv", "m", p)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, v)
	}
	// Same-sized frames of other bytes overwrite both read buffers.
	for i := 0; i < 8; i++ {
		if _, err := client.Call(ctx, "srv", "m", bytes.Repeat([]byte{'z'}, 300)); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, want := range first {
		if got := fmt.Sprint(kept[i]); got != fmt.Sprint(want) {
			t.Errorf("response %d changed under later frames: %s", i, got)
		}
		if got := fmt.Sprint(seen[i]); got != fmt.Sprint(want) {
			t.Errorf("request %d changed under later frames: %s", i, got)
		}
	}
}

// TestDecodeRejectsLyingCounts: a count or length larger than the bytes
// that remain is refused before anything is allocated for it.
func TestDecodeRejectsLyingCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	for name, enc := range map[string][]byte{
		"string":     append([]byte{tagString}, huge...),
		"bytes":      append([]byte{tagBytes}, huge...),
		"strings":    append([]byte{tagStrings}, huge...),
		"string map": append([]byte{tagStringMap}, huge...),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeValue(enc)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrWireCorrupt) {
			t.Errorf("%s claiming 2^40 elements: err = %v, want ErrWireCorrupt", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s claiming 2^40 elements allocated %d bytes before failing", name, grew)
		}
	}
	// A frame announcing more than the cap is refused from its prefix.
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := readFrame(bytes.NewReader(hdr[:]), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize announcement: err = %v, want ErrFrameTooLarge", err)
	}
}

// TestDeferredReply: a handler that returns a Deferred frees its worker
// at once, the caller gets whatever reply is later called with, and the
// call stays in flight for Drain until then.
func TestDeferredReply(t *testing.T) {
	n := NewNetwork(0, nil)
	defer n.Close()
	replies := make(chan func(any, error), 4)
	srv, err := n.Register("poll", func(ctx context.Context, method string, payload any) (any, error) {
		if method == "park" {
			return Deferred(func(reply func(any, error)) { replies <- reply }), nil
		}
		return "now", nil
	}, ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	parked := []*Future{n.Go(ctx, "poll", "park", nil), n.Go(ctx, "poll", "park", nil)}
	// Two parked calls and one worker: an ordinary call still gets it.
	if v, err := n.Call(ctx, "poll", "m", nil); err != nil || v != "now" {
		t.Fatalf("call behind parked long-polls: %v, %v", v, err)
	}
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(ctx) }()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with two deferred calls unanswered", err)
	case <-time.After(50 * time.Millisecond):
	}
	(<-replies)("first", nil)
	(<-replies)(nil, errors.New("second failed"))
	if err := <-drained; err != nil {
		t.Fatalf("Drain after the replies: %v", err)
	}
	var got []string
	for _, f := range parked {
		v, err := f.Wait(ctx)
		got = append(got, fmt.Sprintf("%v %v", v, err))
	}
	// One worker serves the queue in order, so the first reply function
	// belongs to the first call.
	if want := []string{"first <nil>", "<nil> second failed"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("deferred results %v, want %v", got, want)
	}
}

// wireSeedFrames are well-formed frames of every shape the fuzz target
// starts from.
func wireSeedFrames(t testing.TB) [][]byte {
	var out [][]byte
	for _, payload := range []any{
		nil, 42, int64(-7), uint64(1 << 63), 2.5, "hello", true,
		[]byte("bytes"), []string{"a", "", "c"}, map[string]string{"unit": "3", "sensor": "17"},
		&echoPayload{N: -1, S: "registered"},
	} {
		req, err := appendRequest(nil, &request{id: 9, addr: "bus/broker", method: "publish", budgetMS: 2000, payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := appendResponse(nil, &response{id: 9, payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, req, resp)
	}
	fail, err := appendResponse(nil, &response{id: 3, errCode: ErrServerDown.Error(), errMsg: "rpc: server down: tsd-1"})
	if err != nil {
		t.Fatal(err)
	}
	return append(out, fail)
}

// FuzzWireFrame feeds the frame reader and both frame decoders
// arbitrary bytes — the seeds are well-formed frames, the mutations
// truncate them, flip bits, and lie about lengths. Whatever arrives:
// no panic; a frame over the cap is refused unread; a body decodes or
// errors without a field reaching past the frame into the neighbouring
// bytes of the buffer it sits in; and a frame that does decode
// re-encodes to a frame that decodes to the same thing.
func FuzzWireFrame(f *testing.F) {
	for _, frame := range wireSeedFrames(f) {
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
	const marker = "NEIGHBOUR"
	f.Fuzz(func(t *testing.T, data []byte) {
		// The frame is read into a buffer that still holds an earlier,
		// longer frame's bytes beyond it: a reused read buffer.
		body, err := readFrame(bytes.NewReader(data), bytes.Repeat([]byte(marker), 1<<10))
		if err != nil {
			if len(data) >= frameHeader && binary.LittleEndian.Uint32(data) > MaxFrame && !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("oversize frame: %v", err)
			}
			return
		}
		if len(body) > MaxFrame {
			t.Fatalf("read a %d-byte frame past the cap", len(body))
		}
		own := bytes.Contains(body, []byte(marker))
		leaked := func(v any) bool { return !own && strings.Contains(fmt.Sprintf("%v", v), marker) }
		if q, _, err := decodeRequest(body); err == nil {
			if leaked(q.addr) || leaked(q.method) || leaked(q.payload) {
				t.Fatalf("request decoded a neighbouring frame's bytes: %+v", q)
			}
			again, err := appendRequest(nil, &q)
			if err != nil {
				t.Fatalf("re-encode request %+v: %v", q, err)
			}
			q2, _, err := decodeRequest(again[frameHeader:])
			if err != nil || !samePayload(q.payload, q2.payload) ||
				q2.id != q.id || q2.addr != q.addr || q2.method != q.method || q2.budgetMS != q.budgetMS {
				t.Fatalf("request round trip: %+v vs %+v (%v)", q2, q, err)
			}
		}
		if p, _, err := decodeResponse(body); err == nil {
			if leaked(p.errCode) || leaked(p.errMsg) || leaked(p.payload) {
				t.Fatalf("response decoded a neighbouring frame's bytes: %+v", p)
			}
			again, err := appendResponse(nil, &p)
			if err != nil {
				t.Fatalf("re-encode response %+v: %v", p, err)
			}
			p2, _, err := decodeResponse(again[frameHeader:])
			if err != nil || !samePayload(p.payload, p2.payload) ||
				p2.id != p.id || p2.errCode != p.errCode || p2.errMsg != p.errMsg {
				t.Fatalf("response round trip: %+v vs %+v (%v)", p2, p, err)
			}
		}
	})
}

// samePayload is deep equality, with a float compared by its bits (NaN
// is a legal payload).
func samePayload(a, b any) bool {
	if x, ok := a.(float64); ok {
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	}
	return reflect.DeepEqual(a, b)
}
