package rpc_test

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/rpc"
	"repro/internal/rpc/wiretest"
)

func init() {
	gob.Register([]string(nil))
	gob.Register(map[string]string(nil))
}

// TestWireBuiltinsRoundTrip: every built-in payload type survives the
// codec as it survived gob, over generated values — nil and empty
// slices and maps, negative and extreme integers, NaN and ±Inf.
func TestWireBuiltinsRoundTrip(t *testing.T) {
	g := wiretest.NewGen(1)
	wiretest.RoundTrip(t, nil, gob.NewEncoder, gob.NewDecoder)
	for i := 0; i < 300; i++ {
		for _, v := range []any{
			g.Int(), g.Int64(), g.Uint64(), g.Float(), g.Str(40), g.IntN(2) == 0,
			g.Bytes(40), g.Strings(5), g.StringMap(5),
		} {
			wiretest.RoundTrip(t, v, gob.NewEncoder, gob.NewDecoder)
		}
	}
}

// TestEncodeValueOwnsItsBytes: EncodeValue's result is exactly what
// AppendValue appends and shares no memory with the next call's.
func TestEncodeValueOwnsItsBytes(t *testing.T) {
	a, err := rpc.EncodeValue("first value")
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(a)
	if _, err := rpc.EncodeValue("SECOND VALUE, LONGER"); err != nil {
		t.Fatal(err)
	}
	if ref, _ := rpc.AppendValue(nil, "first value"); !bytes.Equal(a, want) || !bytes.Equal(a, ref) {
		t.Fatalf("EncodeValue result changed under a later call: %q", a)
	}
}
