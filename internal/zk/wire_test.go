package zk

import (
	"encoding/gob"
	"testing"

	"repro/internal/rpc/wiretest"
)

func init() {
	gob.Register(&zkOp{})
	gob.Register(&zkResult{})
}

// TestZKWireRoundTrip: the coordination service's two wire types
// survive the codec as they survived gob, over generated values.
func TestZKWireRoundTrip(t *testing.T) {
	g := wiretest.NewGen(3)
	for i := 0; i < 200; i++ {
		op := &zkOp{Session: g.Int64(), Path: g.Str(40), Data: g.Bytes(100), Flag: g.IntN(2) == 0, Version: g.Int(), Czxid: g.Int64()}
		res := &zkResult{
			Session: g.Int64(), Path: g.Str(40), Data: g.Bytes(100), Version: g.Int(),
			Eph: g.IntN(2) == 0, Owner: g.Int64(), OK: g.IntN(2) == 0, Children: g.Strings(8),
			Czxid: g.Int64(), Cversion: g.Int(), Event: g.IntN(5),
		}
		for _, v := range []any{op, res} {
			wiretest.RoundTrip(t, v, gob.NewEncoder, gob.NewDecoder)
		}
	}
}
