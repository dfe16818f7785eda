package ingest

import (
	"encoding/gob"
	"strconv"
	"testing"

	"repro/internal/rpc"
	"repro/internal/rpc/wiretest"
	"repro/internal/tsdb"
)

func init() {
	gob.Register(&UnitBatch{})
	rpc.RegisterWireType(rpc.TagUnitBatch, DecodeUnitBatch)
}

// TestUnitBatchWireRoundTrip: the bus record value survives the codec
// as it survived gob — empty, one-point and 1 000-point batches, rows of
// the fleet's shape and points with arbitrary metrics, tags and values.
func TestUnitBatchWireRoundTrip(t *testing.T) {
	g := wiretest.NewGen(6)
	for _, n := range []int{0, 1, 50, 1000} {
		b := &UnitBatch{Unit: g.Int(), Points: make([]tsdb.Point, n)}
		for i := range b.Points {
			b.Points[i] = tsdb.EnergyPoint(3, i, g.Int64(), g.Float())
			if g.IntN(4) == 0 {
				b.Points[i] = tsdb.Point{Metric: g.Str(10), Tags: g.StringMap(4), Timestamp: g.Int64(), Value: g.Float()}
			}
		}
		wiretest.RoundTrip(t, b, gob.NewEncoder, gob.NewDecoder)
	}
	wiretest.RoundTrip(t, &UnitBatch{Points: []tsdb.Point{}}, gob.NewEncoder, gob.NewDecoder)
}

// BenchmarkWireUnitBatch is the one encode a producer and the one
// decode a consumer pay per bus record on the clustered bus, for a 50-
// and a 200-sensor row with the tag sets already interned. Pinned in
// ALLOC_PINS: encoding into a buffer with room allocates nothing, and
// decoding allocates the batch and its points slice — per record, not
// per point, so the pin is the same at both widths.
func BenchmarkWireUnitBatch(b *testing.B) {
	for _, sensors := range []int{50, 200} {
		batch := &UnitBatch{Unit: 7, Points: unitRow(7, sensors, 1_700_000_000)}
		enc, err := rpc.AppendValue(nil, batch)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rpc.DecodeValue(enc); err != nil { // warm the intern table
			b.Fatal(err)
		}
		b.Run("encode/sensors="+strconv.Itoa(sensors), func(b *testing.B) {
			buf := make([]byte, 0, 2*len(enc))
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buf, err = rpc.AppendValue(buf[:0], batch); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/sensors="+strconv.Itoa(sensors), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				v, err := rpc.DecodeValue(enc)
				if err != nil || len(v.(*UnitBatch).Points) != sensors {
					b.Fatal(err)
				}
			}
		})
	}
}
