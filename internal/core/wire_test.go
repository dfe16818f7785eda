package core

import (
	"encoding/gob"
	"testing"

	"repro/internal/rpc"
	"repro/internal/rpc/wiretest"
)

func init() {
	gob.Register(AnomalyBatch{})
	rpc.RegisterWireType(rpc.TagAnomaly, DecodeAnomalyBatch)
}

// TestAnomalyWireRoundTrip: a scored batch's flags survive the codec as
// they survived gob, over generated values (NaN scores, the -1
// unit-level sensor, one flag and many).
func TestAnomalyWireRoundTrip(t *testing.T) {
	g := wiretest.NewGen(5)
	for i := 0; i < 300; i++ {
		batch := make(AnomalyBatch, 1+g.IntN(8))
		for j := range batch {
			batch[j] = Anomaly{
				Unit: g.Int(), Sensor: g.IntN(3) - 1, Timestamp: g.Int64(),
				Value: g.Float(), Z: g.Float(), PValue: g.Float(), Adjusted: g.Float(),
				Detector: g.Str(12), Score: g.Float(),
			}
		}
		wiretest.RoundTrip(t, batch, gob.NewEncoder, gob.NewDecoder)
	}
}
