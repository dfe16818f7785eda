package core

import (
	"encoding/gob"
	"testing"

	"repro/internal/rpc"
	"repro/internal/rpc/wiretest"
)

func init() {
	gob.Register(Anomaly{})
	rpc.RegisterWireType(rpc.TagAnomaly, DecodeAnomaly)
}

// TestAnomalyWireRoundTrip: a flag survives the codec as it survived
// gob, over generated values (NaN scores, the -1 unit-level sensor).
func TestAnomalyWireRoundTrip(t *testing.T) {
	g := wiretest.NewGen(5)
	for i := 0; i < 300; i++ {
		a := Anomaly{
			Unit: g.Int(), Sensor: g.IntN(3) - 1, Timestamp: g.Int64(),
			Value: g.Float(), Z: g.Float(), PValue: g.Float(), Adjusted: g.Float(),
			Detector: g.Str(12), Score: g.Float(),
		}
		wiretest.RoundTrip(t, a, gob.NewEncoder, gob.NewDecoder)
	}
}
