package core

import "repro/internal/rpc"

// Anomaly is a flagged (unit, sensor, time) event written back to
// storage for the visualization layer, as in Figure 1's feedback arrow
// from the detector to OpenTSDB. Sensor is -1 for a unit-level flag
// (the detector scored the whole observation vector).
type Anomaly struct {
	Unit      int
	Sensor    int
	Timestamp int64
	Value     float64
	// Z is the severity stored under the "anomaly" metric and rendered
	// by the visualization: the raising family's Score, for every
	// family.
	Z        float64
	PValue   float64
	Adjusted float64
	// Detector names the family that raised the flag; Score is its
	// family-specific severity (|z|, the normalized CUSUM statistic).
	Detector string
	Score    float64
}

// AppendWire appends the flag's fields in declaration order, floats as
// raw bits: one element of an AnomalyBatch on the wire.
func (a Anomaly) AppendWire(b []byte) ([]byte, error) {
	b = rpc.AppendInt(b, int64(a.Unit))
	b = rpc.AppendInt(b, int64(a.Sensor))
	b = rpc.AppendInt(b, a.Timestamp)
	b = rpc.AppendFloat(b, a.Value)
	b = rpc.AppendFloat(b, a.Z)
	b = rpc.AppendFloat(b, a.PValue)
	b = rpc.AppendFloat(b, a.Adjusted)
	b = rpc.AppendString(b, a.Detector)
	return rpc.AppendFloat(b, a.Score), nil
}

// anomalyWireMin is the fewest bytes a flag takes on the wire: three
// one-byte varints, five floats and an empty detector name.
const anomalyWireMin = 3 + 5*8 + 1

func decodeAnomaly(r *rpc.WireReader) Anomaly {
	return Anomaly{
		Unit:      int(r.Int()),
		Sensor:    int(r.Int()),
		Timestamp: r.Int(),
		Value:     r.Float(),
		Z:         r.Float(),
		PValue:    r.Float(),
		Adjusted:  r.Float(),
		Detector:  r.Str(),
		Score:     r.Float(),
	}
}

// AnomalyBatch is one scored batch's flags, in the detector's order:
// the flag feed's record value, published once per batch.
type AnomalyBatch []Anomaly

// AppendWire implements rpc.WireEncoder: the count, then each flag.
func (b AnomalyBatch) AppendWire(dst []byte) ([]byte, error) {
	dst = rpc.AppendUint(dst, uint64(len(b)))
	for i := range b {
		dst, _ = b[i].AppendWire(dst)
	}
	return dst, nil
}

// DecodeAnomalyBatch is AnomalyBatch's registered wire decoder.
func DecodeAnomalyBatch(r *rpc.WireReader) AnomalyBatch {
	n := r.Count(anomalyWireMin)
	if n == 0 {
		return nil
	}
	b := make(AnomalyBatch, n)
	for i := range b {
		b[i] = decodeAnomaly(r)
	}
	return b
}

// AnomalySink receives a scored batch's flags, all at once; implemented
// by the TSDB write-back adapter and by test fakes. A write either
// lands every flag or fails, and the caller retries the whole batch:
// point writes are idempotent.
type AnomalySink interface {
	WriteAnomalies(flags []Anomaly) error
}

// AnomalySinkFunc adapts a function of one flag to AnomalySink.
type AnomalySinkFunc func(a Anomaly) error

// WriteAnomalies implements AnomalySink: f on each flag, stopping at
// the first error.
func (f AnomalySinkFunc) WriteAnomalies(flags []Anomaly) error {
	for _, a := range flags {
		if err := f(a); err != nil {
			return err
		}
	}
	return nil
}
