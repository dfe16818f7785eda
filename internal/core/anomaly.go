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
	// family-specific severity (|z|, the normalized CUSUM statistic,
	// the isolation score).
	Detector string
	Score    float64
}

// AppendWire implements rpc.WireEncoder: the fields in declaration
// order, floats as raw bits.
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

// DecodeAnomaly is Anomaly's registered wire decoder.
func DecodeAnomaly(r *rpc.WireReader) Anomaly {
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

// AnomalySink receives flagged anomalies; implemented by the TSDB
// write-back adapter and by test fakes.
type AnomalySink interface {
	WriteAnomaly(a Anomaly) error
}

// AnomalySinkFunc adapts a function to AnomalySink.
type AnomalySinkFunc func(a Anomaly) error

// WriteAnomaly implements AnomalySink.
func (f AnomalySinkFunc) WriteAnomaly(a Anomaly) error { return f(a) }
