package core

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

// AnomalySink receives flagged anomalies; implemented by the TSDB
// write-back adapter and by test fakes.
type AnomalySink interface {
	WriteAnomaly(a Anomaly) error
}

// AnomalySinkFunc adapts a function to AnomalySink.
type AnomalySinkFunc func(a Anomaly) error

// WriteAnomaly implements AnomalySink.
func (f AnomalySinkFunc) WriteAnomaly(a Anomaly) error { return f(a) }
