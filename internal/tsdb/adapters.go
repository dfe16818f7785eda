package tsdb

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
)

// Canonical metric names from the paper: sensor data is stored in
// "energy" with unit and sensor tags; flagged anomalies are written
// back under "anomaly" (Figure 1's feedback edge into OpenTSDB).
const (
	MetricEnergy  = "energy"
	MetricAnomaly = "anomaly"
)

// EnergyTags returns the canonical tag set of a (unit, sensor) series:
// the process's shared map for it (intern.go), the very map a wire or
// telnet decode of the series yields. Like every Point.Tags map it is
// read-only — copy it before changing it.
func EnergyTags(unit, sensor int) map[string]string {
	// The pairs and their digit strings stay on the stack: the table
	// copies whatever it keeps. Each string gets a buffer of its own, as
	// the compiler may let a string that does not escape alias its bytes.
	var sd, ud [20]byte
	pairs := [2][2]string{
		{"sensor", string(strconv.AppendInt(sd[:0], int64(sensor), 10))},
		{"unit", string(strconv.AppendInt(ud[:0], int64(unit), 10))},
	}
	return internSortedTags(pairs[:])
}

// EnergyPoint builds the canonical data point for a sample; its Tags is
// the series' shared map (EnergyTags), so a point costs no allocation.
func EnergyPoint(unit, sensor int, ts int64, value float64) Point {
	return Point{Metric: MetricEnergy, Tags: EnergyTags(unit, sensor), Timestamp: ts, Value: value}
}

// Source adapts a TSD into the detector's data interfaces: it reads
// observation windows from the "energy" metric and training windows
// for the offline trainer.
type Source struct {
	TSD     *TSD
	Sensors int
	// TrainFrom/TrainCount bound the training window read by
	// TrainingWindow.
	TrainFrom  int64
	TrainCount int
	// Timeout, when > 0, bounds each storage query with a deadline
	// that the RPC fabric propagates down to the region servers.
	Timeout time.Duration
}

// deadlineCtx returns a background context bounded by d when d > 0.
func deadlineCtx(d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(context.Background(), d)
	}
	return context.Background(), func() {}
}

// Observations returns unit's sensor matrix for [from, from+count),
// one row per second with one column per sensor, plus the matching
// timestamps; a missing sample is an error.
func (s *Source) Observations(unit int, from int64, count int) ([][]float64, []int64, error) {
	ctx, cancel := deadlineCtx(s.Timeout)
	defer cancel()
	series, err := s.TSD.QueryContext(ctx, Query{
		Metric: MetricEnergy,
		Tags:   map[string]string{"unit": strconv.Itoa(unit)},
		Start:  from,
		End:    from + int64(count) - 1,
	})
	if err != nil {
		return nil, nil, err
	}
	rows := make([][]float64, count)
	filled := make([][]bool, count)
	for i := range rows {
		rows[i] = make([]float64, s.Sensors)
		filled[i] = make([]bool, s.Sensors)
	}
	for _, ser := range series {
		sensor, err := strconv.Atoi(ser.Tags["sensor"])
		if err != nil || sensor < 0 || sensor >= s.Sensors {
			continue
		}
		for _, sample := range ser.Samples {
			idx := sample.Timestamp - from
			if idx < 0 || idx >= int64(count) {
				continue
			}
			rows[idx][sensor] = sample.Value
			filled[idx][sensor] = true
		}
	}
	for i := range filled {
		for j, ok := range filled[i] {
			if !ok {
				return nil, nil, fmt.Errorf("tsdb: unit %d sensor %d missing sample at t=%d", unit, j, from+int64(i))
			}
		}
	}
	ts := make([]int64, count)
	for i := range ts {
		ts[i] = from + int64(i)
	}
	return rows, ts, nil
}

// TrainingWindow implements core.WindowSource using the configured
// training range.
func (s *Source) TrainingWindow(unit int) ([][]float64, error) {
	rows, _, err := s.Observations(unit, s.TrainFrom, s.TrainCount)
	return rows, err
}

// Sink adapts a TSD into core.AnomalySink: each flag becomes a point
// under the "anomaly" metric whose value is Anomaly.Z — the raising
// family's severity score (|z| for mgd), which the visualization
// renders as severity — and a batch's flags are one put.
type Sink struct {
	TSD *TSD
	// Timeout, when > 0, bounds each write-back with a deadline.
	Timeout time.Duration
}

// WriteAnomalies implements core.AnomalySink: one put for the batch.
func (s *Sink) WriteAnomalies(flags []core.Anomaly) error {
	if len(flags) == 0 {
		return nil
	}
	ctx, cancel := deadlineCtx(s.Timeout)
	defer cancel()
	return s.TSD.PutContext(ctx, AnomalyPoints(flags))
}

// WriteAnomaly writes one flag: the one-element batch.
func (s *Sink) WriteAnomaly(a core.Anomaly) error {
	return s.WriteAnomalies([]core.Anomaly{a})
}

// AnomalyPoints returns the points flags are stored as, one per flag.
func AnomalyPoints(flags []core.Anomaly) []Point {
	pts := make([]Point, len(flags))
	for i, a := range flags {
		pts[i] = Point{
			Metric:    MetricAnomaly,
			Tags:      EnergyTags(a.Unit, a.Sensor),
			Timestamp: a.Timestamp,
			Value:     a.Z,
		}
	}
	return pts
}

// Compile-time interface checks against the detector's seams.
var (
	_ core.WindowSource = (*Source)(nil)
	_ core.AnomalySink  = (*Sink)(nil)
)
