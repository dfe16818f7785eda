// Package viz is the interactive visualization tool from §V: a web
// application that integrates (A) live sensor data, (B) highlighted
// anomalies and (C) fleet-wide analytics into a single control center.
//
// It reproduces the three Figure-3 surfaces:
//
//   - the fleet overview with a status bar summarizing unit health,
//   - the machine page showing one compact sparkline per sensor with
//     anomalies flagged in red, and
//   - the drill-down detail view for one sensor with the surrounding
//     context and the anomaly list.
//
// Pages are server-rendered HTML with inline SVG (usable from desktop
// and mobile, as the paper requires); every surface is also available
// as a JSON API for programmatic use.
//
// Reads go through a Querier — normally the internal/query
// scatter-gather tier with its window cache and LTTB bounding — so
// page loads stay cheap and constant-size however wide the window or
// large the fleet.
package viz

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/query"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// Error kinds the HTTP layer maps onto status codes: ErrNotFound for
// unknown units/sensors (404), ErrBadRequest for malformed requests
// such as inverted windows (400). Everything else is a storage failure
// (500).
var (
	ErrNotFound   = errors.New("viz: not found")
	ErrBadRequest = errors.New("viz: bad request")
)

// Querier serves storage reads for the backend. *query.Engine is the
// production implementation (scatter-gather + cache + bounding);
// *tsdb.TSD satisfies it too for single-daemon setups and tests.
type Querier interface {
	QueryContext(ctx context.Context, q tsdb.Query) ([]tsdb.Series, error)
}

// Status grades a unit's health for the status bar.
type Status string

// Status levels derived from recent anomaly counts.
const (
	StatusHealthy  Status = "healthy"
	StatusWarning  Status = "warning"
	StatusCritical Status = "critical"
)

// Backend assembles page data from the TSDB (sensor series from
// "energy", flags from "anomaly" — both written by the rest of the
// pipeline).
type Backend struct {
	// Q serves reads.
	Q       Querier
	Units   int
	Sensors int
	// WarnAt / CritAt are the anomaly-count thresholds grading a unit
	// (defaults 1 and 10).
	WarnAt, CritAt int
	// MaxPoints, when > 0, bounds every rendered series to this many
	// samples via LTTB (the query tier may bound again server-side).
	MaxPoints int

	// IgnoredAnomalies counts anomaly samples observed for units
	// outside [0, Units) — misconfiguration that used to be dropped
	// silently; Fleet also surfaces the per-window count.
	IgnoredAnomalies telemetry.Counter
}

func (b *Backend) warnAt() int {
	if b.WarnAt > 0 {
		return b.WarnAt
	}
	return 1
}

func (b *Backend) critAt() int {
	if b.CritAt > 0 {
		return b.CritAt
	}
	return 10
}

// query routes a read through the configured Querier.
func (b *Backend) query(ctx context.Context, q tsdb.Query) ([]tsdb.Series, error) {
	if b.Q != nil {
		return b.Q.QueryContext(ctx, q)
	}
	return nil, errors.New("viz: backend has no querier")
}

// bound applies the backend's render cap.
func (b *Backend) bound(samples []tsdb.Sample) []tsdb.Sample {
	return query.LTTB(samples, b.MaxPoints)
}

// UnitSummary is one row of the fleet overview.
type UnitSummary struct {
	Unit      int    `json:"unit"`
	Status    Status `json:"status"`
	Anomalies int    `json:"anomalies"`
	// Sensors flagged at least once in the window.
	FlaggedSensors int `json:"flaggedSensors"`
}

// FleetSummary is the status-bar payload.
type FleetSummary struct {
	From, To  int64 `json:"-"`
	Healthy   int   `json:"healthy"`
	Warning   int   `json:"warning"`
	Critical  int   `json:"critical"`
	Anomalies int   `json:"anomalies"`
	// Ignored counts anomalies written for units outside the fleet's
	// configured range — almost certainly a misconfigured writer.
	Ignored int           `json:"ignoredAnomalies,omitempty"`
	Units   []UnitSummary `json:"units"`
}

// anomalies fetches anomaly points in [from, to] matching the tag
// filter (nil = fleet-wide), grouped by unit then sensor. Page
// handlers pass the narrowest filter they can — a drill-down asks for
// one (unit, sensor) series, not the whole fleet's flags.
func (b *Backend) anomalies(ctx context.Context, tags map[string]string, from, to int64) (map[int]map[int][]tsdb.Sample, error) {
	series, err := b.query(ctx, tsdb.Query{Metric: tsdb.MetricAnomaly, Tags: tags, Start: from, End: to})
	if err != nil {
		if isNoMetric(err) {
			return map[int]map[int][]tsdb.Sample{}, nil // nothing flagged yet
		}
		return nil, err
	}
	out := make(map[int]map[int][]tsdb.Sample)
	for _, ser := range series {
		unit, err1 := strconv.Atoi(ser.Tags["unit"])
		sensor, err2 := strconv.Atoi(ser.Tags["sensor"])
		if err1 != nil || err2 != nil {
			continue
		}
		if out[unit] == nil {
			out[unit] = make(map[int][]tsdb.Sample)
		}
		out[unit][sensor] = append(out[unit][sensor], ser.Samples...)
	}
	return out, nil
}

func isNoMetric(err error) bool {
	// The anomaly metric does not exist until the first flag is
	// written; treat that as an empty result.
	return errors.Is(err, tsdb.ErrNoSuchMetric)
}

// Fleet builds the overview for the window [from, to].
func (b *Backend) Fleet(ctx context.Context, from, to int64) (*FleetSummary, error) {
	anomalies, err := b.anomalies(ctx, nil, from, to)
	if err != nil {
		return nil, err
	}
	fs := &FleetSummary{From: from, To: to}
	for unit, sensors := range anomalies {
		if unit >= 0 && unit < b.Units {
			continue
		}
		for _, samples := range sensors {
			fs.Ignored += len(samples)
		}
	}
	b.IgnoredAnomalies.Add(int64(fs.Ignored))
	for u := 0; u < b.Units; u++ {
		sum := UnitSummary{Unit: u, Status: StatusHealthy}
		for _, samples := range anomalies[u] {
			if len(samples) > 0 {
				sum.FlaggedSensors++
				sum.Anomalies += len(samples)
			}
		}
		switch {
		case sum.Anomalies >= b.critAt():
			sum.Status = StatusCritical
			fs.Critical++
		case sum.Anomalies >= b.warnAt():
			sum.Status = StatusWarning
			fs.Warning++
		default:
			fs.Healthy++
		}
		fs.Anomalies += sum.Anomalies
		fs.Units = append(fs.Units, sum)
	}
	return fs, nil
}

// SensorView is one sparkline row on the machine page.
type SensorView struct {
	Sensor    int           `json:"sensor"`
	Samples   []tsdb.Sample `json:"samples"`
	Anomalies []tsdb.Sample `json:"anomalies"`
	Latest    float64       `json:"latest"`
}

// MachineView is the machine page payload.
type MachineView struct {
	Unit      int          `json:"unit"`
	From, To  int64        `json:"-"`
	Status    Status       `json:"status"`
	Anomalies int          `json:"anomalies"`
	Sensors   []SensorView `json:"sensors"`
}

// Machine builds the per-machine view: every sensor's series over the
// window with its anomalies attached (paper: "displays all sensor
// readings with relevant anomalies annotated directly on a compact
// sparkline chart"). Both reads are scoped to the unit's tag — the
// anomaly fetch no longer scans the whole fleet's flags.
func (b *Backend) Machine(ctx context.Context, unit int, from, to int64) (*MachineView, error) {
	if unit < 0 || unit >= b.Units {
		return nil, fmt.Errorf("%w: unknown unit %d", ErrNotFound, unit)
	}
	unitTag := map[string]string{"unit": strconv.Itoa(unit)}
	series, err := b.query(ctx, tsdb.Query{
		Metric: tsdb.MetricEnergy,
		Tags:   unitTag,
		Start:  from,
		End:    to,
		// Sparkline data is render-bounded server-side; the anomaly
		// queries below stay exact so counts and rankings are correct.
		MaxPoints: b.MaxPoints,
	})
	if err != nil && !isNoMetric(err) {
		return nil, err
	}
	anomalies, err := b.anomalies(ctx, unitTag, from, to)
	if err != nil {
		return nil, err
	}
	mv := &MachineView{Unit: unit, From: from, To: to, Status: StatusHealthy}
	bySensor := make(map[int][]tsdb.Sample)
	for _, ser := range series {
		s, err := strconv.Atoi(ser.Tags["sensor"])
		if err != nil {
			continue
		}
		bySensor[s] = append(bySensor[s], ser.Samples...)
	}
	sensorIDs := make([]int, 0, len(bySensor))
	for s := range bySensor {
		sensorIDs = append(sensorIDs, s)
	}
	sort.Ints(sensorIDs)
	for _, s := range sensorIDs {
		sv := SensorView{Sensor: s, Samples: b.bound(bySensor[s]), Anomalies: anomalies[unit][s]}
		if n := len(sv.Samples); n > 0 {
			sv.Latest = sv.Samples[n-1].Value
		}
		mv.Anomalies += len(sv.Anomalies)
		mv.Sensors = append(mv.Sensors, sv)
	}
	switch {
	case mv.Anomalies >= b.critAt():
		mv.Status = StatusCritical
	case mv.Anomalies >= b.warnAt():
		mv.Status = StatusWarning
	}
	return mv, nil
}

// TopAnomaly is one entry of the "most concerning anomalies" ranking
// (§V: "by selectively surfacing the most concerning anomalies, we
// allow users to focus only on what is important").
type TopAnomaly struct {
	Unit      int     `json:"unit"`
	Sensor    int     `json:"sensor"`
	Timestamp int64   `json:"timestamp"`
	Severity  float64 `json:"severity"` // |z|: standard deviations from benchmark
}

// TopAnomalies returns the limit most severe flags in [from, to],
// ranked by |z| descending (ties by recency). This is the one surface
// that legitimately reads the whole fleet's flags.
func (b *Backend) TopAnomalies(ctx context.Context, from, to int64, limit int) ([]TopAnomaly, error) {
	if limit <= 0 {
		limit = 10
	}
	byUnit, err := b.anomalies(ctx, nil, from, to)
	if err != nil {
		return nil, err
	}
	var all []TopAnomaly
	for unit, sensors := range byUnit {
		for sensor, samples := range sensors {
			for _, s := range samples {
				sev := s.Value
				if sev < 0 {
					sev = -sev
				}
				all = append(all, TopAnomaly{Unit: unit, Sensor: sensor, Timestamp: s.Timestamp, Severity: sev})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Severity != all[j].Severity {
			return all[i].Severity > all[j].Severity
		}
		if all[i].Timestamp != all[j].Timestamp {
			return all[i].Timestamp > all[j].Timestamp
		}
		if all[i].Unit != all[j].Unit {
			return all[i].Unit < all[j].Unit
		}
		return all[i].Sensor < all[j].Sensor
	})
	if len(all) > limit {
		all = all[:limit]
	}
	return all, nil
}

// SensorDetail is the drill-down payload for one sensor.
type SensorDetail struct {
	Unit      int           `json:"unit"`
	Sensor    int           `json:"sensor"`
	From, To  int64         `json:"-"`
	Samples   []tsdb.Sample `json:"samples"`
	Anomalies []tsdb.Sample `json:"anomalies"`
}

// Sensor builds the drill-down view (paper: "operators can click on
// anomalies which surfaces a detailed view of the sensor data"). Both
// the samples and the flags are fetched with the exact (unit, sensor)
// tag filter — a drill-down used to scan the entire fleet's anomaly
// metric for its two lists.
func (b *Backend) Sensor(ctx context.Context, unit, sensor int, from, to int64) (*SensorDetail, error) {
	if unit < 0 || unit >= b.Units || sensor < 0 || sensor >= b.Sensors {
		return nil, fmt.Errorf("%w: unknown sensor %d/%d", ErrNotFound, unit, sensor)
	}
	tags := tsdb.EnergyTags(unit, sensor)
	series, err := b.query(ctx, tsdb.Query{
		Metric:    tsdb.MetricEnergy,
		Tags:      tags,
		Start:     from,
		End:       to,
		MaxPoints: b.MaxPoints,
	})
	if err != nil && !isNoMetric(err) {
		return nil, err
	}
	det := &SensorDetail{Unit: unit, Sensor: sensor, From: from, To: to}
	for _, ser := range series {
		det.Samples = append(det.Samples, ser.Samples...)
	}
	det.Samples = b.bound(det.Samples)
	flags, err := b.query(ctx, tsdb.Query{Metric: tsdb.MetricAnomaly, Tags: tags, Start: from, End: to})
	if err != nil {
		if !isNoMetric(err) {
			return nil, err
		}
		return det, nil
	}
	for _, ser := range flags {
		det.Anomalies = append(det.Anomalies, ser.Samples...)
	}
	return det, nil
}
