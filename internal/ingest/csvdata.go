package ingest

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/tsdb"
)

// Dataset is an in-memory sensor dataset loaded from the CSV format
// cmd/datagen emits (timestamp,unit,sensor,value[,faulty]). It adapts
// external data to the trainer's WindowSource seam and to observation
// rows a detector scores, so a user with real asset telemetry can
// export to CSV and run train → detect without the simulator.
type Dataset struct {
	units   map[int]map[int64][]float64 // unit → timestamp → sensor values
	sensors int
	// Truth records the ground-truth fault column when present,
	// keyed like units; used for scoring detections.
	truth map[int]map[int64][]bool
	times map[int][]int64 // sorted timestamps per unit
}

// Sensors returns the sensor count per unit.
func (d *Dataset) Sensors() int { return d.sensors }

// Units returns the sorted unit ids present in the dataset.
func (d *Dataset) Units() []int {
	out := make([]int, 0, len(d.units))
	for u := range d.units {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// TimeRange returns a unit's first and last timestamps.
func (d *Dataset) TimeRange(unit int) (first, last int64, ok bool) {
	ts := d.times[unit]
	if len(ts) == 0 {
		return 0, 0, false
	}
	return ts[0], ts[len(ts)-1], true
}

// ReadCSV parses the datagen CSV schema. The header row is optional;
// the faulty column is optional.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	ds := &Dataset{
		units: make(map[int]map[int64][]float64),
		truth: make(map[int]map[int64][]bool),
		times: make(map[int][]int64),
	}
	maxSensor := -1
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("ingest: csv line %d: %w", line+1, err)
		}
		line++
		if line == 1 && len(rec) > 0 && rec[0] == "timestamp" {
			continue // header
		}
		if len(rec) < 4 {
			return nil, fmt.Errorf("ingest: csv line %d: want ≥4 fields, have %d", line, len(rec))
		}
		ts, err1 := strconv.ParseInt(rec[0], 10, 64)
		unit, err2 := strconv.Atoi(rec[1])
		sensor, err3 := strconv.Atoi(rec[2])
		value, err4 := strconv.ParseFloat(rec[3], 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return nil, fmt.Errorf("ingest: csv line %d: malformed record %v", line, rec)
		}
		faulty := false
		if len(rec) >= 5 && rec[4] == "1" {
			faulty = true
		}
		if sensor > maxSensor {
			maxSensor = sensor
		}
		if ds.units[unit] == nil {
			ds.units[unit] = make(map[int64][]float64)
			ds.truth[unit] = make(map[int64][]bool)
		}
		row := ds.units[unit][ts]
		tr := ds.truth[unit][ts]
		for len(row) <= sensor {
			row = append(row, 0)
			tr = append(tr, false)
		}
		row[sensor] = value
		tr[sensor] = faulty
		ds.units[unit][ts] = row
		ds.truth[unit][ts] = tr
	}
	if maxSensor < 0 {
		return nil, errors.New("ingest: csv contained no data rows")
	}
	ds.sensors = maxSensor + 1
	// Normalize row widths (sparse sensors at the tail) and index times.
	for u, rows := range ds.units {
		for ts, row := range rows {
			for len(row) < ds.sensors {
				row = append(row, 0)
			}
			rows[ts] = row
			tr := ds.truth[u][ts]
			for len(tr) < ds.sensors {
				tr = append(tr, false)
			}
			ds.truth[u][ts] = tr
			ds.times[u] = append(ds.times[u], ts)
		}
		sort.Slice(ds.times[u], func(i, j int) bool { return ds.times[u][i] < ds.times[u][j] })
	}
	return ds, nil
}

// Window returns unit's rows over [from, from+count) — the
// core.WindowSource shape. Missing timestamps are an error.
func (d *Dataset) Window(unit int, from int64, count int) ([][]float64, error) {
	rows := d.units[unit]
	if rows == nil {
		return nil, fmt.Errorf("ingest: dataset has no unit %d", unit)
	}
	out := make([][]float64, count)
	for i := 0; i < count; i++ {
		row, ok := rows[from+int64(i)]
		if !ok {
			return nil, fmt.Errorf("ingest: unit %d missing timestamp %d", unit, from+int64(i))
		}
		out[i] = row
	}
	return out, nil
}

// Observations returns unit's rows over [from, from+count) with their
// timestamps — the (xs, ts) pair a detector's DetectBatchInto takes.
func (d *Dataset) Observations(unit int, from int64, count int) ([][]float64, []int64, error) {
	rows, err := d.Window(unit, from, count)
	if err != nil {
		return nil, nil, err
	}
	ts := make([]int64, count)
	for i := range ts {
		ts[i] = from + int64(i)
	}
	return rows, ts, nil
}

// Faulty reports the ground-truth flag for (unit, sensor, ts), when
// the CSV carried the faulty column.
func (d *Dataset) Faulty(unit, sensor int, ts int64) bool {
	tr := d.truth[unit][ts]
	return sensor < len(tr) && tr[sensor]
}

// Points converts the dataset into TSDB points (for replaying an
// external dataset through the storage tier).
func (d *Dataset) Points(unit int) []tsdb.Point {
	var out []tsdb.Point
	for _, ts := range d.times[unit] {
		row := d.units[unit][ts]
		for s, v := range row {
			out = append(out, tsdb.EnergyPoint(unit, s, ts, v))
		}
	}
	return out
}
