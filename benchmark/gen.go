package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/simdata"
	"repro/internal/tsdb"
)

// rowSet is the write traffic of one run, generated from the seed
// before the window opens: one POST body per (tick, unit) carrying that
// unit's full sensor row, in tick-major order. Bodies live in one arena
// so a run's worth of requests costs a handful of allocations, and the
// writers only slice it.
type rowSet struct {
	units, sensors int
	firstTick      int64
	arena          []byte
	off            []int // len(rows)+1 offsets into arena
}

func (r *rowSet) len() int                 { return len(r.off) - 1 }
func (r *rowSet) body(i int) []byte        { return r.arena[r.off[i]:r.off[i+1]] }
func (r *rowSet) unit(i int) int           { return i % r.units }
func (r *rowSet) tick(i int) int64         { return r.firstTick + int64(i/r.units) }
func (r *rowSet) index(u int, t int64) int { return int(t-r.firstTick)*r.units + u }

// points rebuilds row i's points from the fleet — the values its body
// was encoded from — for the replays that take decoded points.
func (r *rowSet) points(fleet *simdata.Fleet, i int) []tsdb.Point {
	u, t := r.unit(i), r.tick(i)
	pts := make([]tsdb.Point, r.sensors)
	for s := range pts {
		pts[s] = tsdb.EnergyPoint(u, s, t, fleet.Value(u, s, t))
	}
	return pts
}

// genRows encodes ticks [firstTick, firstTick+ticks) of fleet as v1
// PutRequest bodies. The same fleet (hence the same seed) always yields
// the same bytes.
func genRows(fleet *simdata.Fleet, firstTick int64, ticks int) *rowSet {
	units, sensors := fleet.Units(), fleet.Sensors()
	r := &rowSet{units: units, sensors: sensors, firstTick: firstTick}
	r.off = make([]int, 0, ticks*units+1)
	// ~90 bytes per point: metric, timestamp, a 17-digit value, tags.
	r.arena = make([]byte, 0, ticks*units*sensors*92)
	for t := firstTick; t < firstTick+int64(ticks); t++ {
		for u := 0; u < units; u++ {
			r.off = append(r.off, len(r.arena))
			r.arena = appendRow(r.arena, fleet, u, t)
		}
	}
	r.off = append(r.off, len(r.arena))
	return r
}

// appendRow appends the PutRequest JSON for unit u's sensors at tick t.
func appendRow(b []byte, fleet *simdata.Fleet, u int, t int64) []byte {
	b = append(b, `{"points":[`...)
	b = appendPoints(b, fleet, u, t)
	return append(b, `]}`...)
}

// appendPoints appends unit u's points at tick t, comma-separated.
func appendPoints(b []byte, fleet *simdata.Fleet, u int, t int64) []byte {
	for s := 0; s < fleet.Sensors(); s++ {
		if s > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"metric":"energy","timestamp":`...)
		b = strconv.AppendInt(b, t, 10)
		b = append(b, `,"value":`...)
		b = strconv.AppendFloat(b, fleet.Value(u, s, t), 'g', -1, 64)
		b = append(b, `,"tags":{"unit":"`...)
		b = strconv.AppendInt(b, int64(u), 10)
		b = append(b, `","sensor":"`...)
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, `"}}`...)
	}
	return b
}

// genTick encodes one whole fleet tick (every unit's row) as a single
// PutRequest — the dashboard workload's 1 Hz stream.
func genTick(fleet *simdata.Fleet, t int64) []byte {
	b := []byte(`{"points":[`)
	for u := 0; u < fleet.Units(); u++ {
		if u > 0 {
			b = append(b, ',')
		}
		b = appendPoints(b, fleet, u, t)
	}
	return append(b, `]}`...)
}

// readKind is one class of dashboard request.
type readKind int

const (
	readSensor  readKind = iota // one sensor, last 5 min (hot)
	readMachine                 // one unit's sensors, last 15 min (hot)
	readFleet                   // fleet overview, last 5 min
	readTop                     // top anomalies, last hour
	readWide                    // one sensor over sealed hour 0, ≤ 512 points
	readExport                  // NDJSON export of one unit's sealed hour
	numReadKinds
)

var readKindNames = [numReadKinds]string{"sensor", "machine", "fleet", "top", "wide", "export"}

// readMix is the cumulative share of each kind, in percent.
var readMix = [numReadKinds]int{40, 65, 75, 85, 95, 100}

// readReq is one dashboard request before its window is resolved
// against the moving fleet clock.
type readReq struct {
	kind         readKind
	unit, sensor int
}

// readGen draws the dashboard request mix: kinds by fixed shares,
// (unit, sensor) by Zipf(1.1) over the fleet's series so a few series
// are hot and most are cold, as operators watching a few machines do.
type readGen struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	sensors int
}

func newReadGen(seed int64, units, sensors int) *readGen {
	rng := rand.New(rand.NewSource(seed))
	return &readGen{
		rng:     rng,
		zipf:    rand.NewZipf(rng, 1.1, 1, uint64(units*sensors-1)),
		sensors: sensors,
	}
}

func (g *readGen) next() readReq {
	pct := g.rng.Intn(100)
	kind := readKind(0)
	for pct >= readMix[kind] {
		kind++
	}
	series := int(g.zipf.Uint64())
	return readReq{kind: kind, unit: series / g.sensors, sensor: series % g.sensors}
}

// key drops the fields the request's kind ignores, so two requests with
// equal keys in the same fleet second ask for the same bytes.
func (q readReq) key() readReq {
	switch q.kind {
	case readFleet, readTop:
		q.unit, q.sensor = 0, 0
	case readMachine, readExport:
		q.sensor = 0
	}
	return q
}

// path resolves the request against fleet time now; sealedTo is the
// last tick of the sealed hour.
func (q readReq) path(now, sealedTo int64) (path string, ndjson bool) {
	switch q.kind {
	case readSensor:
		return fmt.Sprintf("/api/v1/machines/%d/sensors/%d?from=%d&to=%d", q.unit, q.sensor, now-300, now), false
	case readMachine:
		return fmt.Sprintf("/api/v1/machines/%d?from=%d&to=%d", q.unit, now-900, now), false
	case readFleet:
		return fmt.Sprintf("/api/v1/fleet?from=%d&to=%d", now-300, now), false
	case readTop:
		return fmt.Sprintf("/api/v1/anomalies/top?from=%d&to=%d", now-3600, now), false
	case readWide:
		return fmt.Sprintf("/api/v1/query?unit=%d&sensor=%d&from=0&to=%d&maxpoints=512", q.unit, q.sensor, sealedTo), false
	default:
		return fmt.Sprintf("/api/v1/query?unit=%d&from=0&to=%d", q.unit, sealedTo), true
	}
}
