package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"time"

	v1 "repro/internal/api/v1"
	"repro/internal/hbase"
	"repro/internal/mllib"
	"repro/internal/tsdb"
)

// checkCounters is the part of the checks every round of a run passes:
// what the proxies delivered is what was acked, and nothing was dropped.
func (w *window) checkCounters() error {
	acked := w.ackedPoints.Load()
	if got := w.counters1.delivered - w.counters0.delivered; got != acked {
		return fmt.Errorf("acked %d points but the proxies delivered %d", acked, got)
	}
	if d := w.counters1.dropped - w.counters0.dropped; d != 0 {
		return fmt.Errorf("the proxies dropped %d acked points", d)
	}
	return nil
}

// check reads a finished window's store back and compares it with what
// was sent. Any error makes the run incorrect; none of them is a metric.
func check(w *window) error {
	stored := checkRequery
	if w.sp.cellCheck {
		stored = checkCells
	}
	if err := stored(w); err != nil {
		return err
	}
	if err := checkFlags(w); err != nil {
		return err
	}
	if w.sp.preloadTicks > 0 {
		return checkSealedTier(w)
	}
	return nil
}

// queryAll reads every series of metric over [from, to] through the
// gateway.
func queryAll(url, metric string, from, to int64) ([]v1.Series, error) {
	c := newClient(2 * time.Minute)
	defer closeClient(c)
	resp, err := c.Get(fmt.Sprintf("%s/api/v1/query?metric=%s&from=%d&to=%d", url, metric, from, to))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("re-query %s [%d, %d]: status %d: %.200s", metric, from, to, resp.StatusCode, body)
	}
	var qr v1.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		return nil, fmt.Errorf("re-query %s [%d, %d]: %w", metric, from, to, err)
	}
	if qr.Degraded {
		return nil, fmt.Errorf("re-query %s [%d, %d] was answered from stale cache", metric, from, to)
	}
	return qr.Series, nil
}

func unitSensor(tags map[string]string) (unit, sensor int, err error) {
	if unit, err = strconv.Atoi(tags["unit"]); err != nil {
		return 0, 0, fmt.Errorf("series has bad unit tag %q", tags["unit"])
	}
	if sensor, err = strconv.Atoi(tags["sensor"]); err != nil {
		return 0, 0, fmt.Errorf("series has bad sensor tag %q", tags["sensor"])
	}
	return unit, sensor, nil
}

// lastTicks returns, per unit, the last fleet tick the run stored: rows
// go out in tick order per unit, so a unit's stored ticks are contiguous
// from the store's first tick.
func (w *window) lastTicks() []int64 {
	sp := w.sp
	last := make([]int64, sp.units)
	for u := range last {
		last[u] = sp.firstTick() - 1
	}
	if w.rows == nil {
		for u := range last {
			last[u] = w.s.now.Load()
		}
		return last
	}
	for i := 0; i < w.rows.len(); i++ {
		if w.ack[i].Load() != 0 {
			last[w.rows.unit(i)] = w.rows.tick(i)
		}
	}
	return last
}

// checkRequery reads everything the run stored back through
// /api/v1/query and compares it sample by sample with what the fleet
// generated: nothing acked may be missing, nothing may appear twice or
// changed. (On firehose this one read takes about 20 s: a query costs
// time in proportion to everything in the hour rows it touches.)
func checkRequery(w *window) error {
	sp := w.sp
	last := w.lastTicks()
	from, to := sp.firstTick(), slices.Max(last)
	if sp.preloadTicks > 0 {
		from = 0
	}
	series, err := queryAll(w.s.url, tsdb.MetricEnergy, from, to)
	if err != nil {
		return err
	}
	seen := make(map[[2]int]bool, len(series))
	for _, ser := range series {
		u, s, err := unitSensor(ser.Tags)
		if err != nil {
			return err
		}
		if u < 0 || u >= sp.units || s < 0 || s >= sp.sensors || seen[[2]int{u, s}] {
			return fmt.Errorf("re-query returned unexpected or repeated series unit=%d sensor=%d", u, s)
		}
		seen[[2]int{u, s}] = true
		if want := last[u] - from + 1; int64(len(ser.Samples)) != want {
			return fmt.Errorf("unit %d sensor %d: %d samples stored in [%d, %d], want %d (lost or duplicated)",
				u, s, len(ser.Samples), from, last[u], want)
		}
		for k, sm := range ser.Samples {
			t := from + int64(k)
			if sm.Timestamp != t || sm.Value != w.s.fleet.Value(u, s, t) {
				return fmt.Errorf("unit %d sensor %d: stored (%d, %v), generated (%d, %v)",
					u, s, sm.Timestamp, sm.Value, t, w.s.fleet.Value(u, s, t))
			}
		}
	}
	for u := 0; u < sp.units; u++ {
		for s := 0; s < sp.sensors && last[u] >= from; s++ {
			if !seen[[2]int{u, s}] {
				return fmt.Errorf("unit %d sensor %d: no samples stored in [%d, %d]", u, s, from, last[u])
			}
		}
	}
	return nil
}

// checkCells is checkRequery for a store too large to read back through
// the API within the run (a query costs time in proportion to every
// cell in the regions it touches, whatever it asks for: 16 s for one
// series of the firehose's store). It scans the regions directly and
// compares cell by cell with the codec's encoding of every acked point:
// nothing missing, nothing changed, and nothing else in the store but
// the flags.
func checkCells(w *window) error {
	sys := w.s.sys
	codec := tsdb.NewCodec(sys.TSDB.UIDs, sys.Config().SaltBuckets)
	want := make(map[string][8]byte, w.ackedPoints.Load())
	for i := 0; i < w.rows.len(); i++ {
		if w.ack[i].Load() == 0 {
			continue
		}
		for _, pt := range w.rows.points(w.s.fleet, i) {
			cell, err := codec.Encode(&pt)
			if err != nil {
				return fmt.Errorf("encode a sent point: %w", err)
			}
			want[string(cell.Row)+string(cell.Qual)] = [8]byte(cell.Value)
		}
	}
	cells, err := sys.Cluster.NewClient(hbase.ClientConfig{}).Scan(nil, nil, 0)
	if err != nil {
		return fmt.Errorf("scan the store: %w", err)
	}
	found, other := 0, int64(0)
	for _, c := range cells {
		v, ok := want[string(c.Row)+string(c.Qual)]
		switch {
		case !ok && len(c.Row) > 0 && c.Row[0] == 0xFF:
			// the UID table's rows, under the codec's meta prefix
		case !ok:
			other++
		case c.Tomb || len(c.Value) != 8 || v != [8]byte(c.Value):
			return fmt.Errorf("stored cell %x/%x holds %x, sent %x", c.Row, c.Qual, c.Value, v)
		default:
			found++
		}
	}
	if found != len(want) {
		return fmt.Errorf("%d of %d acked points are in the store", found, len(want))
	}
	if flags := w.s.pool.AnomaliesWritten.Value(); other != flags {
		return fmt.Errorf("the store holds %d cells besides the acked points, the pool wrote %d flags", other, flags)
	}
	return nil
}

type flagKey struct {
	unit, sensor int
	ts           int64
}

// checkFlags compares the flags the detector pool wrote with the ones a
// fresh detector of the same family, built the way the assemblies build
// theirs, raises offline on the same rows in the same order.
func checkFlags(w *window) error {
	sp := w.sp
	last := w.lastTicks()
	from := sp.firstTick()
	if sp.preloadTicks > 0 {
		from = 0 // the detectors scored the preload too
	}
	want := make(map[flagKey]bool)
	row := [][]float64{make([]float64, sp.sensors)}
	ts := []int64{0}
	var det mllib.Detections
	for u := 0; u < sp.units; u++ {
		d, err := w.s.newReferenceDetector(u)
		if err != nil {
			return fmt.Errorf("reference detector for unit %d: %w", u, err)
		}
		for t := from; t <= last[u]; t++ {
			for s := range row[0] {
				row[0][s] = w.s.fleet.Value(u, s, t)
			}
			ts[0] = t
			if err := d.DetectBatchInto(row, ts, &det); err != nil {
				return fmt.Errorf("reference detector for unit %d: %w", u, err)
			}
			for _, f := range det.Flags {
				want[flagKey{u, f.Sensor, t}] = true
			}
		}
	}
	series, err := queryAll(w.s.url, tsdb.MetricAnomaly, from, slices.Max(last))
	if err != nil {
		return err
	}
	got := 0
	for _, ser := range series {
		u, s, err := unitSensor(ser.Tags)
		if err != nil {
			return err
		}
		for _, sm := range ser.Samples {
			if !want[flagKey{u, s, sm.Timestamp}] {
				return fmt.Errorf("flag stored for unit %d sensor %d at %d that the offline %s does not raise", u, s, sm.Timestamp, sp.detector)
			}
			got++
		}
	}
	if got != len(want) {
		return fmt.Errorf("%d flags stored, the offline %s raises %d on the same rows", got, sp.detector, len(want))
	}
	// Stored flags are idempotent cells, so the store cannot show a
	// flag written twice; the pool's own counter can.
	written := w.s.pool.AnomaliesWritten.Value()
	if sp.preloadTicks == 0 {
		written -= w.counters0.flagsWritten
	}
	if written != int64(len(want)) {
		return fmt.Errorf("the pool wrote %d flags, the offline %s raises %d", written, sp.detector, len(want))
	}
	return nil
}

// checkSealedTier checks the dashboard store's two read-side
// invariants on the sampled series: what the sealed tier plus the hot
// rows answer equals what the raw rows answered before they were
// sealed, and a wide downsampled query served from rollups equals the
// aggregate computed from those raw samples.
func checkSealedTier(w *window) error {
	sys := w.s.sys
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	tsd := sys.TSDB.TSDs()[0]
	preTo := int64(w.sp.preloadTicks) - 1
	post, err := tsd.QueryContext(ctx, sampledSeriesQuery(preTo))
	if err != nil {
		return fmt.Errorf("post-seal query: %w", err)
	}
	pre := w.s.preSeal
	if len(post) != len(pre) || len(pre) == 0 {
		return fmt.Errorf("sealed+hot returns %d series, pre-seal returned %d", len(post), len(pre))
	}
	for i := range pre {
		if pre[i].ID() != post[i].ID() || len(pre[i].Samples) != len(post[i].Samples) {
			return fmt.Errorf("series %s: sealed+hot has %d samples, pre-seal had %d", pre[i].ID(), len(post[i].Samples), len(pre[i].Samples))
		}
		for k := range pre[i].Samples {
			if pre[i].Samples[k] != post[i].Samples[k] {
				return fmt.Errorf("series %s: sealed+hot sample %v differs from pre-seal %v", pre[i].ID(), post[i].Samples[k], pre[i].Samples[k])
			}
		}
	}
	const width = 60
	wide := sampledSeriesQuery(w.sp.sealedTo())
	wide.DownsampleSeconds, wide.Aggregate = width, tsdb.AggAvg
	serves := sys.Blocks.RollupServes.Value()
	rolled, err := tsd.QueryContext(ctx, wide)
	if err != nil {
		return fmt.Errorf("rollup query: %w", err)
	}
	if sys.Blocks.RollupServes.Value() == serves {
		return fmt.Errorf("the wide query over the sealed hour was not served from rollups")
	}
	if len(rolled) != len(pre) {
		return fmt.Errorf("rollup query returns %d series, want %d", len(rolled), len(pre))
	}
	for i := range pre {
		sum, n := make(map[int64]float64), make(map[int64]float64)
		for _, sm := range pre[i].Samples {
			if sm.Timestamp <= wide.End {
				b := tsdb.BucketStart(sm.Timestamp, width)
				sum[b] += sm.Value
				n[b]++
			}
		}
		if len(rolled[i].Samples) != len(sum) {
			return fmt.Errorf("series %s: rollups give %d buckets, raw samples %d", pre[i].ID(), len(rolled[i].Samples), len(sum))
		}
		for _, b := range rolled[i].Samples {
			raw := sum[b.Timestamp] / n[b.Timestamp]
			if n[b.Timestamp] == 0 || math.Abs(b.Value-raw) > 1e-9*math.Max(1, math.Abs(raw)) {
				return fmt.Errorf("series %s bucket %d: rollup %v, raw aggregate %v", pre[i].ID(), b.Timestamp, b.Value, raw)
			}
		}
	}
	return nil
}
