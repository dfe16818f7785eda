package ingest

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/bus"
	"repro/internal/resilience"
	"repro/internal/rpc"
	"repro/internal/simdata"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// UnitBatch is the record payload the ingestion tier publishes: one
// unit's points for a contiguous run of time steps, whole rows only
// (len(Points) is a multiple of the unit's sensor count), laid out
// row-major — all sensors of a step, then the next step. Records are
// retained by the log until every consumer group commits past them, so
// a batch is immutable once published: Points may be the very slice a
// gateway request decoded into (GroupByUnit aliases it), and the tag
// maps inside are shared with every other batch of the same series
// (tsdb.Point.Tags) — consumers read, never write.
type UnitBatch struct {
	Unit   int
	Points []tsdb.Point
}

// AppendWire implements rpc.WireEncoder: the unit, then the points as
// tsdb.AppendPoints writes them.
func (u *UnitBatch) AppendWire(b []byte) ([]byte, error) {
	return tsdb.AppendPoints(rpc.AppendInt(b, int64(u.Unit)), u.Points), nil
}

// DecodeUnitBatch is UnitBatch's registered wire decoder; the points'
// tag maps come shared from tsdb's intern table.
func DecodeUnitBatch(r *rpc.WireReader) *UnitBatch {
	return &UnitBatch{Unit: int(r.Int()), Points: tsdb.DecodePoints(r)}
}

// BusDriver replays fleet data onto a commit-log topic, one record per
// (unit, step-run), keyed by unit id so each unit's samples stay
// ordered within a single partition while the fleet spreads across all
// of them. It is the producer half of the paper's Kafka tier; pair it
// with StorageWriters (and a detector pool) consuming the same topic.
type BusDriver struct {
	fleet *simdata.Fleet
	topic bus.TopicHandle
	cfg   DriverConfig
}

// NewBusDriver builds a driver publishing the fleet onto topic.
func NewBusDriver(fleet *simdata.Fleet, topic bus.TopicHandle, cfg DriverConfig) *BusDriver {
	return &BusDriver{fleet: fleet, topic: topic, cfg: cfg.withDefaults()}
}

// Run replays time steps with no deadline (see RunContext).
func (d *BusDriver) Run(from int64, steps int) (Stats, error) {
	return d.RunContext(context.Background(), from, steps)
}

// RunContext replays time steps [from, from+steps) for every unit,
// publishing per-unit records of up to BatchSize points (rounded down
// to whole rows). Each producer goroutine owns a contiguous slice of
// units. Publish backpressure (a full uncommitted window) blocks the
// producers, propagating to this call; cancelling ctx stops them at
// the next record boundary.
func (d *BusDriver) RunContext(ctx context.Context, from int64, steps int) (Stats, error) {
	cfg := d.cfg
	units := d.fleet.Units()
	sensors := d.fleet.Sensors()
	senders := cfg.Senders
	if senders > units {
		senders = units
	}
	rowsPerRecord := cfg.BatchSize / sensors
	if rowsPerRecord < 1 {
		rowsPerRecord = 1
	}
	var samples, failures telemetry.Counter
	start := time.Now()
	var wg sync.WaitGroup
	chunk := (units + senders - 1) / senders
	for w := 0; w < senders; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > units {
			hi = units
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for u := lo; u < hi; u++ {
				for t0 := from; t0 < from+int64(steps); t0 += int64(rowsPerRecord) {
					if ctx.Err() != nil {
						return
					}
					rows := rowsPerRecord
					if rem := int(from + int64(steps) - t0); rem < rows {
						rows = rem
					}
					// The batch is retained by the log; build it fresh.
					batch := &UnitBatch{Unit: u, Points: make([]tsdb.Point, 0, rows*sensors)}
					for r := 0; r < rows; r++ {
						t := t0 + int64(r)
						for s := 0; s < sensors; s++ {
							batch.Points = append(batch.Points, tsdb.EnergyPoint(u, s, t, d.fleet.Value(u, s, t)))
						}
					}
					if _, err := d.topic.Publish(ctx, uint64(u), batch); err != nil {
						if errors.Is(err, ctx.Err()) {
							return
						}
						failures.Inc()
						if errors.Is(err, bus.ErrClosed) || errors.Is(err, bus.ErrDraining) {
							return
						}
						continue
					}
					samples.Add(int64(len(batch.Points)))
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return newStats(samples.Value(), failures.Value(), time.Since(start)), ctx.Err()
}

// StorageWriters is a consumer-group worker pool that drains UnitBatch
// records off a topic into a storage Sink (the proxy in the full
// architecture): the bus-to-OpenTSDB edge of Figure 1. Delivery is
// at-least-once — a record is committed only after the TSDs acked it,
// and point writes are idempotent — except that batches the sink
// definitively rejects are counted in Failures and committed anyway so
// one poison batch cannot wedge the partition. Transient faults on
// either edge (resilience.Transient: an injected fault or drop on the
// fetch or the submission, an overloaded or down storage daemon, every
// storage circuit open, a deadline) instead park the worker
// (resilience.Park): the poll or the batch is retried with jittered
// backoff, and nothing is committed until the batch lands, so an
// outage delays delivery rather than losing samples or workers. A
// caught-up storage group therefore means the samples are queryable.
type StorageWriters struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// Delivered counts points the sink stored; Failures counts batches
	// it rejected.
	Delivered telemetry.Counter
	Failures  telemetry.Counter
	// Parks counts park episodes (transient poll or submission faults
	// that triggered retry-in-place); Parked is how many workers are
	// parked right now.
	Parks  telemetry.Counter
	Parked telemetry.Gauge
}

// StartStorageWriters launches workers consumers in group g, each
// submitting polled batches to sink. Stop (or cancelling ctx) halts
// the pool.
func StartStorageWriters(ctx context.Context, g bus.GroupHandle, sink Sink, workers int) *StorageWriters {
	if workers <= 0 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(ctx)
	w := &StorageWriters{cancel: cancel}
	for i := 0; i < workers; i++ {
		c := g.Join()
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			// A poll is committed by the next fetch only after the sink
			// stored all of it: a crash before then redelivers, never
			// loses.
			bus.Consume(ctx, c, &w.Parks, &w.Parked, func(recs []bus.Record) error {
				for _, rec := range recs {
					batch, ok := rec.Value.(*UnitBatch)
					if !ok {
						w.Failures.Inc()
						continue
					}
					if err := resilience.Park(ctx, &w.Parks, &w.Parked, func() error {
						return sink.SubmitContext(ctx, batch.Points)
					}); err != nil {
						if errors.Is(err, ctx.Err()) {
							return err // this poll was not stored whole: redelivered
						}
						w.Failures.Inc()
						continue
					}
					w.Delivered.Add(int64(len(batch.Points)))
				}
				return nil
			})
		}()
	}
	return w
}

// Stop halts the workers and waits for them to leave the group.
func (w *StorageWriters) Stop() {
	w.cancel()
	w.wg.Wait()
}

// UnitKey extracts the bus routing key for a point: its unit tag when
// present, else a stable hash of the series identity, so untagged
// metrics still land on a consistent partition.
func UnitKey(p *tsdb.Point) uint64 {
	if u, ok := p.Tags["unit"]; ok {
		if id, err := strconv.ParseUint(u, 10, 64); err == nil {
			return id
		}
	}
	const offset64, prime64 = uint64(14695981039346656037), uint64(1099511628211)
	hash := func(h uint64, s string) uint64 {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime64
		}
		return h
	}
	h := hash(offset64, p.Metric)
	// Deterministic tag order so a series always hashes the same.
	keys := make([]string, 0, len(p.Tags))
	for k := range p.Tags {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h = hash(hash(h, k), p.Tags[k])
	}
	return h
}

// GroupByUnit splits an arbitrary point batch into per-key UnitBatch
// payloads ready to publish (the gateway's HTTP path, where one request
// may carry points for many units). The common request — every point
// carrying the same numeric unit tag — comes back as one batch whose
// Points is the argument itself, not a copy: the caller hands the slice
// over and must not write to it afterwards.
func GroupByUnit(points []tsdb.Point) map[uint64]*UnitBatch {
	if len(points) > 0 {
		unit := points[0].Tags["unit"]
		if key, err := strconv.ParseUint(unit, 10, 64); err == nil && sameUnit(points[1:], unit) {
			return map[uint64]*UnitBatch{key: {Unit: unitID(&points[0]), Points: points}}
		}
	}
	out := make(map[uint64]*UnitBatch)
	for _, p := range points {
		key := UnitKey(&p)
		b, ok := out[key]
		if !ok {
			b = &UnitBatch{Unit: unitID(&p)}
			out[key] = b
		}
		b.Points = append(b.Points, p)
	}
	return out
}

// unitID is a batch's Unit: the point's unit tag as an int, else -1.
func unitID(p *tsdb.Point) int {
	if u, err := strconv.Atoi(p.Tags["unit"]); err == nil {
		return u
	}
	return -1
}

// sameUnit reports whether every point's unit tag is spelled unit.
// ("07" and "7" are one unit but two spellings; the general path
// merges them.)
func sameUnit(points []tsdb.Point, unit string) bool {
	for i := range points {
		if points[i].Tags["unit"] != unit {
			return false
		}
	}
	return true
}

// Validate checks a UnitBatch is well formed against a sensor count:
// whole rows, uniform timestamps per row, every sensor present once.
func (b *UnitBatch) Validate(sensors int) error {
	if sensors <= 0 || len(b.Points)%sensors != 0 {
		return fmt.Errorf("ingest: unit %d batch of %d points is not whole rows of %d sensors", b.Unit, len(b.Points), sensors)
	}
	return nil
}
