// Package ingest drives sensor workloads into the storage tier and
// speaks OpenTSDB's wire formats.
//
// Driver replays the simulated fleet (§II-A: 100 units × 1000 sensors
// at 1 Hz) against any Sink — the buffering reverse proxy in the full
// architecture, or a TSD directly for the unbuffered ablation — with
// configurable batch size and producer parallelism, measuring
// throughput with per-interval rate samples. It is the workload
// generator behind both panels of Figure 2.
//
// The codec half implements the OpenTSDB telnet line protocol
// ("put <metric> <ts> <value> k=v ...") and the JSON /api/put payload
// so the gateway exposes the same surface real collectors use.
package ingest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/simdata"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// Sink consumes batches of points (implemented by the proxy and by
// direct-TSD adapters).
type Sink interface {
	Submit(points []tsdb.Point) error
}

// ContextSink is implemented by sinks whose submission honours a
// deadline (the buffering proxy). The driver prefers it when present
// so a cancelled run does not sit blocked on a full buffer.
type ContextSink interface {
	SubmitContext(ctx context.Context, points []tsdb.Point) error
}

// submit routes through the context-aware path when the sink has one.
func submit(ctx context.Context, s Sink, points []tsdb.Point) error {
	if cs, ok := s.(ContextSink); ok {
		return cs.SubmitContext(ctx, points)
	}
	return s.Submit(points)
}

// SinkFunc adapts a function to Sink.
type SinkFunc func(points []tsdb.Point) error

// Submit implements Sink.
func (f SinkFunc) Submit(points []tsdb.Point) error { return f(points) }

// DriverConfig tunes the workload generator.
type DriverConfig struct {
	// BatchSize is points per Submit (default 500).
	BatchSize int
	// Senders is the number of parallel producer goroutines (default 4);
	// units are partitioned across them.
	Senders int
	// SampleEvery, when > 0, records a rate sample at this wall-clock
	// interval for the stability series (Figure 2 right).
	SampleEvery time.Duration
}

func (c DriverConfig) withDefaults() DriverConfig {
	if c.BatchSize <= 0 {
		c.BatchSize = 500
	}
	if c.Senders <= 0 {
		c.Senders = 4
	}
	return c
}

// Stats summarizes one ingestion run.
type Stats struct {
	Samples  int64
	Elapsed  time.Duration
	Rate     float64 // samples per second
	Failures int64   // batches rejected by the sink
	Series   []telemetry.RateSample
}

// Driver replays fleet data into a sink.
type Driver struct {
	fleet *simdata.Fleet
	sink  Sink
	cfg   DriverConfig
}

// NewDriver builds a driver over the fleet and sink.
func NewDriver(fleet *simdata.Fleet, sink Sink, cfg DriverConfig) *Driver {
	return &Driver{fleet: fleet, sink: sink, cfg: cfg.withDefaults()}
}

// Run replays time steps with no deadline (see RunContext).
func (d *Driver) Run(from int64, steps int) (Stats, error) {
	return d.RunContext(context.Background(), from, steps)
}

// RunContext replays time steps [from, from+steps), all units and
// sensors per step, and returns throughput statistics. Each producer
// goroutine owns a contiguous slice of units. Cancelling ctx stops the
// producers at the next batch boundary; the partial stats and ctx's
// error are returned.
func (d *Driver) RunContext(ctx context.Context, from int64, steps int) (Stats, error) {
	cfg := d.cfg
	units := d.fleet.Units()
	senders := cfg.Senders
	if senders > units {
		senders = units
	}
	meter := telemetry.NewRateMeter(nil)
	var failures telemetry.Counter
	stopSampler := startSampler(meter, cfg.SampleEvery)

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
			sensors := d.fleet.Sensors()
			batch := make([]tsdb.Point, 0, cfg.BatchSize)
			flush := func() bool {
				if len(batch) == 0 {
					return true
				}
				if err := submit(ctx, d.sink, batch); err != nil {
					if errors.Is(err, ctx.Err()) {
						return false // cancellation, not a delivery failure
					}
					failures.Inc()
					if errors.Is(err, errStop) {
						return false
					}
				} else {
					meter.Add(int64(len(batch)))
				}
				batch = batch[:0]
				return true
			}
			for t := from; t < from+int64(steps); t++ {
				if ctx.Err() != nil {
					return
				}
				for u := lo; u < hi; u++ {
					for s := 0; s < sensors; s++ {
						batch = append(batch, tsdb.EnergyPoint(u, s, t, d.fleet.Value(u, s, t)))
						if len(batch) == cfg.BatchSize {
							if !flush() {
								return
							}
						}
					}
				}
			}
			flush()
		}(lo, hi)
	}
	wg.Wait()
	stopSampler()
	elapsed := time.Since(start)
	stats := Stats{
		Samples:  meter.Count(),
		Elapsed:  elapsed,
		Failures: failures.Value(),
		Series:   meter.Series(),
	}
	if elapsed > 0 {
		stats.Rate = float64(stats.Samples) / elapsed.Seconds()
	}
	return stats, ctx.Err()
}

// errStop lets a sink abort the run early (tests use it).
var errStop = errors.New("ingest: stop")

// startSampler launches the optional background rate sampler for the
// stability series (Figure 2 right) and returns a function that stops
// it and records the final cut. With every <= 0 it is a no-op.
func startSampler(meter *telemetry.RateMeter, every time.Duration) (stop func()) {
	if every <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				meter.Cut()
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		meter.Cut()
	}
}

// FormatLine renders a point in the OpenTSDB telnet protocol:
// "put <metric> <timestamp> <value> <tagk=tagv> …".
func FormatLine(p *tsdb.Point) string {
	var b strings.Builder
	b.WriteString("put ")
	b.WriteString(p.Metric)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(p.Timestamp, 10))
	b.WriteByte(' ')
	b.WriteString(strconv.FormatFloat(p.Value, 'g', -1, 64))
	keys := make([]string, 0, len(p.Tags))
	for k := range p.Tags {
		keys = append(keys, k)
	}
	// Deterministic order for tests and logs.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for _, k := range keys {
		b.WriteByte(' ')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(p.Tags[k])
	}
	return b.String()
}

// ParseLine parses one telnet-protocol line.
func ParseLine(line string) (tsdb.Point, error) {
	fields := strings.Fields(line)
	if len(fields) < 5 || fields[0] != "put" {
		return tsdb.Point{}, fmt.Errorf("%w: %q", tsdb.ErrBadPoint, line)
	}
	ts, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil {
		return tsdb.Point{}, fmt.Errorf("%w: bad timestamp in %q", tsdb.ErrBadPoint, line)
	}
	val, err := strconv.ParseFloat(fields[3], 64)
	if err != nil {
		return tsdb.Point{}, fmt.Errorf("%w: bad value in %q", tsdb.ErrBadPoint, line)
	}
	tags := make(map[string]string, len(fields)-4)
	for _, f := range fields[4:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok || k == "" || v == "" {
			return tsdb.Point{}, fmt.Errorf("%w: bad tag %q", tsdb.ErrBadPoint, f)
		}
		tags[k] = v
	}
	p := tsdb.Point{Metric: fields[1], Timestamp: ts, Value: val, Tags: tags}
	if err := p.Validate(); err != nil {
		return tsdb.Point{}, err
	}
	return p, nil
}

// jsonPoint mirrors OpenTSDB's /api/put JSON schema.
type jsonPoint struct {
	Metric    string            `json:"metric"`
	Timestamp int64             `json:"timestamp"`
	Value     float64           `json:"value"`
	Tags      map[string]string `json:"tags"`
}

// ParseJSON decodes an OpenTSDB /api/put body: either one point object
// or an array of them.
func ParseJSON(body []byte) ([]tsdb.Point, error) {
	trimmed := strings.TrimSpace(string(body))
	var raw []jsonPoint
	if strings.HasPrefix(trimmed, "[") {
		if err := json.Unmarshal(body, &raw); err != nil {
			return nil, fmt.Errorf("%w: %v", tsdb.ErrBadPoint, err)
		}
	} else {
		var one jsonPoint
		if err := json.Unmarshal(body, &one); err != nil {
			return nil, fmt.Errorf("%w: %v", tsdb.ErrBadPoint, err)
		}
		raw = []jsonPoint{one}
	}
	out := make([]tsdb.Point, 0, len(raw))
	for _, jp := range raw {
		p := tsdb.Point{Metric: jp.Metric, Timestamp: jp.Timestamp, Value: jp.Value, Tags: jp.Tags}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// FormatJSON encodes points as an /api/put array body.
func FormatJSON(points []tsdb.Point) ([]byte, error) {
	raw := make([]jsonPoint, len(points))
	for i, p := range points {
		raw[i] = jsonPoint{Metric: p.Metric, Timestamp: p.Timestamp, Value: p.Value, Tags: p.Tags}
	}
	return json.Marshal(raw)
}
