package bus

import (
	"context"

	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// Consume is the pipeline's one consumer loop — the storage writers,
// the detector workers and the SSE tail all run it. It hands each poll
// of c to handle whole, and the poll is committed by the fetch after it
// (ConsumerHandle.Next), so a record counts as delivered only once
// handle returned nil for its whole poll. A transient fetch fault
// (resilience.Transient: an injected error or drop, a deadline) parks
// the loop through resilience.Park, counted on parks and parked,
// instead of ending it.
//
// The loop stops when ctx ends, c is evicted, the bus closes, or handle
// fails. On a stop it commits the last poll handle finished, as the
// next fetch would have; a handle error means its poll was not handled
// whole, so that poll stays uncommitted and is redelivered. Then c
// leaves its group.
func Consume(ctx context.Context, c ConsumerHandle, parks *telemetry.Counter, parked *telemetry.Gauge, handle func(recs []Record) error) {
	defer c.Leave()
	// Two buffers, alternating: a retried Next resends done, so the
	// poll must not write over it.
	bufs := [2][]Record{make([]Record, 0, 16), make([]Record, 0, 16)}
	var done []Record
	for k := 0; ; k ^= 1 {
		var recs []Record
		if err := resilience.Park(ctx, parks, parked, func() (err error) {
			recs, err = c.Next(ctx, done, bufs[k])
			return err
		}); err != nil {
			_ = c.CommitPolled(done)
			return
		}
		// done rode the fetch that returned recs.
		if handle(recs) != nil {
			return
		}
		bufs[k], done = recs, recs
	}
}
