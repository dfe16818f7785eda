package resilience

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// Defaults applied by Backoff.Delay when fields are zero.
const (
	DefaultBase   = 10 * time.Millisecond
	DefaultMax    = 5 * time.Second
	DefaultFactor = 2.0
)

// Backoff computes capped exponential delays, optionally with full
// jitter. The zero value is usable and yields 10ms, 20ms, 40ms, ...
// capped at 5s, unjittered.
type Backoff struct {
	Base   time.Duration // delay before the first retry; default 10ms
	Max    time.Duration // delay cap; default 5s
	Factor float64       // growth per attempt; default 2
	Jitter bool          // draw the delay uniformly from [d/2, d]
	// Rand supplies randomness for jitter. Nil uses the process-wide
	// math/rand/v2 source; tests and the chaos soak inject a seeded
	// source (see NewRand) for reproducibility.
	Rand func() uint64
}

// Delay returns the backoff for the given retry attempt (0 = the delay
// before the first retry).
func (b Backoff) Delay(attempt int) time.Duration {
	base, maxd, factor := b.Base, b.Max, b.Factor
	if base <= 0 {
		base = DefaultBase
	}
	if maxd <= 0 {
		maxd = DefaultMax
	}
	if factor < 1 {
		factor = DefaultFactor
	}
	d := float64(base)
	for i := 0; i < attempt; i++ {
		d *= factor
		if d >= float64(maxd) {
			break
		}
	}
	delay := time.Duration(d)
	if delay > maxd {
		delay = maxd
	}
	if b.Jitter && delay > 1 {
		half := delay / 2
		span := uint64(delay - half + 1)
		var r uint64
		if b.Rand != nil {
			r = b.Rand()
		} else {
			r = rand.Uint64()
		}
		delay = half + time.Duration(r%span)
	}
	return delay
}

// NewRand returns a deterministic uint64 source (splitmix64) suitable
// for Backoff.Rand. It is safe for concurrent use.
func NewRand(seed uint64) func() uint64 {
	var state atomic.Uint64
	state.Store(seed)
	return func() uint64 {
		z := state.Add(0x9e3779b97f4a7c15)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

// ErrUnavailable is what a caller that tries several backends returns
// when none would take the work right now — every circuit open, or its
// attempts used up — though they are expected back.
var ErrUnavailable = errors.New("resilience: backends unavailable")

// Transient reports whether err is worth waiting out in place: the
// storage tier or the bus is momentarily down, overloaded or faulted
// (an injected error or drop, a deadline) but expected back. Shape
// errors and shutdown are not transient — retrying a malformed batch
// forever would wedge its partition.
func Transient(err error) bool {
	return errors.Is(err, ErrUnavailable) ||
		errors.Is(err, rpc.ErrServerDown) ||
		errors.Is(err, rpc.ErrQueueOverflow) ||
		errors.Is(err, faultinject.ErrInjected) ||
		errors.Is(err, faultinject.ErrDropped) ||
		errors.Is(err, context.DeadlineExceeded)
}

// Park runs op until it succeeds, fails with an error that is not
// Transient, or ctx ends, waiting out transient failures with jittered
// backoff (5 ms doubling to 500 ms). The first transient failure counts
// a park episode on parks, and parked holds one more while the caller
// waits. This is the park-and-resume the consumer loop (bus.Consume)
// uses: the records it polled stay uncommitted while it is parked, so
// a crash redelivers them.
func Park(ctx context.Context, parks *telemetry.Counter, parked *telemetry.Gauge, op func() error) error {
	boff := Backoff{Base: 5 * time.Millisecond, Factor: 2, Max: 500 * time.Millisecond, Jitter: true}
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || !Transient(err) || ctx.Err() != nil {
			if attempt > 0 {
				parked.Dec()
			}
			return err
		}
		if attempt == 0 {
			parks.Inc()
			parked.Inc()
		}
		if Sleep(ctx, boff.Delay(attempt)) != nil {
			parked.Dec()
			return ctx.Err()
		}
	}
}

// Sleep blocks for d or until ctx is done, returning ctx's error in the
// latter case.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
