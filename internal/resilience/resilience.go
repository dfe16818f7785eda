package resilience

import (
	"context"
	"math/rand/v2"
	"sync/atomic"
	"time"
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
