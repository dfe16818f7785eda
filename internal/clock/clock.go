// Package clock abstracts time for the simulated cluster.
//
// Two concerns live here:
//
//   - Clock: an injectable source of time so tests and the discrete
//     experiment harnesses can run deterministically, and
//   - TokenBucket: the repo's one refill loop. Blocking (Take), it is
//     the service-rate limiter that emulates the per-node throughput
//     ceiling of the paper's commodity HBase RegionServers;
//     non-blocking (TryTake), it is the per-identity request budget of
//     the gateway's admission stage (internal/admission).
//
// The paper's Figure 2 numbers (~11–13k samples/s per storage node) are
// hardware facts about disk- and RPC-bound RegionServers. This package
// lets the simulator reproduce the *shape* of those results by giving
// each simulated node a calibrated token-bucket service rate, optionally
// scaled by a speed-up factor so a 30-node sweep finishes in seconds on
// a laptop. Benchmarks report both raw and paper-scale rates.
package clock

import (
	"sync"
	"time"
)

// Clock supplies the current time and sleeping. Production code uses
// Real; tests use a Manual clock they can step.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// Real is the wall clock.
type Real struct{}

// Now returns time.Now().
func (Real) Now() time.Time { return time.Now() }

// Sleep pauses the calling goroutine for d.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// Manual is a test clock advanced explicitly with Advance. Sleep blocks
// until the clock has been advanced past the deadline.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []chan struct{}
}

// NewManual returns a manual clock initialized to start.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

// Now returns the clock's current instant.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Advance moves the clock forward by d and wakes all sleepers whose
// deadlines have passed (sleepers re-check their own deadlines).
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.now = m.now.Add(d)
	ws := m.waiters
	m.waiters = nil
	m.mu.Unlock()
	for _, w := range ws {
		close(w)
	}
}

// Sleep blocks until Advance has moved the clock at least d past the
// instant Sleep was called.
func (m *Manual) Sleep(d time.Duration) {
	m.mu.Lock()
	deadline := m.now.Add(d)
	m.mu.Unlock()
	for {
		m.mu.Lock()
		if !m.now.Before(deadline) {
			m.mu.Unlock()
			return
		}
		w := make(chan struct{})
		m.waiters = append(m.waiters, w)
		m.mu.Unlock()
		<-w
	}
}

// TokenBucket is a thread-safe rate limiter: Take(n) blocks until n
// tokens are available at the configured refill rate. A zero or
// negative rate means "unlimited" and Take returns immediately, which
// is how the un-emulated (pure software throughput) benchmarks run.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second; <=0 disables limiting
	burst  float64
	tokens float64
	last   time.Time
	clk    Clock
}

// NewTokenBucket returns a bucket refilling at rate tokens/second with
// the given burst capacity. A nil clk defaults to the real clock.
func NewTokenBucket(rate, burst float64, clk Clock) *TokenBucket {
	if clk == nil {
		clk = Real{}
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst, last: clk.Now(), clk: clk}
}

// Rate returns the configured refill rate in tokens/second.
func (b *TokenBucket) Rate() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rate
}

// SetRate changes the refill rate; rate <= 0 disables limiting.
func (b *TokenBucket) SetRate(rate float64) {
	b.mu.Lock()
	b.refillLocked()
	b.rate = rate
	b.mu.Unlock()
}

func (b *TokenBucket) refillLocked() {
	now := b.clk.Now()
	dt := now.Sub(b.last).Seconds()
	if dt > 0 && b.rate > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
}

// TryTake consumes n tokens if available without blocking and reports
// whether it succeeded; when it did not, wait is how long the refill
// needs to cover the deficit (the Retry-After of a rate-limited
// request). Unlimited buckets always succeed.
func (b *TokenBucket) TryTake(n float64) (ok bool, wait time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rate <= 0 {
		return true, 0
	}
	b.refillLocked()
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	return false, time.Duration((n - b.tokens) / b.rate * float64(time.Second))
}

// Take blocks until n tokens are available and consumes them. It
// degrades to a no-op for unlimited buckets. Requests larger than the
// burst are served by letting the token balance go negative, which
// models a long synchronous write occupying the server.
func (b *TokenBucket) Take(n float64) {
	b.mu.Lock()
	if b.rate <= 0 {
		b.mu.Unlock()
		return
	}
	b.refillLocked()
	b.tokens -= n
	deficit := -b.tokens
	rate := b.rate
	b.mu.Unlock()
	if deficit > 0 {
		b.clk.Sleep(time.Duration(deficit / rate * float64(time.Second)))
	}
}
