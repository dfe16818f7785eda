package resilience

import (
	"sync"
	"time"

	"repro/internal/telemetry"
)

// State is a circuit breaker state.
type State int32

const (
	Closed State = iota
	Open
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig configures a Breaker. The zero value is usable.
type BreakerConfig struct {
	FailureThreshold int              // consecutive failures to trip; default 5
	Cooldown         time.Duration    // open → half-open delay; default 1s
	ProbeLimit       int              // concurrent half-open probes; default 1
	SuccessesToClose int              // probe successes required to close; default 2
	Now              func() time.Time // injectable clock; default time.Now
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	if c.ProbeLimit <= 0 {
		c.ProbeLimit = 1
	}
	if c.SuccessesToClose <= 0 {
		c.SuccessesToClose = 2
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a closed → open → half-open circuit breaker. Callers ask
// Allow before attempting a request and report the outcome with Success
// or Failure. While open, Allow rejects until Cooldown has elapsed,
// then admits up to ProbeLimit concurrent probes; SuccessesToClose
// probe successes close the breaker, any probe failure re-opens it.
type Breaker struct {
	cfg BreakerConfig
	g   *Group // counts the transitions

	mu        sync.Mutex
	st        State
	failures  int // consecutive failures while closed
	successes int // probe successes while half-open
	inflight  int // half-open probes in flight
	openedAt  time.Time
}

// Allow reports whether a request may proceed, transitioning
// open → half-open when the cooldown has elapsed. A true return in the
// half-open state reserves a probe slot; the caller must report the
// outcome via Success or Failure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.st {
	case Closed:
		return true
	case Open:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			return false
		}
		b.st = HalfOpen
		b.successes = 0
		b.inflight = 1
		b.g.HalfOpens.Inc()
		return true
	default: // HalfOpen
		if b.inflight >= b.cfg.ProbeLimit {
			return false
		}
		b.inflight++
		return true
	}
}

// Success records a successful request.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.st {
	case Closed:
		b.failures = 0
	case HalfOpen:
		if b.inflight > 0 {
			b.inflight--
		}
		b.successes++
		if b.successes >= b.cfg.SuccessesToClose {
			b.st = Closed
			b.failures = 0
			b.successes = 0
			b.inflight = 0
			b.g.Closes.Inc()
		}
	}
	// A late success against an open breaker changes nothing.
}

// Failure records a failed request.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.st {
	case Closed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.trip()
		}
	case HalfOpen:
		// A failed probe re-opens immediately and restarts the cooldown.
		b.trip()
	case Open:
		// Late failures while already open keep the cooldown as-is so
		// recovery probing is not starved by stragglers.
	}
}

// trip moves to Open. Caller holds b.mu.
func (b *Breaker) trip() {
	b.st = Open
	b.openedAt = b.cfg.Now()
	b.failures = 0
	b.successes = 0
	b.inflight = 0
	b.g.Opens.Inc()
}

// State reports the current state without transitioning it.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.st
}

// Snapshot reports the breaker's internal counters for diagnostics:
// consecutive failures while closed, probe successes while half-open,
// and half-open probes currently in flight.
func (b *Breaker) Snapshot() (st State, failures, successes, inflight int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.st, b.failures, b.successes, b.inflight
}

// Group keys breakers by target (an rpc address) sharing one config,
// and counts state transitions across all of them for telemetry.
type Group struct {
	Opens     telemetry.Counter // closed/half-open → open transitions
	HalfOpens telemetry.Counter // open → half-open transitions
	Closes    telemetry.Counter // half-open → closed transitions

	cfg BreakerConfig
	mu  sync.Mutex
	m   map[string]*Breaker
}

// NewGroup returns an empty breaker group; breakers are created lazily
// by For with the given config.
func NewGroup(cfg BreakerConfig) *Group {
	return &Group{cfg: cfg.withDefaults(), m: make(map[string]*Breaker)}
}

// For returns the breaker for target, creating it closed on first use.
func (g *Group) For(target string) *Breaker {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.m[target]
	if !ok {
		b = &Breaker{cfg: g.cfg, g: g}
		g.m[target] = b
	}
	return b
}

// OpenCount reports how many breakers are currently not closed.
func (g *Group) OpenCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, b := range g.m {
		if b.State() != Closed {
			n++
		}
	}
	return n
}
