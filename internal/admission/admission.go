package admission

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
)

// Class is a request's priority class. Higher-value classes shed at
// lower pressure: Bulk goes first, Ingest last, Exempt never.
type Class uint8

const (
	// Exempt requests (health, readiness, metrics) are never shed.
	Exempt Class = iota
	// Ingest is sensor writes — the data the system exists to keep.
	Ingest
	// Interactive is dashboard reads: a human is waiting, but a
	// refresh can fail visibly and be retried.
	Interactive
	// Bulk is exports and backfill — NDJSON scans, SSE catch-up —
	// cheap to retry and nobody is blocked on it.
	Bulk

	numClasses
)

// String returns the class name used in metric names and shed reasons.
func (c Class) String() string {
	switch c {
	case Exempt:
		return "exempt"
	case Ingest:
		return "ingest"
	case Interactive:
		return "interactive"
	case Bulk:
		return "bulk"
	}
	return "unknown"
}

// Signal is one queue-depth input to pressure: Load/Limit is the
// signal's contribution (1.0 = the queue is at budget). Load must be
// safe to call concurrently; Limit ≤ 0 disables the signal.
type Signal struct {
	Name  string
	Load  func() int64
	Limit int64
}

// Config tunes a Controller. Zero values take the documented defaults.
type Config struct {
	// Signals are the queue-depth pressure inputs (e.g. storage-group
	// lag over a lag budget).
	Signals []Signal

	// RecomputeEvery bounds how often pressure is refreshed from the
	// signals; the refresh happens inline on Admit, so idle systems do
	// no background work (default 100ms).
	RecomputeEvery time.Duration

	// RatePerSec is every identity's request budget: a token bucket
	// refilling at RatePerSec with bursts up to Burst (default 2× the
	// rate in whole tokens, at least 1). Zero RatePerSec leaves
	// requests unbudgeted.
	RatePerSec float64
	Burst      float64

	// Clock overrides the wall clock (tests run on clock.Manual).
	Clock clock.Clock
}

// Decision is the outcome of Admit. When !OK the request must be
// rejected with Status and Retry-After before any per-request work.
type Decision struct {
	OK         bool
	Status     int    // 503 (pressure shed) or 429 (budget spent)
	RetryAfter int    // seconds
	Reason     string // human-readable refusal reason
}

// Controller is the gateway's one refusal point. It folds load signals
// into one pressure scalar and sheds requests by class, then charges
// the request to its identity's budget. The hot path (Admit under
// steady pressure, no budget) is two atomic loads and an atomic
// increment — no locks, no allocation.
type Controller struct {
	cfg       Config
	recompute int64 // ns

	pressure atomic.Uint64 // float64 bits
	lastTick atomic.Int64  // unix nanos of last recompute
	fastEWMA atomic.Uint64 // ingest latency ms, float64 bits
	slowEWMA atomic.Uint64

	// The identity → bucket table behind the budget; see take and
	// makeRoom.
	bmu       sync.Mutex
	buckets   map[string]*identityBucket
	lastPrune time.Time

	// Admitted and Shed count pressure decisions per class (index by
	// Class).
	Admitted [numClasses]telemetry.Counter
	Shed     [numClasses]telemetry.Counter
	// RateLimited counts budget 429s. They are not sheds: a client over
	// its budget says nothing about overload.
	RateLimited telemetry.Counter
}

// identityBucket is one identity's budget and when it last spent from
// it (what idle pruning goes by).
type identityBucket struct {
	*clock.TokenBucket
	last time.Time
}

// maxIdentities hard-caps the bucket table. Identities are validated
// keys or remote IPs — not freely attacker-mintable — but a widely
// distributed caller population can still be large, so the table must
// stay bounded in memory and O(1) per request.
const maxIdentities = 4096

// EWMA smoothing per latency observation: the fast track reacts within
// a handful of requests, the slow one holds the recent baseline.
const (
	fastAlpha = 0.3
	slowAlpha = 0.02
)

// The latency gradient's shape: a fast EWMA gradientLimit times the slow
// one is pressure 1.0, and below minLatencyMs the fast EWMA is noise and
// the gradient is ignored.
const (
	gradientLimit = 3.0
	minLatencyMs  = 5.0
)

// thresholds are the shed thresholds per class: requests of a class are
// refused while pressure ≥ its threshold.
var thresholds = [numClasses]float64{Exempt: math.Inf(1), Ingest: 1.0, Interactive: 0.75, Bulk: 0.5}

// NewController builds a Controller; see Config for defaults.
func NewController(cfg Config) *Controller {
	if cfg.RecomputeEvery <= 0 {
		cfg.RecomputeEvery = 100 * time.Millisecond
	}
	if cfg.Burst <= 0 {
		cfg.Burst = math.Max(1, math.Floor(2*cfg.RatePerSec))
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	return &Controller{
		cfg:       cfg,
		recompute: int64(cfg.RecomputeEvery),
		buckets:   make(map[string]*identityBucket),
	}
}

// Admit decides whether a request of the given class, from the given
// identity (a validated API key, else the remote IP), may proceed.
// Pressure sheds first — 503, by class (Exempt's threshold is
// infinite), and never on a controller without Signals: the latency
// gradient alone, with no queue to corroborate it, is not overload.
// Then the identity's budget — 429 once its bucket is empty, whatever
// the class.
func (c *Controller) Admit(class Class, identity string) Decision {
	if class >= numClasses {
		class = Exempt
	}
	if len(c.cfg.Signals) > 0 {
		c.maybeRecompute()
		p := c.Pressure()
		if th := thresholds[class]; p >= th {
			c.Shed[class].Inc()
			return Decision{
				Status:     503,
				RetryAfter: retryAfter(p, th),
				Reason:     "shedding " + class.String() + " traffic under overload",
			}
		}
	}
	if c.cfg.RatePerSec > 0 {
		if ok, wait := c.take(identity); !ok {
			c.RateLimited.Inc()
			return Decision{
				Status:     429,
				RetryAfter: int((wait + time.Second - 1) / time.Second), // whole seconds, rounded up
				Reason:     "rate limit exceeded",
			}
		}
	}
	c.Admitted[class].Inc()
	return Decision{OK: true}
}

// ObserveLatency feeds one completed request's latency into the
// gradient signal. Only Ingest-class observations move the EWMAs: the
// gradient guards the write path; read latencies have their own
// histograms in the access log.
func (c *Controller) ObserveLatency(class Class, d time.Duration) {
	if class != Ingest {
		return
	}
	ms := float64(d) / float64(time.Millisecond)
	ewmaUpdate(&c.fastEWMA, fastAlpha, ms)
	ewmaUpdate(&c.slowEWMA, slowAlpha, ms)
}

// Pressure returns the last computed pressure scalar.
func (c *Controller) Pressure() float64 {
	return math.Float64frombits(c.pressure.Load())
}

// Recompute refreshes pressure from the signals immediately. Admit
// calls this at most once per Config.RecomputeEvery; tests call it
// directly after moving a signal.
func (c *Controller) Recompute() {
	var p float64
	for i := range c.cfg.Signals {
		s := &c.cfg.Signals[i]
		if s.Limit <= 0 {
			continue
		}
		if r := float64(s.Load()) / float64(s.Limit); r > p {
			p = r
		}
	}
	fast := math.Float64frombits(c.fastEWMA.Load())
	slow := math.Float64frombits(c.slowEWMA.Load())
	if fast >= minLatencyMs && slow > 0 {
		if g := fast / slow / gradientLimit; g > p {
			p = g
		}
	}
	c.pressure.Store(math.Float64bits(p))
}

func (c *Controller) maybeRecompute() {
	now := c.cfg.Clock.Now().UnixNano()
	last := c.lastTick.Load()
	if now-last < c.recompute {
		return
	}
	if !c.lastTick.CompareAndSwap(last, now) {
		return // another request took this tick
	}
	c.Recompute()
}

// take spends one token of identity's bucket, reporting the wait until
// the next token when it is empty.
func (c *Controller) take(identity string) (bool, time.Duration) {
	now := c.cfg.Clock.Now()
	c.bmu.Lock()
	b := c.buckets[identity]
	if b == nil {
		if len(c.buckets) >= maxIdentities {
			c.makeRoom(now)
		}
		b = &identityBucket{TokenBucket: clock.NewTokenBucket(c.cfg.RatePerSec, c.cfg.Burst, c.cfg.Clock)}
		c.buckets[identity] = b
	}
	b.last = now
	c.bmu.Unlock()
	return b.TryTake(1)
}

// makeRoom keeps the table under its cap: buckets idle long enough to
// have refilled (indistinguishable from fresh ones) are reclaimed, at
// most once a second — a full-table scan must not run per request —
// and then arbitrary entries are evicted. An evicted active identity
// merely restarts with a full bucket, which is the fail-open
// direction. Called with bmu held.
func (c *Controller) makeRoom(now time.Time) {
	if now.Sub(c.lastPrune) >= time.Second {
		c.lastPrune = now
		idle := max(time.Minute, time.Duration(c.cfg.Burst/c.cfg.RatePerSec*float64(time.Second)))
		for k, b := range c.buckets {
			if now.Sub(b.last) > idle {
				delete(c.buckets, k)
			}
		}
	}
	for k := range c.buckets {
		if len(c.buckets) < maxIdentities {
			break
		}
		delete(c.buckets, k)
	}
}

// ShedTotal sums pressure sheds across all classes (the gateway_sheds
// counter of cmd/harness's load scenario).
func (c *Controller) ShedTotal() int64 {
	var n int64
	for i := Class(0); i < numClasses; i++ {
		n += c.Shed[i].Value()
	}
	return n
}

// Register exposes the controller's counters and the live pressure
// (×1000, as admission_pressure_milli) on reg.
func (c *Controller) Register(reg *telemetry.Registry) {
	for class := Ingest; class < numClasses; class++ {
		reg.RegisterCounter("admission_admitted_"+class.String(), &c.Admitted[class])
		reg.RegisterCounter("admission_shed_"+class.String(), &c.Shed[class])
	}
	reg.RegisterCounter("admission_rate_limited", &c.RateLimited)
	reg.RegisterFunc("admission_pressure_milli", func() int64 {
		return int64(c.Pressure() * 1000)
	})
}

// retryAfter scales the backoff hint with how far past the threshold
// pressure sits: 1s at the threshold, +2s per unit of excess, capped
// at 8s.
func retryAfter(p, threshold float64) int {
	secs := 1 + int(2*(p-threshold))
	if secs < 1 {
		secs = 1
	}
	if secs > 8 {
		secs = 8
	}
	return secs
}

func ewmaUpdate(a *atomic.Uint64, alpha, v float64) {
	for {
		old := a.Load()
		cur := math.Float64frombits(old)
		next := cur + alpha*(v-cur)
		if old == 0 {
			next = v // first observation seeds the average
		}
		if a.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}
