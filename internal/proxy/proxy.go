// Package proxy implements the buffering reverse proxy from §III-B:
// "we built a reverse proxy to buffer requests to OpenTSDB in order to
// limit the number of concurrent requests … This proxy also serves to
// increase ingestion throughput by load-balancing traffic to multiple
// ingestion processes … via a round-robin fashion."
//
// Mechanically it is a bounded queue in front of the TSD tier:
//
//   - Submit enqueues a batch, blocking the producer when the buffer
//     is full — backpressure propagates to the data source instead of
//     overflowing RegionServer RPC queues; SubmitContext bounds the
//     wait with the caller's deadline;
//   - a fixed pool of senders drains the queue, capping the number of
//     concurrent requests hitting the TSDs; each delivery attempt can
//     carry a deadline that the RPC fabric propagates through the TSD
//     into its HBase client;
//   - batches rotate across TSD daemons round-robin, and transient
//     failures (queue overflow, server down during failover) are
//     retried on the next daemon with backoff; a batch a daemon refuses
//     as malformed (tsdb.ErrBadPoint) is permanent — dropped at once,
//     never retried, never charged to a circuit breaker.
//
// Shutdown follows the fabric's drain protocol: Close first turns new
// submitters away, then unblocks any producer waiting on a full
// buffer, and only once no submitter can be mid-send do the senders
// flush the remaining batches and exit — the buffer channel is never
// closed under a sender.
package proxy

import (
	"context"
	"errors"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/resilience"
	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("proxy: closed")

// ErrNoBackends means the proxy was built with no TSD addresses.
var ErrNoBackends = errors.New("proxy: no backends")

// errAllBreakersOpen is the internal delivery outcome when every
// backend's circuit is open: hold off and re-probe instead of burning
// calls into known-dead daemons.
var errAllBreakersOpen = errors.New("proxy: all backend breakers open")

// Config tunes the proxy.
type Config struct {
	// MaxInFlight caps concurrent requests to the TSD tier (default 8).
	MaxInFlight int
	// BufferBatches is the queue capacity in batches (default 1024).
	// Submit blocks while the buffer is full.
	BufferBatches int
	// MaxRetries bounds delivery attempts per batch (default 8).
	// Negative retries without bound until the proxy stops — the
	// zero-loss setting when producers can tolerate the backpressure.
	MaxRetries int
	// RetryBackoff seeds the retry backoff (default 2ms). Delays grow
	// exponentially with full jitter (resilience.Backoff), capped at
	// 250ms, so a fleet of senders retrying a recovering TSD
	// desynchronizes instead of thundering in lockstep.
	RetryBackoff time.Duration
	// Breakers, when set, adds per-backend circuit breakers: delivery
	// skips backends whose circuit is open, and when every circuit is
	// open the sender backs off instead of attempting at all.
	Breakers *resilience.Group
	// DeliveryTimeout, when > 0, bounds each delivery attempt with a
	// deadline propagated through the TSD into the region servers.
	// Note this makes delivery at-least-once: an attempt abandoned at
	// the deadline may still complete server-side while the batch is
	// retried elsewhere, so delivered/written counters can exceed the
	// submitted count under timeouts. Point writes themselves are
	// idempotent (same cell, same value).
	DeliveryTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8
	}
	if c.BufferBatches <= 0 {
		c.BufferBatches = 1024
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	return c
}

// Proxy is the ingestion frontend.
type Proxy struct {
	net   *rpc.Network
	tsds  []string
	cfg   Config
	queue chan []tsdb.Point
	rr    atomic.Uint64
	// faults, when set, injects on submission ("proxy/submit").
	faults atomic.Pointer[faultinject.Injector]

	// mu guards closed against Submit's entry; submitters tracks
	// producers between that check and their queue send so Close can
	// wait out anyone blocked on a full buffer before stopping the
	// senders.
	mu         sync.RWMutex
	closed     bool
	submitters sync.WaitGroup
	done       chan struct{} // closed first: unblocks waiting submitters
	stop       chan struct{} // closed second: senders flush and exit
	workers    sync.WaitGroup
	pending    sync.WaitGroup
	closeOnce  sync.Once
	poisonLog  sync.Once // the first refused batch is logged, the rest counted

	// drainMu/drainIdle share one idle-waiter across retried Drain
	// calls (see rpc.Server.Drain for the rationale).
	drainMu   sync.Mutex
	drainIdle chan struct{}

	// Accepted counts points admitted by Submit.
	Accepted telemetry.Counter
	// Delivered counts points acknowledged by a TSD.
	Delivered telemetry.Counter
	// Dropped counts points abandoned: after MaxRetries, or at once
	// when a TSD refuses the batch as malformed (tsdb.ErrBadPoint).
	Dropped telemetry.Counter
	// Retries counts re-sent batches.
	Retries telemetry.Counter
	// QueueDepth tracks buffered batches.
	QueueDepth telemetry.Gauge
}

// New starts a proxy over the given TSD addresses.
func New(net *rpc.Network, tsdAddrs []string, cfg Config) (*Proxy, error) {
	if len(tsdAddrs) == 0 {
		return nil, ErrNoBackends
	}
	cfg = cfg.withDefaults()
	p := &Proxy{
		net:   net,
		tsds:  append([]string(nil), tsdAddrs...),
		cfg:   cfg,
		queue: make(chan []tsdb.Point, cfg.BufferBatches),
		done:  make(chan struct{}),
		stop:  make(chan struct{}),
	}
	p.workers.Add(cfg.MaxInFlight)
	for i := 0; i < cfg.MaxInFlight; i++ {
		go p.sender()
	}
	return p, nil
}

// Submit enqueues one batch with no deadline (see SubmitContext).
func (p *Proxy) Submit(points []tsdb.Point) error {
	return p.SubmitContext(context.Background(), points)
}

// SubmitContext enqueues one batch for delivery, blocking while the
// buffer is full (the backpressure contract) until ctx is done or the
// proxy closes. The batch is copied; callers may reuse the slice.
func (p *Proxy) SubmitContext(ctx context.Context, points []tsdb.Point) error {
	if len(points) == 0 {
		return nil
	}
	if f := p.faults.Load(); f.Active() > 0 {
		if err := f.Do(ctx, "proxy/submit"); err != nil {
			return err
		}
	}
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return ErrClosed
	}
	p.submitters.Add(1)
	p.mu.RUnlock()
	defer p.submitters.Done()

	batch := make([]tsdb.Point, len(points))
	copy(batch, points)
	p.pending.Add(1)
	p.QueueDepth.Inc()
	select {
	case p.queue <- batch:
		p.Accepted.Add(int64(len(points)))
		return nil
	case <-ctx.Done():
		p.QueueDepth.Dec()
		p.pending.Done()
		return ctx.Err()
	case <-p.done:
		p.QueueDepth.Dec()
		p.pending.Done()
		return ErrClosed
	}
}

// sender drains the queue, delivering with round-robin + retry. After
// stop it flushes whatever remains, then exits.
func (p *Proxy) sender() {
	defer p.workers.Done()
	for {
		select {
		case batch := <-p.queue:
			p.QueueDepth.Dec()
			p.deliver(batch)
			p.pending.Done()
		case <-p.stop:
			for {
				select {
				case batch := <-p.queue:
					p.QueueDepth.Dec()
					p.deliver(batch)
					p.pending.Done()
				default:
					return
				}
			}
		}
	}
}

// SetFaults installs (or, with nil, removes) a fault injector consulted
// on every submission, with operation "proxy/submit".
func (p *Proxy) SetFaults(f *faultinject.Injector) { p.faults.Store(f) }

// pickBackend rotates to the next backend, skipping open circuits when
// breakers are configured. The empty address means every circuit is
// open right now.
func (p *Proxy) pickBackend() (string, *resilience.Breaker) {
	n := uint64(len(p.tsds))
	i := p.rr.Add(1)
	if p.cfg.Breakers == nil {
		return p.tsds[i%n], nil
	}
	for k := uint64(0); k < n; k++ {
		addr := p.tsds[(i+k)%n]
		if br := p.cfg.Breakers.For(addr); br.Allow() {
			return addr, br
		}
	}
	return "", nil
}

// canRetry reports whether another delivery attempt is allowed after
// the given attempt index. Unbounded mode (MaxRetries < 0) stops
// retrying once the proxy is shutting down so Close cannot hang on
// dead backends.
func (p *Proxy) canRetry(attempt int) bool {
	if p.cfg.MaxRetries >= 0 {
		return attempt < p.cfg.MaxRetries
	}
	select {
	case <-p.stop:
		return false
	default:
		return true
	}
}

// backoffWait sleeps d, cut short by proxy shutdown.
func (p *Proxy) backoffWait(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-p.stop:
	}
}

// deliver attempts the batch against rotating TSDs, recording outcomes
// on the per-backend breakers when configured.
func (p *Proxy) deliver(batch []tsdb.Point) {
	boff := resilience.Backoff{Base: p.cfg.RetryBackoff, Factor: 2, Max: 250 * time.Millisecond, Jitter: true}
	for attempt := 0; ; attempt++ {
		addr, br := p.pickBackend()
		err := errAllBreakersOpen
		if addr != "" {
			ctx := context.Background()
			cancel := context.CancelFunc(func() {})
			if p.cfg.DeliveryTimeout > 0 {
				ctx, cancel = context.WithTimeout(ctx, p.cfg.DeliveryTimeout)
			}
			_, err = p.net.Call(ctx, addr, "put", &tsdb.PutBatch{Points: batch})
			cancel()
			// A backend that refuses the batch as malformed has answered:
			// it is healthy, and no retry on any backend can change the
			// verdict. Only the batch is dropped.
			poison := errors.Is(err, tsdb.ErrBadPoint)
			if br != nil {
				if err == nil || poison {
					br.Success()
				} else {
					br.Failure()
				}
			}
			if err == nil {
				p.Delivered.Add(int64(len(batch)))
				return
			}
			if poison {
				p.Dropped.Add(int64(len(batch)))
				p.poisonLog.Do(func() {
					log.Printf("proxy: dropped a batch of %d points %s refused: %v (later ones are only counted, in Dropped)", len(batch), addr, err)
				})
				return
			}
		}
		if !p.canRetry(attempt) {
			break
		}
		p.Retries.Inc()
		// Back off on pressure signals, open circuits, and after every
		// full fruitless rotation; a single dead TSD rotates
		// immediately.
		if errors.Is(err, rpc.ErrQueueOverflow) || errors.Is(err, errAllBreakersOpen) ||
			(attempt+1)%len(p.tsds) == 0 {
			p.backoffWait(boff.Delay(attempt))
		}
	}
	p.Dropped.Add(int64(len(batch)))
}

// Flush blocks until every submitted batch is delivered or dropped.
// Like Drain, it assumes producers have quiesced.
func (p *Proxy) Flush() {
	p.pending.Wait()
}

// Drain blocks until the buffer empties and in-flight deliveries
// finish, or ctx is done. The proxy stays open; pair with Close for
// full shutdown.
func (p *Proxy) Drain(ctx context.Context) error {
	p.drainMu.Lock()
	idle := p.drainIdle
	if idle == nil {
		idle = make(chan struct{})
		p.drainIdle = idle
		go func() {
			p.pending.Wait()
			p.drainMu.Lock()
			p.drainIdle = nil
			p.drainMu.Unlock()
			close(idle)
		}()
	}
	p.drainMu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close flushes and stops the senders. Submit fails afterwards, and
// producers blocked on a full buffer are woken with ErrClosed.
func (p *Proxy) Close() {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		// Wake producers stuck on a full buffer, then wait until no
		// submitter can be mid-send before stopping the senders.
		close(p.done)
		p.submitters.Wait()
		close(p.stop)
		p.workers.Wait()
	})
}

// Buffer returns the queue capacity in batches: what QueueDepth fills.
func (p *Proxy) Buffer() int { return cap(p.queue) }

// Backends returns the TSD addresses (for diagnostics).
func (p *Proxy) Backends() []string {
	return append([]string(nil), p.tsds...)
}
