// Package proxy implements the reverse proxy from §III-B: "we built a
// reverse proxy to buffer requests to OpenTSDB in order to limit the
// number of concurrent requests … This proxy also serves to increase
// ingestion throughput by load-balancing traffic to multiple ingestion
// processes … via a round-robin fashion."
//
// Here the buffer in front of the TSD tier is the commit log: the
// storage writers hold each polled record uncommitted until the proxy
// returns. So the proxy keeps no queue of its own. It is synchronous:
//
//   - SubmitContext waits for one of MaxInFlight delivery slots, which
//     caps the concurrent requests hitting the TSDs. Waiting for a slot
//     is the backpressure; the caller's ctx or Close ends the wait;
//   - it then delivers the batch round-robin across the TSD daemons,
//     skipping backends whose circuit is open, retrying transient
//     failures (queue overflow, a daemon down during failover) on the
//     next daemon with jittered backoff. The caller's ctx deadline
//     reaches through the TSD into its HBase client;
//   - it returns once a TSD has acked the batch (nil), refused it as
//     malformed (tsdb.ErrBadPoint: permanent, never retried, never
//     charged to a circuit breaker), or every attempt failed. The last
//     case, and every circuit being open, answer with an error that
//     resilience.Transient accepts, so the caller waits it out in
//     place instead of giving the batch up.
//
// A nil return therefore means the TSDs hold the samples.
package proxy

import (
	"context"
	"errors"
	"fmt"
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

// errAllBreakersOpen is the delivery outcome when every backend's
// circuit is open: hold off and re-probe instead of burning calls into
// known-dead daemons.
var errAllBreakersOpen = fmt.Errorf("proxy: all backend breakers open: %w", resilience.ErrUnavailable)

// retryBackoff seeds the backoff between attempts. Delays grow
// exponentially with full jitter, capped at 250ms, so submitters
// retrying a recovering TSD desynchronize instead of thundering in
// lockstep.
const retryBackoff = 2 * time.Millisecond

// Config tunes the proxy.
type Config struct {
	// MaxInFlight caps concurrent requests to the TSD tier (default 8).
	MaxInFlight int
	// MaxRetries bounds delivery attempts per batch (default 8).
	// Negative retries until the caller's ctx ends.
	MaxRetries int
	// Breakers, when set, adds per-backend circuit breakers: delivery
	// skips backends whose circuit is open, and when every circuit is
	// open the submitter backs off instead of attempting at all.
	Breakers *resilience.Group
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
	return c
}

// Proxy is the ingestion frontend.
type Proxy struct {
	net  *rpc.Network
	tsds []string
	cfg  Config
	rr   atomic.Uint64
	// slots holds one token per delivery in progress; Close fills it
	// for good.
	slots chan struct{}
	// done is closed by Close: it wakes submitters waiting for a slot.
	done      chan struct{}
	closeOnce sync.Once
	poisonLog sync.Once // the first refused batch is logged, the rest counted
	// faults, when set, injects on submission ("proxy/submit").
	faults atomic.Pointer[faultinject.Injector]

	// Accepted counts points that got a delivery slot.
	Accepted telemetry.Counter
	// Delivered counts points acknowledged by a TSD.
	Delivered telemetry.Counter
	// Dropped counts points no retry will deliver: batches a TSD
	// refused as malformed (tsdb.ErrBadPoint).
	Dropped telemetry.Counter
	// Retries counts re-sent batches.
	Retries telemetry.Counter
	// QueueDepth counts submissions waiting for or holding a slot.
	QueueDepth telemetry.Gauge
}

// New builds a proxy over the given TSD addresses. It starts no
// goroutine: deliveries run on the submitters'.
func New(net *rpc.Network, tsdAddrs []string, cfg Config) (*Proxy, error) {
	if len(tsdAddrs) == 0 {
		return nil, ErrNoBackends
	}
	cfg = cfg.withDefaults()
	return &Proxy{
		net:   net,
		tsds:  append([]string(nil), tsdAddrs...),
		cfg:   cfg,
		slots: make(chan struct{}, cfg.MaxInFlight),
		done:  make(chan struct{}),
	}, nil
}

// Submit delivers one batch with no deadline (see SubmitContext).
func (p *Proxy) Submit(points []tsdb.Point) error {
	return p.SubmitContext(context.Background(), points)
}

// SubmitContext delivers one batch: it waits for a delivery slot until
// ctx is done or the proxy closes, then returns once a TSD acked the
// batch, refused it, or every attempt failed (see the package doc).
// The proxy only reads points, without copying them; after a return
// with ctx's error a TSD may still be reading them.
func (p *Proxy) SubmitContext(ctx context.Context, points []tsdb.Point) error {
	if len(points) == 0 {
		return nil
	}
	if f := p.faults.Load(); f.Active() > 0 {
		if err := f.Do(ctx, "proxy/submit"); err != nil {
			return err
		}
	}
	p.QueueDepth.Inc()
	defer p.QueueDepth.Dec()
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	case <-p.done:
		return ErrClosed
	}
	defer func() { <-p.slots }()
	p.Accepted.Add(int64(len(points)))
	return p.deliver(ctx, points)
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

// deliver attempts the batch against rotating TSDs, recording outcomes
// on the per-backend breakers when configured.
func (p *Proxy) deliver(ctx context.Context, batch []tsdb.Point) error {
	boff := resilience.Backoff{Base: retryBackoff, Factor: 2, Max: 250 * time.Millisecond, Jitter: true}
	for attempt := 0; ; attempt++ {
		addr, br := p.pickBackend()
		err := errAllBreakersOpen
		if addr != "" {
			_, err = p.net.Call(ctx, addr, "put", &tsdb.PutBatch{Points: batch})
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
				return nil
			}
			if poison {
				p.Dropped.Add(int64(len(batch)))
				p.poisonLog.Do(func() {
					log.Printf("proxy: dropped a batch of %d points %s refused: %v (later ones are only counted, in Dropped)", len(batch), addr, err)
				})
				return err
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if p.cfg.MaxRetries >= 0 && attempt >= p.cfg.MaxRetries {
			return fmt.Errorf("proxy: %d attempts failed: %w: %w", attempt+1, resilience.ErrUnavailable, err)
		}
		p.Retries.Inc()
		// Back off on pressure signals, open circuits, and after every
		// full fruitless rotation; a single dead TSD rotates
		// immediately.
		if errors.Is(err, rpc.ErrQueueOverflow) || errors.Is(err, errAllBreakersOpen) ||
			(attempt+1)%len(p.tsds) == 0 {
			if err := resilience.Sleep(ctx, boff.Delay(attempt)); err != nil {
				return err
			}
		}
	}
}

// Flush blocks until no delivery is in progress. Like the submissions
// it waits for, it assumes producers have quiesced; after Close it
// returns at once.
func (p *Proxy) Flush() {
	held := 0
	defer func() {
		for ; held > 0; held-- {
			<-p.slots
		}
	}()
	for held < cap(p.slots) {
		select {
		case p.slots <- struct{}{}:
			held++
		case <-p.done:
			return
		}
	}
}

// Close turns new submissions away, wakes submitters waiting for a
// slot with ErrClosed, and waits for the deliveries in progress.
func (p *Proxy) Close() {
	p.closeOnce.Do(func() {
		close(p.done)
		for i := 0; i < cap(p.slots); i++ {
			p.slots <- struct{}{}
		}
	})
}
