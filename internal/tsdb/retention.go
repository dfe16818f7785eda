package tsdb

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// CompactorConfig tunes the background seal/spill/retention loop.
type CompactorConfig struct {
	// Interval is the pass cadence (default 5s).
	Interval time.Duration
	// SealAfter is how many fleet-seconds behind the ingest frontier a
	// row's base time must be before the row seals into the compressed
	// tier (default one row span, i.e. a row seals as soon as its hour
	// has fully closed).
	SealAfter int64
	// Retention is every metric's policy. A zero policy keeps
	// everything.
	Retention RetentionPolicy
}

func (c CompactorConfig) withDefaults() CompactorConfig {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.SealAfter <= 0 {
		c.SealAfter = RowSeconds
	}
	return c
}

// Compactor is the storage tier's background maintenance loop: each
// pass seals closed rows into compressed blocks, spills resident
// payload over budget to the HDFS tier, and enforces per-metric
// retention. Stop is drain-aware: it cancels the loop's context and
// waits for an in-flight pass to unwind before returning, so no seal
// or spill is abandoned mid-write at shutdown.
type Compactor struct {
	d       *Deployment
	bs      *BlockStore
	cfg     CompactorConfig
	cancel  context.CancelFunc
	done    chan struct{}
	started atomic.Bool
	closed  atomic.Bool

	// Passes counts completed maintenance passes; PassErrors passes
	// that surfaced an error (logged on the counter, not fatal — the
	// next pass retries, exactly like a failed HBase major compaction).
	Passes     telemetry.Counter
	PassErrors telemetry.Counter
}

// NewCompactor attaches (if needed) the deployment's block store and
// builds a maintenance driver without starting the background loop —
// RunOnce drives passes manually until Start is called.
func NewCompactor(d *Deployment, scfg BlockStoreConfig, cfg CompactorConfig) *Compactor {
	bs := d.BlockStore()
	if bs == nil {
		bs = d.AttachBlockStore(scfg)
	}
	return &Compactor{
		d:    d,
		bs:   bs,
		cfg:  cfg.withDefaults(),
		done: make(chan struct{}),
	}
}

// StartCompactor is NewCompactor followed by Start.
func StartCompactor(d *Deployment, scfg BlockStoreConfig, cfg CompactorConfig) *Compactor {
	c := NewCompactor(d, scfg, cfg)
	c.Start()
	return c
}

// Start launches the background loop. Second and later calls are
// no-ops. Callers must Stop before tearing the deployment down.
func (c *Compactor) Start() {
	if c.started.Swap(true) {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	go c.run(ctx)
}

func (c *Compactor) run(ctx context.Context) {
	defer close(c.done)
	ticker := time.NewTicker(c.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			if err := c.RunOnce(ctx); err != nil && ctx.Err() == nil {
				c.PassErrors.Inc()
			}
		}
	}
}

// Store returns the block store the compactor maintains.
func (c *Compactor) Store() *BlockStore { return c.bs }

// RunOnce executes one maintenance pass synchronously: seal, spill,
// retention. Exported so tests and operators can drive the tier
// deterministically without the timer.
func (c *Compactor) RunOnce(ctx context.Context) error {
	defer c.Passes.Inc()
	frontier := c.bs.Frontier()
	if frontier > 0 {
		beforeBase := frontier - c.cfg.SealAfter
		if beforeBase > 0 {
			// One TSD seals for the whole deployment: they share the
			// HBase table and the block store, and sealing goes through
			// the daemon's HBase client, not its RPC server, so it keeps
			// working even while that daemon's server is crashed.
			tsds := c.d.TSDs()
			if len(tsds) > 0 {
				if _, err := tsds[0].CompactRowsContext(ctx, beforeBase); err != nil {
					return err
				}
			}
		}
	}
	if _, err := c.bs.SpillPass(); err != nil {
		return err
	}
	c.bs.EnforceRetention(c.cfg.Retention, nil)
	return nil
}

// Stop cancels the loop and waits for any in-flight pass to finish.
// Safe to call more than once, and on a never-started compactor.
func (c *Compactor) Stop() {
	if !c.started.Load() {
		return
	}
	if c.closed.Swap(true) {
		<-c.done
		return
	}
	c.cancel()
	<-c.done
}
