package sentinel

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/ingest"
	"repro/internal/mllib"
	"repro/internal/resilience"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// DetectorPool is the streaming half of the detector: a consumer group
// of worker goroutines, each owning a subset of the ingestion topic's
// partitions, scoring every published unit batch through the
// configured primary detector family and writing flags back to the
// "anomaly" metric. It is the architecture's answer to "detection
// consumers must scale independently of producers": workers can be
// added (more members → rebalance) without touching the ingest or
// storage tiers, and a slow or stopped pool never stalls storage
// writes because the storage group commits independently.
//
// Detection goes through the pluggable mllib.Detector interface
// (Config.PrimaryDetector; default "mgd", the trained MGD+FDR
// evaluator). Each worker owns its unit's detector instances and a
// private row-assembly scratch, preserving the zero-allocation steady
// state per worker — streaming families (cusum, zscore, iforest)
// carry per-unit state, and unit-keyed partitions guarantee a unit's
// batches reach one worker at a time, in order. On a rebalance a
// reassigned unit's streaming state restarts from its warmup on the
// new owner; the model-based family is stateless across batches and
// unaffected.
//
// When Config.ShadowDetectors is set the pool also runs those
// families in shadow mode: every evaluated batch is copied to an
// asynchronous runner that scores the shadows and counts row-level
// agreements and disagreements against the primary, without ever
// emitting flags or backpressuring the primary path (a slow shadow
// sheds batches instead).
//
// One detection loop: workers assemble bus records into observation
// rows (process), System.Detect reads stored rows, and both hand them
// to score — the only code that turns rows into stored flags.
type DetectorPool struct {
	env    DetectorEnv
	group  bus.GroupHandle
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once
	shadow *shadowRunner

	// wmu guards the per-worker cancel list (Resize/Workers) and the
	// stopped flag; each worker runs under its own child context so
	// one can be retired without stopping the pool.
	wmu     sync.Mutex
	workers []context.CancelFunc
	stopped bool

	// SamplesEvaluated counts sensor samples scored (the §IV-A
	// throughput unit); AnomaliesWritten counts flags written back.
	SamplesEvaluated telemetry.Counter
	AnomaliesWritten telemetry.Counter
	// Batches counts records processed; Errors counts records skipped
	// (missing model, malformed batch, storage write failure).
	Batches telemetry.Counter
	Errors  telemetry.Counter
	// FlagsPublished counts anomalies published onto the flag-feed
	// topic (the SSE tail's source); FlagPublishErrors counts feed
	// publishes that failed. The feed is best-effort: a failed publish
	// never fails the batch — the flag is already durable in storage.
	FlagsPublished    telemetry.Counter
	FlagPublishErrors telemetry.Counter
	// Parks counts park episodes (a worker pausing on a transient
	// storage fault instead of dropping the flag); Parked is how many
	// workers are parked right now. A parked worker retries its write
	// with jittered backoff and resumes where it left off — the record
	// is never committed while parked, so a crash redelivers it.
	Parks  telemetry.Counter
	Parked telemetry.Gauge
}

// transientStorage classifies errors worth parking on: the storage
// tier is momentarily unhealthy (daemon down or overloaded, injected
// fault, deadline) but expected back. Model/shape errors are not
// transient — retrying a malformed batch forever would wedge the
// partition.
func transientStorage(err error) bool {
	return errors.Is(err, rpc.ErrServerDown) ||
		errors.Is(err, rpc.ErrQueueOverflow) ||
		errors.Is(err, faultinject.ErrInjected) ||
		errors.Is(err, context.DeadlineExceeded)
}

// DetectorEnv is everything a DetectorPool needs to run, behind seams,
// so one pool implementation serves a node alone (local bus handles,
// in-process sink) and a detect-only cluster node (remote bus, rpc
// sink) alike.
type DetectorEnv struct {
	// Sensors is the per-unit sensor count batches are validated
	// against.
	Sensors int
	// Primary is the registered detector family workers evaluate.
	Primary string
	// NewDetector constructs one unit's instance of a named family
	// (primary or shadow).
	NewDetector func(name string, unit int) (mllib.Detector, error)
	// Sink receives the flags workers write back to storage.
	Sink core.AnomalySink
	// Flags, when non-nil, is the flag-feed topic anomalies are
	// published onto while a consumer group (an SSE tail) is attached.
	Flags bus.TopicHandle
	// Shadows and ShadowBuffer configure the asynchronous shadow
	// runner (empty: none).
	Shadows      []string
	ShadowBuffer int
	// OnStop, when non-nil, runs once inside Stop after the workers
	// and shadow runner have halted; it owns group detachment (a Node
	// uses it for pool-registry bookkeeping). When nil, Stop closes
	// the group itself.
	OnStop func(p *DetectorPool)
}

// NewDetectorPool starts workers consumer-group members evaluating
// unit batches from group through env. Callers wanting a node's group
// sharing and registry semantics use Node.StartDetectors.
func NewDetectorPool(env DetectorEnv, group bus.GroupHandle, workers int) *DetectorPool {
	if workers <= 0 {
		workers = 1
	}
	p := newScorer(env, group)
	// Join every member before the first worker polls, so the pool
	// starts on a settled assignment instead of rebalancing (and
	// redelivering) its way up.
	members := make([]bus.ConsumerHandle, workers)
	for i := range members {
		members[i] = group.Join()
	}
	p.wmu.Lock()
	for _, c := range members {
		p.startWorkerLocked(c)
	}
	p.wmu.Unlock()
	return p
}

// newScorer builds a pool with no workers yet: the scorer, its
// counters and the shadow runner. System.Detect feeds one directly
// (group nil); NewDetectorPool adds the consumer-group workers.
func newScorer(env DetectorEnv, group bus.GroupHandle) *DetectorPool {
	ctx, cancel := context.WithCancel(context.Background())
	p := &DetectorPool{env: env, group: group, ctx: ctx, cancel: cancel}
	if len(env.Shadows) > 0 {
		p.shadow = newShadowRunner(env.NewDetector, env.Shadows, env.ShadowBuffer)
	}
	return p
}

// startWorkerLocked launches one member under its own cancellable
// child context. Caller holds p.wmu.
func (p *DetectorPool) startWorkerLocked(c bus.ConsumerHandle) {
	wctx, cancel := context.WithCancel(p.ctx)
	p.workers = append(p.workers, cancel)
	p.wg.Add(1)
	go p.worker(wctx, c)
}

// Workers reports the current worker count (autoscaler input).
func (p *DetectorPool) Workers() int {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return len(p.workers)
}

// Resize grows or shrinks the pool to n workers (clamped to ≥ 1).
// Growth joins new consumer-group members — the group rebalances
// partitions onto them; shrinking cancels workers from the tail, each
// finishing its in-flight poll before leaving the group (its record
// batch commits or redelivers per the at-least-once contract, exactly
// as on Stop). A reassigned unit's streaming detector state restarts
// from warmup on its new owner, as on any rebalance. No-op after Stop.
func (p *DetectorPool) Resize(n int) {
	if n < 1 {
		n = 1
	}
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if p.stopped {
		return
	}
	for len(p.workers) < n {
		p.startWorkerLocked(p.group.Join())
	}
	for len(p.workers) > n {
		last := len(p.workers) - 1
		p.workers[last]()
		p.workers = p.workers[:last]
	}
}

// AttachDetectorGroup attaches the detector consumer group at the
// current end of the topic without starting workers: records published
// afterwards are retained (and, once the partition buffer fills, exert
// backpressure — set Config.BusBuffer negative for unbounded staging)
// until a later StartDetectors consumes them. Without it,
// StartDetectors itself attaches at the then-current end, skipping
// history. Idempotent while a group is attached.
func (n *Node) AttachDetectorGroup() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.attachDetectorGroupLocked()
}

// attachDetectorGroupLocked is AttachDetectorGroup under n.mu, shared
// with StartDetectors so attach and pool registration happen in one
// critical section (a concurrent Stop cannot detach the group in
// between).
func (n *Node) attachDetectorGroupLocked() bus.GroupHandle {
	if n.detGroup == nil {
		n.detGroup = n.topic(TopicEnergy).Group(GroupDetectors)
		// Skip history (typically the training range, already stored
		// and not worth flagging); the group sees live traffic only.
		n.detGroup.SeekToEnd()
	}
	return n.detGroup
}

// StartDetectors is the detect tier: a pool of detector workers
// (DetectorWorkers when workers <= 0) consuming the detector group —
// attached now at the end of the topic, or wherever a prior
// AttachDetectorGroup left it. Stop the pool before Close; stopping
// detaches the group, so records published while no pool runs are not
// replayed to a later one.
func (n *Node) StartDetectors(workers int) *DetectorPool {
	if workers <= 0 {
		workers = n.tier.DetectorWorkers
	}
	env := n.detectorEnv()
	// Attach (or reuse) the group and register the pool atomically, so
	// a concurrent Stop of the last running pool either sees this pool
	// as a sharer or has fully detached before the group is resolved.
	n.mu.Lock()
	defer n.mu.Unlock()
	p := NewDetectorPool(env, n.attachDetectorGroupLocked(), workers)
	n.pools = append(n.pools, p)
	return p
}

// poolStopped is the node's side of DetectorPool.Stop: deregister the
// pool and — once no other pool shares its group — detach the group,
// so stopping one pool never kills a sibling started by a second
// StartDetectors call.
func (n *Node) poolStopped(p *DetectorPool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	shared := false
	kept := n.pools[:0]
	for _, other := range n.pools {
		if other == p {
			continue
		}
		kept = append(kept, other)
		if other.group == p.group {
			shared = true
		}
	}
	n.pools = kept
	if !shared {
		if n.detGroup == p.group {
			n.detGroup = nil
		}
		// Detach inside the critical section: a concurrent
		// StartDetectors must observe either the attached group (and
		// register as a sharer) or a fully detached topic, never join
		// a group about to close.
		p.group.Close()
	}
}

// Group exposes the pool's consumer group (lag, committed offsets).
func (p *DetectorPool) Group() bus.GroupHandle { return p.group }

// Sync blocks until the pool has committed every record published so
// far (benchmarks and the live loop use it as a barrier). It does not
// wait for the asynchronous shadow runner — see DrainShadows.
func (p *DetectorPool) Sync(ctx context.Context) error { return p.group.Sync(ctx) }

// DrainShadows blocks until every batch offered to the shadow runner
// has been evaluated and counted (or ctx is done). A no-op without
// shadows. Call after Sync for a full barrier.
func (p *DetectorPool) DrainShadows(ctx context.Context) error {
	if p.shadow == nil {
		return nil
	}
	return p.shadow.drain(ctx)
}

// ShadowStats returns each shadow family's comparison counters, keyed
// by family name. Empty without shadows.
func (p *DetectorPool) ShadowStats() map[string]ShadowStats {
	if p.shadow == nil {
		return nil
	}
	out := make(map[string]ShadowStats, len(p.shadow.names))
	for i, name := range p.shadow.names {
		out[name] = p.shadow.snapshot(i)
	}
	return out
}

// Stop halts the workers, waits for them to finish their in-flight
// records, stops the shadow runner, and — once no other pool shares it
// — detaches the consumer group, so stopping one pool never kills a
// sibling started by a second StartDetectors call. Idempotent.
func (p *DetectorPool) Stop() {
	p.once.Do(func() {
		// Mark stopped under wmu first: a concurrent Resize either
		// finishes its wg.Add before we observe the lock, or sees
		// stopped and no-ops — never an Add racing wg.Wait.
		p.wmu.Lock()
		p.stopped = true
		p.cancel()
		p.wmu.Unlock()
		p.wg.Wait()
		p.wmu.Lock()
		p.workers = nil
		p.wmu.Unlock()
		if p.shadow != nil {
			// After wg.Wait no worker can offer again, so the queue can
			// close safely.
			p.shadow.stop()
		}
		switch {
		case p.group == nil: // Detect's feeder consumes no group
		case p.env.OnStop != nil:
			p.env.OnStop(p)
		default:
			p.group.Close()
		}
	})
}

// detectorScratch is one worker's private working set: the poll
// buffer, the row-assembly buffers, the detector instances of the
// units this worker currently owns, and the detection result buffer.
// All of it is retained across records, so a warmed worker evaluates
// without heap allocations.
type detectorScratch struct {
	dets     map[int]mllib.Detector
	det      mllib.Detections
	rows     [][]float64
	backing  []float64
	ts       []int64
	seen     []bool
	rowFlags []bool
	// keep makes score retain every flag it stores in stored — Detect's
	// return value; pool workers leave it off.
	keep   bool
	stored []core.Anomaly
}

// detector returns (lazily constructing) this worker's instance of the
// primary family for unit.
func (p *DetectorPool) detector(sc *detectorScratch, unit int) (mllib.Detector, error) {
	if d, ok := sc.dets[unit]; ok {
		return d, nil
	}
	d, err := p.env.NewDetector(p.env.Primary, unit)
	if err != nil {
		return nil, err
	}
	if sc.dets == nil {
		sc.dets = make(map[int]mllib.Detector)
	}
	sc.dets[unit] = d
	return d, nil
}

// worker is one consumer-group member's loop: poll, evaluate, write
// flags, commit. Commit happens only after the whole poll is
// processed, so a worker lost mid-batch redelivers (at-least-once) to
// the surviving members.
func (p *DetectorPool) worker(ctx context.Context, c bus.ConsumerHandle) {
	defer p.wg.Done()
	defer c.Leave()
	var sc detectorScratch
	buf := make([]bus.Record, 0, 16)
	boff := resilience.Backoff{Base: 5 * time.Millisecond, Factor: 2, Max: 500 * time.Millisecond, Jitter: true}
	pollFails := 0
	for {
		recs, err := c.Poll(ctx, buf)
		if err != nil {
			// A transient fetch fault (injected, deadline) parks the
			// worker briefly instead of killing it; only shutdown
			// signals (ctx done, bus closed) end the loop.
			if transientStorage(err) && ctx.Err() == nil {
				if resilience.Sleep(ctx, boff.Delay(pollFails)) != nil {
					return
				}
				pollFails++
				continue
			}
			return
		}
		pollFails = 0
		for i := range recs {
			if err := p.process(ctx, &recs[i], &sc); err != nil {
				p.Errors.Inc()
			}
			p.Batches.Inc()
		}
		_ = c.CommitPolled(recs)
	}
}

// writeFlag writes one anomaly, parking on transient storage faults:
// jittered-backoff retries until the write lands, the fault turns out
// to be permanent, or the worker is stopped. The enclosing record is
// not committed while parked, so detection resumes exactly where the
// outage interrupted it (point writes are idempotent, so a replay of
// already-landed flags is harmless).
func (p *DetectorPool) writeFlag(ctx context.Context, a core.Anomaly) error {
	sink := p.env.Sink
	boff := resilience.Backoff{Base: 5 * time.Millisecond, Factor: 2, Max: 500 * time.Millisecond, Jitter: true}
	parked := false
	defer func() {
		if parked {
			p.Parked.Dec()
		}
	}()
	for attempt := 0; ; attempt++ {
		err := sink.WriteAnomaly(a)
		if err == nil {
			return nil
		}
		if !transientStorage(err) || ctx.Err() != nil {
			return err
		}
		if !parked {
			parked = true
			p.Parks.Inc()
			p.Parked.Inc()
		}
		if resilience.Sleep(ctx, boff.Delay(attempt)) != nil {
			return ctx.Err()
		}
	}
}

// process assembles one bus record into observation rows and scores
// them.
func (p *DetectorPool) process(ctx context.Context, rec *bus.Record, sc *detectorScratch) error {
	batch, ok := rec.Value.(*ingest.UnitBatch)
	if !ok {
		return fmt.Errorf("sentinel: record %d/%d is not a unit batch", rec.Partition, rec.Offset)
	}
	if err := sc.assemble(batch, p.env.Sensors); err != nil {
		return err
	}
	return p.score(ctx, batch.Unit, sc.rows, sc.ts, sc)
}

// score is the scorer: one unit's observation rows through the primary
// detector, each flag written back (parking on a transient storage
// fault), published on the flag feed and counted, and the batch with
// the primary's row verdicts offered to the shadow runner.
func (p *DetectorPool) score(ctx context.Context, unit int, rows [][]float64, ts []int64, sc *detectorScratch) error {
	d, err := p.detector(sc, unit)
	if err != nil {
		return err
	}
	if err := d.DetectBatchInto(rows, ts, &sc.det); err != nil {
		return err
	}
	n := len(rows)
	p.SamplesEvaluated.Add(int64(n * p.env.Sensors))
	if cap(sc.rowFlags) < n {
		sc.rowFlags = make([]bool, n)
	}
	sc.rowFlags = sc.rowFlags[:n]
	clear(sc.rowFlags)
	primary := p.env.Primary
	for _, f := range sc.det.Flags {
		sc.rowFlags[f.Row] = true
		a := core.Anomaly{
			Unit:      unit,
			Sensor:    f.Sensor,
			Timestamp: ts[f.Row],
			Z:         f.Score,
			PValue:    f.PValue,
			Adjusted:  f.Adjusted,
			Detector:  primary,
			Score:     f.Score,
		}
		if f.Sensor >= 0 {
			a.Value = rows[f.Row][f.Sensor]
		}
		if err := p.writeFlag(ctx, a); err != nil {
			return fmt.Errorf("sentinel: write anomaly: %w", err)
		}
		p.AnomaliesWritten.Inc()
		if sc.keep {
			sc.stored = append(sc.stored, a)
		}
		// Feed the live stream — only while a tail (consumer
		// group) is attached: a group-less topic is never trimmed,
		// so publishing into one would retain every flag forever.
		// The check races benignly with tail attach/detach (the
		// stream is live; a flag written during the race is simply
		// not streamed). Failures are counted, not fatal — the
		// flag is already durable in the TSDB.
		if p.env.Flags != nil && p.env.Flags.HasGroups() {
			if _, err := p.env.Flags.Publish(ctx, uint64(a.Unit), a); err != nil {
				p.FlagPublishErrors.Inc()
			} else {
				p.FlagsPublished.Inc()
			}
		}
	}
	if p.shadow != nil {
		p.shadow.offer(unit, rows, ts, sc.rowFlags)
	}
	return nil
}

// assemble unpacks a unit batch into observation rows and timestamps,
// reusing the scratch buffers. The driver lays points out row-major
// (all sensors of a step, then the next step); assemble validates that
// shape rather than trusting it.
func (sc *detectorScratch) assemble(batch *ingest.UnitBatch, sensors int) error {
	if err := batch.Validate(sensors); err != nil {
		return err
	}
	n := len(batch.Points) / sensors
	if cap(sc.backing) < n*sensors {
		sc.backing = make([]float64, n*sensors)
	}
	if cap(sc.rows) < n {
		sc.rows = make([][]float64, n)
	}
	if cap(sc.ts) < n {
		sc.ts = make([]int64, n)
	}
	if cap(sc.seen) < sensors {
		sc.seen = make([]bool, sensors)
	}
	sc.backing = sc.backing[:n*sensors]
	sc.rows = sc.rows[:n]
	sc.ts = sc.ts[:n]
	sc.seen = sc.seen[:sensors]
	for r := 0; r < n; r++ {
		row := sc.backing[r*sensors : (r+1)*sensors]
		sc.rows[r] = row
		clear(sc.seen)
		t0 := batch.Points[r*sensors].Timestamp
		sc.ts[r] = t0
		for j := 0; j < sensors; j++ {
			pt := &batch.Points[r*sensors+j]
			if pt.Timestamp != t0 {
				return fmt.Errorf("sentinel: unit %d batch row %d mixes timestamps %d and %d", batch.Unit, r, t0, pt.Timestamp)
			}
			sidx, err := strconv.Atoi(pt.Tags["sensor"])
			if err != nil || sidx < 0 || sidx >= sensors {
				return fmt.Errorf("sentinel: unit %d batch has bad sensor tag %q", batch.Unit, pt.Tags["sensor"])
			}
			if sc.seen[sidx] {
				return fmt.Errorf("sentinel: unit %d batch row %d has sensor %d twice", batch.Unit, r, sidx)
			}
			sc.seen[sidx] = true
			row[sidx] = pt.Value
		}
	}
	return nil
}
