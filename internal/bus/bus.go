package bus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// Errors surfaced by the bus.
var (
	// ErrClosed is returned once the broker has stopped.
	ErrClosed = errors.New("bus: closed")
	// ErrDraining is returned to publishers while the broker drains.
	ErrDraining = errors.New("bus: draining")
	// ErrOffsetTrimmed marks a read below a partition's low-water mark:
	// the records were compacted away after every group committed past
	// them.
	ErrOffsetTrimmed = errors.New("bus: offset below low-water mark")
	// ErrOffsetOutOfRange marks a read past a partition's high-water
	// mark.
	ErrOffsetOutOfRange = errors.New("bus: offset past high-water mark")
	// ErrNotMember is returned by a consumer's calls after Leave.
	ErrNotMember = errors.New("bus: consumer has left the group")
	// ErrNotAssigned fences a commit against a partition the consumer
	// does not own in the current generation (a zombie commit after a
	// rebalance).
	ErrNotAssigned = errors.New("bus: partition not assigned to this consumer")
)

// Broker lifecycle states (the PR 1 shutdown discipline).
const (
	stateRunning int32 = iota
	stateDraining
	stateStopped
)

// Config tunes a Broker. Zero values take the documented defaults.
type Config struct {
	// Partitions is the number of partitions per topic (default 4).
	Partitions int
	// SegmentRecords is the records per append-only segment
	// (default 256). Trimming drops whole segments.
	SegmentRecords int
	// PartitionBuffer bounds each partition's uncommitted window in
	// records: once high-water minus the slowest group's committed
	// offset reaches it, Publish blocks (default 1024). Negative
	// disables backpressure. Topics with no attached groups are plain
	// logs and never block.
	PartitionBuffer int
}

func (c Config) withDefaults() Config {
	if c.Partitions <= 0 {
		c.Partitions = 4
	}
	if c.SegmentRecords <= 0 {
		c.SegmentRecords = 256
	}
	if c.PartitionBuffer == 0 {
		c.PartitionBuffer = 1024
	}
	return c
}

// Record is one published entry in a partition's log.
type Record struct {
	// Partition and Offset address the record; offsets are dense and
	// monotone within a partition.
	Partition int
	Offset    int64
	// Key is the routing key the record was published under (unit id
	// in the ingestion pipeline).
	Key uint64
	// Value is the payload.
	Value any
}

// AppendWire implements rpc.WireEncoder. A record crosses the wire only
// on the clustered bus, where its Value is the opaque bytes the producer
// encoded (service.go) or nil; any other value has no wire form.
func (r Record) AppendWire(b []byte) ([]byte, error) {
	val, ok := r.Value.([]byte)
	if !ok && r.Value != nil {
		return b, fmt.Errorf("%w: bus record %d/%d holds a %T, not encoded bytes",
			rpc.ErrWireType, r.Partition, r.Offset, r.Value)
	}
	b = rpc.AppendInt(b, int64(r.Partition))
	b = rpc.AppendInt(b, r.Offset)
	b = rpc.AppendUint(b, r.Key)
	return rpc.AppendBytes(b, val), nil
}

func decodeRecord(r *rpc.WireReader) Record {
	rec := Record{Partition: int(r.Int()), Offset: r.Int(), Key: r.Uint()}
	if val := r.Bytes(); val != nil {
		rec.Value = val
	}
	return rec
}

// recordWireMin is the fewest bytes a record takes on the wire.
const recordWireMin = 4

func appendRecords(b []byte, recs []Record) ([]byte, error) {
	b = rpc.AppendUint(b, uint64(len(recs)))
	for i := range recs {
		var err error
		if b, err = recs[i].AppendWire(b); err != nil {
			return b, err
		}
	}
	return b, nil
}

func decodeRecords(r *rpc.WireReader) []Record {
	n := r.Count(recordWireMin)
	if n == 0 {
		return nil
	}
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = decodeRecord(r)
	}
	return recs
}

// Broker is an in-process partitioned commit-log message bus.
type Broker struct {
	cfg   Config
	state atomic.Int32
	// stopped is closed when the broker stops; it wakes every blocked
	// publisher, poller and drainer.
	stopped   chan struct{}
	closeOnce sync.Once
	// pulse wakes Drain: every topic's wake also wakes it, so a drainer
	// re-checks lag on a change to any topic. Publishers, pollers and
	// syncers park on their own topic's pulse instead.
	pulse pulse
	// faults, when set, injects on publish ("bus/publish/<topic>") and
	// consumer fetch ("bus/fetch/<topic>"). Nil when chaos is off.
	faults atomic.Pointer[faultinject.Injector]

	mu     sync.Mutex
	topics map[string]*Topic

	// Published counts appended records; Polled counts records handed
	// to consumers (≥ Published under at-least-once redelivery).
	Published telemetry.Counter
	Polled    telemetry.Counter
	// Rebalances counts consumer-group assignment changes.
	Rebalances telemetry.Counter
}

// New builds a running broker.
func New(cfg Config) *Broker {
	return &Broker{
		cfg:     cfg.withDefaults(),
		stopped: make(chan struct{}),
		topics:  make(map[string]*Topic),
	}
}

// SetFaults installs (or, with nil, removes) a fault injector consulted
// on every publish ("bus/publish/<topic>") and consumer poll
// ("bus/fetch/<topic>"). Injected errors are transient: the record was
// neither appended nor lost, and the caller may retry.
func (b *Broker) SetFaults(f *faultinject.Injector) { b.faults.Store(f) }

// Topic returns the named topic, creating it on first use.
func (b *Broker) Topic(name string) *Topic {
	b.mu.Lock()
	defer b.mu.Unlock()
	if t, ok := b.topics[name]; ok {
		return t
	}
	t := &Topic{
		broker:     b,
		name:       name,
		partitions: make([]*partition, b.cfg.Partitions),
		groups:     make(map[string]*Group),
	}
	for i := range t.partitions {
		t.partitions[i] = &partition{id: i}
	}
	b.topics[name] = t
	return t
}

// wakeAll wakes every topic's waiters and the drainers: a broker state
// change (draining, stopped) concerns them all.
func (b *Broker) wakeAll() {
	b.mu.Lock()
	for _, t := range b.topics {
		t.pulse.wake()
	}
	b.mu.Unlock()
	b.pulse.wake()
}

// Drain moves the broker to draining — publishers get ErrDraining —
// and blocks until every consumer group on every topic has committed
// through its partitions' high-water marks, or ctx is done, or the
// broker is closed. Consumers keep polling and committing throughout;
// a group with no live members will keep Drain waiting until ctx
// expires, so detach idle groups (Group.Close) first.
func (b *Broker) Drain(ctx context.Context) error {
	if !b.state.CompareAndSwap(stateRunning, stateDraining) && b.state.Load() == stateStopped {
		return ErrClosed
	}
	// Draining rejects publishers that may be blocked on backpressure.
	b.wakeAll()
	for {
		if b.caughtUp() {
			return nil
		}
		ch := b.pulse.arm()
		if b.caughtUp() {
			b.pulse.disarm()
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			b.pulse.disarm()
			return ctx.Err()
		case <-b.stopped:
			b.pulse.disarm()
			return ErrClosed
		}
		b.pulse.disarm()
	}
}

// caughtUp reports whether every group has zero lag.
func (b *Broker) caughtUp() bool {
	b.mu.Lock()
	topics := make([]*Topic, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	b.mu.Unlock()
	for _, t := range topics {
		for _, g := range t.groupList() {
			if g.Lag() > 0 {
				return false
			}
		}
	}
	return true
}

// Close stops the broker: blocked publishers and pollers wake with
// ErrClosed and all further calls fail. Pair with Drain for a graceful
// shutdown that loses nothing.
func (b *Broker) Close() {
	b.closeOnce.Do(func() {
		b.state.Store(stateStopped)
		close(b.stopped)
		b.wakeAll()
	})
}

// Running reports whether the broker accepts publishes — false once
// draining or stopped. Readiness probes use it.
func (b *Broker) Running() bool { return b.state.Load() == stateRunning }

// publishable translates broker state into a publisher-side error.
func (b *Broker) publishable() error {
	switch b.state.Load() {
	case stateDraining:
		return ErrDraining
	case stateStopped:
		return ErrClosed
	}
	return nil
}

// pulse is a broadcast wakeup: arm registers a waiter and returns the
// channel to select on (re-check your condition after arming — the
// registration is what closes the lost-wakeup window); wake releases
// every armed waiter. When nobody is armed, wake is free, keeping the
// publish hot path allocation-free.
type pulse struct {
	mu      sync.Mutex
	ch      chan struct{}
	waiters int
}

func (p *pulse) arm() <-chan struct{} {
	p.mu.Lock()
	if p.ch == nil {
		p.ch = make(chan struct{})
	}
	p.waiters++
	ch := p.ch
	p.mu.Unlock()
	return ch
}

func (p *pulse) disarm() {
	p.mu.Lock()
	p.waiters--
	p.mu.Unlock()
}

func (p *pulse) wake() {
	p.mu.Lock()
	if p.waiters > 0 && p.ch != nil {
		close(p.ch)
		p.ch = make(chan struct{})
	}
	p.mu.Unlock()
}
