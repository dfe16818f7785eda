package bus

// remote.go is the client half of the clustered bus: handles that look
// exactly like the in-process Topic/Group/Consumer but resolve the
// elected leader through zk and speak to it over the rpc fabric. All
// handles retry through leader failover — a producer or consumer
// created before the broker died keeps working against the promoted
// replica, which is what lets writer pools and detector pools survive
// broker crashes without restarting.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rpc"
	"repro/internal/zk"
)

// RemoteBusConfig tunes a RemoteBus.
type RemoteBusConfig struct {
	// Node names this process in member ids ("detect", "gateway", …).
	Node string
	// Partitions is the cluster-wide topic partition count; it must
	// match the brokers' Config.Partitions.
	Partitions int
	// CallTimeout bounds each rpc (default 2s).
	CallTimeout time.Duration
	// FetchWait is the server-side long-poll budget (default 250ms).
	FetchWait time.Duration
	// RetryDelay paces leader re-resolution (default 50ms).
	RetryDelay time.Duration
}

func (c *RemoteBusConfig) defaults() {
	if c.Partitions <= 0 {
		c.Partitions = 4
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 2 * time.Second
	}
	if c.FetchWait <= 0 {
		c.FetchWait = 250 * time.Millisecond
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = 50 * time.Millisecond
	}
}

// RemoteBus resolves the bus leader and hands out remote handles.
type RemoteBus struct {
	net *rpc.Network
	zkc zk.Client
	cfg RemoteBusConfig

	mu         sync.Mutex
	leaderAddr string // cached; "" until resolved
	nextID     int32
}

// NewRemoteBus builds a handle factory over net, resolving leadership
// through zkc.
func NewRemoteBus(net *rpc.Network, zkc zk.Client, cfg RemoteBusConfig) *RemoteBus {
	cfg.defaults()
	return &RemoteBus{net: net, zkc: zkc, cfg: cfg}
}

// Topic returns a remote handle for the named topic.
func (b *RemoteBus) Topic(name string) *RemoteTopic {
	return &RemoteTopic{bus: b, name: name}
}

// leader resolves the leader's addr (cached).
func (b *RemoteBus) leader() (string, error) {
	b.mu.Lock()
	addr := b.leaderAddr
	b.mu.Unlock()
	if addr != "" {
		return addr, nil
	}
	addr, err := Leader(b.zkc)
	if err != nil {
		return "", err
	}
	b.mu.Lock()
	b.leaderAddr = addr
	b.mu.Unlock()
	return addr, nil
}

// invalidate drops the cached leader.
func (b *RemoteBus) invalidate() {
	b.mu.Lock()
	b.leaderAddr = ""
	b.mu.Unlock()
}

// retryable reports errors worth re-resolving the leader for: the old
// leader is gone, draining, mid-election, or unreachable.
func retryable(err error) bool {
	return errors.Is(err, ErrNotLeader) ||
		errors.Is(err, ErrDraining) ||
		errors.Is(err, ErrClosed) ||
		errors.Is(err, rpc.ErrServerDown) ||
		errors.Is(err, rpc.ErrServerStopped) ||
		errors.Is(err, rpc.ErrServerDraining) ||
		errors.Is(err, rpc.ErrQueueOverflow) ||
		errors.Is(err, rpc.ErrUnknownAddr) ||
		errors.Is(err, zk.ErrNoNode) ||
		errors.Is(err, zk.ErrSessionClosed) ||
		errors.Is(err, context.DeadlineExceeded)
}

// call issues one rpc to the leader.
func (b *RemoteBus) call(ctx context.Context, method string, op *busOp) (*busResult, error) {
	addr, err := b.leader()
	if err != nil {
		return nil, err
	}
	cctx, cancel := context.WithTimeout(ctx, b.cfg.CallTimeout)
	defer cancel()
	v, err := b.net.Call(cctx, addr, method, op)
	if err != nil {
		return nil, err
	}
	res, ok := v.(*busResult)
	if !ok {
		return nil, fmt.Errorf("bus: %s: bad result %T", method, v)
	}
	return res, nil
}

// callRetry keeps calling through failovers until success, a
// non-retryable error, or ctx is done.
func (b *RemoteBus) callRetry(ctx context.Context, method string, op *busOp) (*busResult, error) {
	for {
		res, err := b.call(ctx, method, op)
		if err == nil {
			return res, nil
		}
		if !retryable(err) {
			return nil, err
		}
		b.invalidate()
		select {
		case <-time.After(b.cfg.RetryDelay):
		case <-ctx.Done():
			return nil, fmt.Errorf("bus: %s: %w (last: %v)", method, ctx.Err(), err)
		}
	}
}

// RemoteTopic is a TopicHandle backed by the elected leader.
type RemoteTopic struct {
	bus  *RemoteBus
	name string

	hgMu sync.Mutex
	hgAt time.Time
	hg   bool
}

var _ TopicHandle = (*RemoteTopic)(nil)

// Name implements TopicHandle.
func (t *RemoteTopic) Name() string { return t.name }

// Partitions implements TopicHandle.
func (t *RemoteTopic) Partitions() int { return t.bus.cfg.Partitions }

// PartitionFor returns the partition a key routes to.
func (t *RemoteTopic) PartitionFor(key uint64) int {
	return int(key % uint64(t.bus.cfg.Partitions))
}

// Publish implements TopicHandle: value is encoded here, once — the
// cluster stores and forwards the bytes and only consumers decode them
// (service.go) — the record is acked only once the leader has
// replicated it to every live replica, and the call rides through
// leader failover. The returned record carries partition, offset and
// key.
func (t *RemoteTopic) Publish(ctx context.Context, key uint64, value any) (Record, error) {
	val, err := rpc.EncodeValue(value)
	if err != nil {
		return Record{}, fmt.Errorf("bus: publish to %s: %w", t.name, err)
	}
	res, err := t.bus.callRetry(ctx, "publish", &busOp{Topic: t.name, Key: key, Value: val})
	if err != nil {
		return Record{}, err
	}
	return res.Rec, nil
}

// HasGroups implements TopicHandle, cached briefly so per-batch gating
// does not hammer the coordinator.
func (t *RemoteTopic) HasGroups() bool {
	t.hgMu.Lock()
	defer t.hgMu.Unlock()
	if time.Since(t.hgAt) < time.Second {
		return t.hg
	}
	ctx, cancel := context.WithTimeout(context.Background(), t.bus.cfg.CallTimeout)
	defer cancel()
	res, err := t.bus.call(ctx, "hasgroups", &busOp{Topic: t.name})
	if err != nil {
		t.bus.invalidate()
		return t.hg // stale answer beats a wrong default mid-failover
	}
	t.hg, t.hgAt = res.OK, time.Now()
	return t.hg
}

// Group implements TopicHandle.
func (t *RemoteTopic) Group(name string) GroupHandle {
	return &RemoteGroup{topic: t, name: name}
}

// RemoteGroup is a GroupHandle coordinated by the leader.
type RemoteGroup struct {
	topic *RemoteTopic
	name  string
}

var _ GroupHandle = (*RemoteGroup)(nil)

// Name implements GroupHandle.
func (g *RemoteGroup) Name() string { return g.name }

// Join implements GroupHandle: the member id is stable across
// coordinator failover, so the consumer transparently rejoins the
// promoted coordinator.
func (g *RemoteGroup) Join() ConsumerHandle {
	id := int(atomic.AddInt32(&g.topic.bus.nextID, 1))
	c := &RemoteConsumer{
		group:  g,
		id:     id,
		member: fmt.Sprintf("%s-%d", g.topic.bus.cfg.Node, id),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _ = g.topic.bus.callRetry(ctx, "join", &busOp{Topic: g.topic.name, Group: g.name, Member: c.member})
	return c
}

// SeekToEnd implements GroupHandle.
func (g *RemoteGroup) SeekToEnd() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _ = g.topic.bus.callRetry(ctx, "seektoend", &busOp{Topic: g.topic.name, Group: g.name})
}

// Lag implements GroupHandle.
func (g *RemoteGroup) Lag() int64 {
	ctx, cancel := context.WithTimeout(context.Background(), g.topic.bus.cfg.CallTimeout)
	defer cancel()
	res, err := g.topic.bus.call(ctx, "lag", &busOp{Topic: g.topic.name, Group: g.name})
	if err != nil {
		g.topic.bus.invalidate()
		return -1 // unknown
	}
	return res.Lag
}

// Sync implements GroupHandle: one sync call parks on the
// coordinator's Group.Sync for up to half a call budget, and is
// re-issued until the group has no lag or ctx is done.
func (g *RemoteGroup) Sync(ctx context.Context) error {
	bus := g.topic.bus
	op := &busOp{Topic: g.topic.name, Group: g.name, WaitMS: (bus.cfg.CallTimeout / 2).Milliseconds()}
	for {
		res, err := bus.callRetry(ctx, "sync", op)
		if err != nil {
			return err
		}
		if res.OK {
			return nil
		}
	}
}

// Close implements GroupHandle.
func (g *RemoteGroup) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), g.topic.bus.cfg.CallTimeout)
	defer cancel()
	_, _ = g.topic.bus.call(ctx, "groupclose", &busOp{Topic: g.topic.name, Group: g.name})
}

// RemoteConsumer is a ConsumerHandle leased from the coordinator. Like
// *Consumer it is owned by one goroutine, except Leave.
type RemoteConsumer struct {
	group  *RemoteGroup
	id     int
	member string

	mu       sync.Mutex // guards left + assigned (Leave may race Next)
	left     bool
	assigned []int
}

var _ ConsumerHandle = (*RemoteConsumer)(nil)

// ID implements ConsumerHandle.
func (c *RemoteConsumer) ID() int { return c.id }

// Assigned implements ConsumerHandle.
func (c *RemoteConsumer) Assigned() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.assigned)
}

func (c *RemoteConsumer) gone() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.left
}

// op builds the member-scoped request DTO.
func (c *RemoteConsumer) op() *busOp {
	return &busOp{Topic: c.group.topic.name, Group: c.group.name, Member: c.member}
}

// Next implements ConsumerHandle in one round trip: the commit rides
// the fetch as one mark per partition run of done, and the coordinator
// applies it before the long-poll parks; followers get it with each
// partition's next replicated record. The fetch rides through failover,
// and a promoted coordinator that does not know the member is rejoined
// transparently (redelivery resumes from the replicated committed
// offsets, behind by at most the lag at each partition's last
// replicated record). A rejoin drops the marks: they came
// from a membership the coordinator no longer knows, so they are
// fenced like a commit of a dead generation and the records are
// redelivered.
func (c *RemoteConsumer) Next(ctx context.Context, done, buf []Record) ([]Record, error) {
	bus := c.group.topic.bus
	op := c.op()
	op.WaitMS = bus.cfg.FetchWait.Milliseconds()
	op.Marks = appendMarks(nil, done)
	buf = buf[:0]
	for {
		if c.gone() {
			return buf, ErrNotMember
		}
		res, err := bus.callRetry(ctx, "fetch", op)
		switch {
		case err == nil:
			op.Marks = nil
			c.mu.Lock()
			c.assigned = append(c.assigned[:0], res.Assigned...)
			c.mu.Unlock()
			if len(res.Recs) > 0 {
				return decodeValues(append(buf, res.Recs...))
			}
			// The long-poll expired server-side: re-fetch.
		case errors.Is(err, ErrUnknownMember):
			op.Marks = nil
			if _, err := bus.callRetry(ctx, "join", c.op()); err != nil && !retryable(err) {
				return buf, err
			}
		default:
			return buf, err
		}
	}
}

// decodeValues turns each fetched record's opaque bytes back into the
// value its producer published — the one decode a consumer pays.
func decodeValues(recs []Record) ([]Record, error) {
	for i := range recs {
		raw, _ := recs[i].Value.([]byte)
		v, err := rpc.DecodeValue(raw)
		if err != nil {
			return recs[:0], fmt.Errorf("bus: record %d/%d: %w", recs[i].Partition, recs[i].Offset, err)
		}
		recs[i].Value = v
	}
	return recs, nil
}

// CommitPolled implements ConsumerHandle: one commit call carries a
// mark per partition run of recs; the coordinator applies them as it
// does a fetch's and replicates them to every follower before it
// answers. It fails with ErrNotAssigned when
// a mark was fenced, a coordinator that no longer knows the member
// (lease expiry or failover) fencing them all.
func (c *RemoteConsumer) CommitPolled(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	if c.gone() {
		return ErrNotMember
	}
	bus := c.group.topic.bus
	ctx, cancel := context.WithTimeout(context.Background(), bus.cfg.CallTimeout)
	defer cancel()
	op := c.op()
	op.Marks = appendMarks(nil, recs)
	if _, err := bus.call(ctx, "commit", op); err != nil {
		if retryable(err) {
			bus.invalidate()
		}
		return err
	}
	return nil
}

// Leave implements ConsumerHandle. Idempotent; safe from another
// goroutine.
func (c *RemoteConsumer) Leave() {
	c.mu.Lock()
	if c.left {
		c.mu.Unlock()
		return
	}
	c.left = true
	c.mu.Unlock()
	bus := c.group.topic.bus
	ctx, cancel := context.WithTimeout(context.Background(), bus.cfg.CallTimeout)
	defer cancel()
	_, _ = bus.call(ctx, "leave", c.op())
}
