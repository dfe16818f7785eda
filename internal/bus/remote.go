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
	// Root is the zk namespace (default "/sentinel/bus"); must match
	// the services'.
	Root string
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
	if c.Root == "" {
		c.Root = "/sentinel/bus"
	}
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

// RemoteBus resolves bus leaders and hands out remote handles.
type RemoteBus struct {
	net *rpc.Network
	zkc zk.Client
	cfg RemoteBusConfig

	mu      sync.Mutex
	leaders map[int]string // partition group → leader addr
	nextID  int32
}

// NewRemoteBus builds a handle factory over net, resolving leadership
// through zkc.
func NewRemoteBus(net *rpc.Network, zkc zk.Client, cfg RemoteBusConfig) *RemoteBus {
	cfg.defaults()
	return &RemoteBus{net: net, zkc: zkc, cfg: cfg, leaders: make(map[int]string)}
}

// Topic returns a remote handle for the named topic.
func (b *RemoteBus) Topic(name string) *RemoteTopic {
	return &RemoteTopic{bus: b, name: name}
}

// leader resolves the addr of partition group g's leader (cached).
func (b *RemoteBus) leader(g int) (string, error) {
	b.mu.Lock()
	if addr, ok := b.leaders[g]; ok {
		b.mu.Unlock()
		return addr, nil
	}
	b.mu.Unlock()
	root := fmt.Sprintf("%s/pg-%d", b.cfg.Root, g)
	kids, err := b.zkc.Children(root)
	if err != nil {
		return "", err
	}
	if len(kids) == 0 {
		return "", fmt.Errorf("%w: no candidates for pg-%d", ErrNotLeader, g)
	}
	data, _, err := b.zkc.Get(root + "/" + kids[0])
	if err != nil {
		return "", err
	}
	addr := string(data)
	b.mu.Lock()
	b.leaders[g] = addr
	b.mu.Unlock()
	return addr, nil
}

// invalidate drops the cached leader for partition group g.
func (b *RemoteBus) invalidate(g int) {
	b.mu.Lock()
	delete(b.leaders, g)
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

// call issues one rpc to partition group g's leader.
func (b *RemoteBus) call(ctx context.Context, g int, method string, op *busOp) (*busResult, error) {
	addr, err := b.leader(g)
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
func (b *RemoteBus) callRetry(ctx context.Context, g int, method string, op *busOp) (*busResult, error) {
	for {
		res, err := b.call(ctx, g, method, op)
		if err == nil {
			return res, nil
		}
		if !retryable(err) {
			return nil, err
		}
		b.invalidate(g)
		select {
		case <-time.After(b.cfg.RetryDelay):
		case <-ctx.Done():
			return nil, fmt.Errorf("bus: %s: %w (last: %v)", method, ctx.Err(), err)
		}
	}
}

// RemoteTopic is a TopicHandle backed by the elected partition leaders.
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
	g := t.PartitionFor(key) % t.bus.cfg.partitionGroups()
	res, err := t.bus.callRetry(ctx, g, "publish", &busOp{Topic: t.name, Key: key, Value: val})
	if err != nil {
		return Record{}, err
	}
	return res.Rec, nil
}

// partitionGroups mirrors the service clamp.
func (c *RemoteBusConfig) partitionGroups() int { return 1 }

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
	res, err := t.bus.call(ctx, 0, "hasgroups", &busOp{Topic: t.name})
	if err != nil {
		t.bus.invalidate(0)
		return t.hg // stale answer beats a wrong default mid-failover
	}
	t.hg, t.hgAt = res.OK, time.Now()
	return t.hg
}

// Group implements TopicHandle.
func (t *RemoteTopic) Group(name string) GroupHandle {
	return &RemoteGroup{topic: t, name: name}
}

// RemoteGroup is a GroupHandle coordinated by the pg-0 leader.
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
	_, _ = g.topic.bus.callRetry(ctx, 0, "join", &busOp{Topic: g.topic.name, Group: g.name, Member: c.member})
	return c
}

// SeekToEnd implements GroupHandle.
func (g *RemoteGroup) SeekToEnd() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _ = g.topic.bus.callRetry(ctx, 0, "seektoend", &busOp{Topic: g.topic.name, Group: g.name})
}

// Lag implements GroupHandle.
func (g *RemoteGroup) Lag() int64 {
	ctx, cancel := context.WithTimeout(context.Background(), g.topic.bus.cfg.CallTimeout)
	defer cancel()
	res, err := g.topic.bus.call(ctx, 0, "lag", &busOp{Topic: g.topic.name, Group: g.name})
	if err != nil {
		g.topic.bus.invalidate(0)
		return -1 // unknown
	}
	return res.Lag
}

// Sync implements GroupHandle by polling lag until it reaches zero.
func (g *RemoteGroup) Sync(ctx context.Context) error {
	for {
		if g.Lag() == 0 {
			return nil
		}
		select {
		case <-time.After(g.topic.bus.cfg.RetryDelay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Close implements GroupHandle.
func (g *RemoteGroup) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), g.topic.bus.cfg.CallTimeout)
	defer cancel()
	_, _ = g.topic.bus.call(ctx, 0, "groupclose", &busOp{Topic: g.topic.name, Group: g.name})
}

// RemoteConsumer is a ConsumerHandle leased from the coordinator. Like
// *Consumer it is owned by one goroutine, except Leave.
type RemoteConsumer struct {
	group  *RemoteGroup
	id     int
	member string

	mu       sync.Mutex // guards left + assigned (Leave may race Poll)
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

// Poll implements ConsumerHandle: it long-polls the coordinator,
// rejoining transparently when a promoted coordinator does not know
// the member (redelivery resumes from the mirrored committed offsets).
func (c *RemoteConsumer) Poll(ctx context.Context, buf []Record) ([]Record, error) {
	bus := c.group.topic.bus
	buf = buf[:0]
	for {
		if c.gone() {
			return buf, ErrNotMember
		}
		if err := ctx.Err(); err != nil {
			return buf, err
		}
		op := c.op()
		op.WaitMS = bus.cfg.FetchWait.Milliseconds()
		res, err := bus.call(ctx, 0, "fetch", op)
		switch {
		case err == nil:
			c.mu.Lock()
			c.assigned = append(c.assigned[:0], res.Assigned...)
			c.mu.Unlock()
			if len(res.Recs) > 0 {
				return decodeValues(append(buf, res.Recs...))
			}
			continue // long-poll expired server-side; re-fetch
		case errors.Is(err, ErrUnknownMember):
			_, jerr := bus.callRetry(ctx, 0, "join", c.op())
			if jerr != nil && !retryable(jerr) {
				return buf, jerr
			}
		case retryable(err):
			bus.invalidate(0)
			select {
			case <-time.After(bus.cfg.RetryDelay):
			case <-ctx.Done():
				return buf, ctx.Err()
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

// Commit implements ConsumerHandle. Commits are fenced exactly like
// local ones: a partition that moved in a rebalance fails with
// ErrNotAssigned, and a member the coordinator no longer knows (lease
// expiry or failover) fails the same way — its poll was from a dead
// generation.
func (c *RemoteConsumer) Commit(part int, upTo int64) error {
	if c.gone() {
		return ErrNotMember
	}
	bus := c.group.topic.bus
	ctx, cancel := context.WithTimeout(context.Background(), bus.cfg.CallTimeout)
	defer cancel()
	op := c.op()
	op.Part, op.UpTo = part, upTo
	_, err := bus.call(ctx, 0, "commit", op)
	if err != nil {
		if errors.Is(err, ErrUnknownMember) {
			return fmt.Errorf("%w: member %s not known to coordinator", ErrNotAssigned, c.member)
		}
		if retryable(err) {
			bus.invalidate(0)
			return fmt.Errorf("%w: partition %d commit lost to failover", ErrNotAssigned, part)
		}
	}
	return err
}

// CommitPolled implements ConsumerHandle.
func (c *RemoteConsumer) CommitPolled(recs []Record) error {
	for i := 0; i < len(recs); {
		j := i
		for j+1 < len(recs) && recs[j+1].Partition == recs[i].Partition {
			j++
		}
		if err := c.Commit(recs[i].Partition, recs[j].Offset+1); err != nil {
			return err
		}
		i = j + 1
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
	_, _ = bus.call(ctx, 0, "leave", c.op())
}
