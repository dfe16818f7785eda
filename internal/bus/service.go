package bus

// service.go turns the in-process Broker into a clustered bus: every
// broker-capable node runs a Service over a full local Broker replica,
// leadership per partition-group is decided by a zk election, and the
// pipeline's producers and consumers reach the leader through the rpc
// fabric (remote.go).
//
// Values are opaque here. A producer (RemoteTopic.Publish) encodes the
// record value once, into self-contained tagged bytes
// (rpc.EncodeValue); the leader's log, replicate, backfill and fetch
// store and forward those bytes verbatim — a copy per hop, never a
// decode — so followers are byte-identical to the leader, and each
// consumer (RemoteConsumer.Poll) decodes once. The bytes are immutable
// from the moment they are published: every replica log, and on an
// in-process fabric every reader, holds the same slice. A Broker under
// a Service therefore holds []byte values only; a record appended to it
// some other way cannot be fetched remotely (rpc.ErrWireType).
//
// Replication protocol. Publish is served by the partition-group
// leader: it appends locally (normal backpressure applies), then
// synchronously replicates the record to every *registered* replica —
// all of them at once, one round trip — before acking with the record's
// partition, offset and key (not its value: the producer has that). So
// an acked record exists on all live replicas and survives the leader's
// death. A replica that has vanished from the zk
// registry (its ephemeral node expired) is skipped; one that is
// registered but failing fails the publish, and the producer retries.
// Followers detect gaps (a replicated offset ahead of their high-water
// mark) and the leader backfills from its own log.
//
// Group coordination. All consumer-group traffic (join/fetch/commit/…)
// goes to the partition-group-0 leader — the group coordinator — which
// runs the ordinary Group/Consumer machinery over its local replica.
// Remote members are leased: a member that stops fetching past the TTL
// is evicted, triggering the usual rebalance. Committed offsets are
// mirrored to followers on every commit, so a promoted coordinator
// resumes groups where the dead one left them; members of the old
// coordinator are unknown to the new one and simply rejoin, resuming
// from the mirrored offsets (the at-least-once contract — uncommitted
// records are redelivered).
//
// Known limitation: records the dead leader appended but never acked
// may exist on a subset of replicas (the acked prefix is on all of
// them). After promotion those suffixes can diverge; downstream writes
// are idempotent, so duplicates are absorbed, and nothing acked is
// ever lost.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/zk"
)

// Cluster-bus errors (wire-registered so they survive the TCP bridge).
var (
	// ErrNotLeader is returned by leader-only methods on a follower;
	// clients re-resolve the election and retry.
	ErrNotLeader = errors.New("bus: not partition leader")
	// ErrUnknownMember is returned when a consumer's lease expired or
	// the coordinator changed; clients rejoin.
	ErrUnknownMember = errors.New("bus: unknown remote member")
)

// busOp is the single request DTO for every bus rpc method.
type busOp struct {
	Topic  string
	Group  string
	Member string
	Part   int
	UpTo   int64
	Key    uint64
	Value  []byte // publish: the record value as rpc.EncodeValue wrote it
	WaitMS int64
	Recs   []Record
}

// busResult is the single response DTO for every bus rpc method.
type busResult struct {
	Rec        Record // publish: partition, offset and key; no value
	Recs       []Record
	Assigned   []int
	Generation int64
	Offset     int64
	Lag        int64
	OK         bool
}

// AppendWire implements rpc.WireEncoder: the fields in declaration
// order.
func (o *busOp) AppendWire(b []byte) ([]byte, error) {
	b = rpc.AppendString(b, o.Topic)
	b = rpc.AppendString(b, o.Group)
	b = rpc.AppendString(b, o.Member)
	b = rpc.AppendInt(b, int64(o.Part))
	b = rpc.AppendInt(b, o.UpTo)
	b = rpc.AppendUint(b, o.Key)
	b = rpc.AppendBytes(b, o.Value)
	b = rpc.AppendInt(b, o.WaitMS)
	return appendRecords(b, o.Recs)
}

func decodeBusOp(r *rpc.WireReader) *busOp {
	return &busOp{
		Topic:  r.Str(),
		Group:  r.Str(),
		Member: r.Str(),
		Part:   int(r.Int()),
		UpTo:   r.Int(),
		Key:    r.Uint(),
		Value:  r.Bytes(),
		WaitMS: r.Int(),
		Recs:   decodeRecords(r),
	}
}

// AppendWire implements rpc.WireEncoder: the fields in declaration
// order.
func (p *busResult) AppendWire(b []byte) ([]byte, error) {
	b, err := p.Rec.AppendWire(b)
	if err != nil {
		return b, err
	}
	if b, err = appendRecords(b, p.Recs); err != nil {
		return b, err
	}
	b = rpc.AppendUint(b, uint64(len(p.Assigned)))
	for _, part := range p.Assigned {
		b = rpc.AppendInt(b, int64(part))
	}
	b = rpc.AppendInt(b, p.Generation)
	b = rpc.AppendInt(b, p.Offset)
	b = rpc.AppendInt(b, p.Lag)
	return rpc.AppendBool(b, p.OK), nil
}

func decodeBusResult(r *rpc.WireReader) *busResult {
	p := &busResult{Rec: decodeRecord(r), Recs: decodeRecords(r)}
	if n := r.Count(1); n > 0 {
		p.Assigned = make([]int, n)
		for i := range p.Assigned {
			p.Assigned[i] = int(r.Int())
		}
	}
	p.Generation = r.Int()
	p.Offset = r.Int()
	p.Lag = r.Int()
	p.OK = r.Bool()
	return p
}

func init() {
	rpc.RegisterWireType(rpc.TagBusOp, decodeBusOp)
	rpc.RegisterWireType(rpc.TagBusResult, decodeBusResult)
	rpc.RegisterWireType(rpc.TagBusRecord, decodeRecord)
	rpc.RegisterWireError(ErrClosed, ErrDraining, ErrOffsetTrimmed,
		ErrOffsetOutOfRange, ErrNotMember, ErrNotAssigned,
		ErrReplicaGap, ErrNotLeader, ErrUnknownMember)
}

// ServiceConfig tunes a bus Service.
type ServiceConfig struct {
	// Node is this node's unique name ("broker", "store-1", …).
	Node string
	// Addr is the rpc address this service answers on and publishes as
	// its election payload (convention: "bus/<node>").
	Addr string
	// Root is the zk namespace (default "/sentinel/bus").
	Root string
	// PartitionGroups is the number of leader-elected partition groups
	// (currently clamped to 1: one leader owns all partitions; the
	// structure generalizes when partition ranges split across groups).
	PartitionGroups int
	// MemberTTL evicts remote consumers silent this long (default 3s).
	MemberTTL time.Duration
	// ReplicaTimeout bounds each replication rpc (default 2s).
	ReplicaTimeout time.Duration
	// RegistryRefresh bounds replica-registry staleness (default
	// 200ms).
	RegistryRefresh time.Duration
}

func (c *ServiceConfig) defaults() {
	if c.Root == "" {
		c.Root = "/sentinel/bus"
	}
	// Clamped: the replication and coordination paths assume one
	// group until partition ranges are split across leaders.
	c.PartitionGroups = 1
	if c.MemberTTL <= 0 {
		c.MemberTTL = 3 * time.Second
	}
	if c.ReplicaTimeout <= 0 {
		c.ReplicaTimeout = 2 * time.Second
	}
	if c.RegistryRefresh <= 0 {
		c.RegistryRefresh = 200 * time.Millisecond
	}
}

// Service exposes a Broker replica over rpc, participating in the
// per-partition-group elections and the replica registry.
type Service struct {
	broker *Broker
	net    *rpc.Network
	zkc    zk.Client
	cfg    ServiceConfig

	elections []*zk.Election
	leading   []chan struct{} // closed when this node leads group i

	mu       sync.Mutex
	members  map[string]*remoteMember
	replicas map[string]string // node → addr, cached from zk
	repAt    time.Time
	repLocks map[string][]*sync.Mutex // per topic-partition replication order
	closed   bool

	stop chan struct{}
	wg   sync.WaitGroup

	// Promotions counts leadership acquisitions after startup —
	// failovers this node absorbed.
	Promotions telemetry.Counter
	// Replicated counts records synchronously copied to followers.
	Replicated telemetry.Counter
	// Evictions counts remote members dropped by lease expiry.
	Evictions telemetry.Counter
}

// remoteMember is one leased remote consumer.
type remoteMember struct {
	c        *Consumer
	mu       sync.Mutex // serializes Poll/Commit on the consumer
	lastSeen time.Time
}

// StartService registers the node in the replica registry, joins the
// partition-group elections and begins serving the bus rpc methods on
// cfg.Addr.
func StartService(net *rpc.Network, zkc zk.Client, b *Broker, cfg ServiceConfig) (*Service, error) {
	cfg.defaults()
	s := &Service{
		broker:   b,
		net:      net,
		zkc:      zkc,
		cfg:      cfg,
		members:  make(map[string]*remoteMember),
		repLocks: make(map[string][]*sync.Mutex),
		stop:     make(chan struct{}),
	}
	if err := zk.EnsurePath(zkc, cfg.Root+"/replicas"); err != nil {
		return nil, fmt.Errorf("bus: service %s: %w", cfg.Node, err)
	}
	if err := zkc.Create(cfg.Root+"/replicas/"+cfg.Node, []byte(cfg.Addr), true); err != nil {
		return nil, fmt.Errorf("bus: register replica %s: %w", cfg.Node, err)
	}
	for g := 0; g < cfg.PartitionGroups; g++ {
		e, err := zk.JoinElection(zkc, fmt.Sprintf("%s/pg-%d", cfg.Root, g), cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("bus: join election pg-%d: %w", g, err)
		}
		s.elections = append(s.elections, e)
		s.leading = append(s.leading, make(chan struct{}))
	}
	if _, err := net.Register(cfg.Addr, s.Handle, rpc.ServerConfig{Workers: 8, QueueCap: 1024}); err != nil {
		return nil, fmt.Errorf("bus: register %s: %w", cfg.Addr, err)
	}
	for g := range s.elections {
		s.wg.Add(1)
		go s.campaign(g)
	}
	s.wg.Add(1)
	go s.reapMembers()
	return s, nil
}

// Close resigns the elections, deregisters the replica and stops
// serving. The underlying broker is left to its owner.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.net.Remove(s.cfg.Addr)
	for _, e := range s.elections {
		_ = e.Resign()
	}
	_ = s.zkc.Delete(s.cfg.Root + "/replicas/" + s.cfg.Node)
	s.wg.Wait()
}

// campaign blocks until this node leads partition group g, then marks
// it. Leadership is sticky: it is lost only with the zk session (i.e.
// the process).
func (s *Service) campaign(g int) {
	defer s.wg.Done()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-s.stop
		cancel()
	}()
	lead, err := s.elections[g].IsLeader()
	if err == nil && lead {
		close(s.leading[g])
		return
	}
	if err := s.elections[g].AwaitLeadership(ctx); err != nil {
		return
	}
	s.Promotions.Inc()
	close(s.leading[g])
}

// IsLeader reports whether this node currently leads partition group g.
func (s *Service) IsLeader(g int) bool {
	if g < 0 || g >= len(s.leading) {
		return false
	}
	select {
	case <-s.leading[g]:
		return true
	default:
		return false
	}
}

// PartitionsLed returns how many partition groups this node leads.
func (s *Service) PartitionsLed() int {
	n := 0
	for g := range s.leading {
		if s.IsLeader(g) {
			n++
		}
	}
	return n
}

// groupFor maps a partition to its partition group.
func (s *Service) groupFor(part int) int { return part % s.cfg.PartitionGroups }

// reapMembers evicts remote consumers whose lease expired.
func (s *Service) reapMembers() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.MemberTTL / 3)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-tick.C:
			var doomed []*remoteMember
			s.mu.Lock()
			for key, m := range s.members {
				if now.Sub(m.lastSeen) > s.cfg.MemberTTL {
					doomed = append(doomed, m)
					delete(s.members, key)
				}
			}
			s.mu.Unlock()
			for _, m := range doomed {
				m.c.Leave()
				s.Evictions.Inc()
			}
		}
	}
}

// replicaSet returns node→addr for every *other* registered replica,
// cached for RegistryRefresh.
func (s *Service) replicaSet(force bool) (map[string]string, error) {
	s.mu.Lock()
	if !force && s.replicas != nil && time.Since(s.repAt) < s.cfg.RegistryRefresh {
		set := s.replicas
		s.mu.Unlock()
		return set, nil
	}
	s.mu.Unlock()
	kids, err := s.zkc.Children(s.cfg.Root + "/replicas")
	if err != nil {
		return nil, err
	}
	set := make(map[string]string, len(kids))
	for _, node := range kids {
		if node == s.cfg.Node {
			continue
		}
		data, _, err := s.zkc.Get(s.cfg.Root + "/replicas/" + node)
		if err != nil {
			continue // vanished between list and read
		}
		set[node] = string(data)
	}
	s.mu.Lock()
	s.replicas = set
	s.repAt = time.Now()
	s.mu.Unlock()
	return set, nil
}

// repLock returns the per-partition replication mutex for topic so
// records replicate to followers in offset order.
func (s *Service) repLock(topic string, part int) *sync.Mutex {
	s.mu.Lock()
	defer s.mu.Unlock()
	locks, ok := s.repLocks[topic]
	if !ok {
		locks = make([]*sync.Mutex, s.broker.cfg.Partitions)
		for i := range locks {
			locks[i] = &sync.Mutex{}
		}
		s.repLocks[topic] = locks
	}
	return locks[part]
}

// replicate copies rec to every registered replica, backfilling gaps,
// and fails if a registered replica cannot be reached (the producer
// retries — an ack means the record is on every live replica).
func (s *Service) replicate(ctx context.Context, topic string, rec Record) error {
	lock := s.repLock(topic, rec.Partition)
	lock.Lock()
	defer lock.Unlock()
	set, err := s.replicaSet(false)
	if err != nil {
		return fmt.Errorf("bus: replica registry: %w", err)
	}
	// One round trip, not one per follower: the record goes to every
	// follower at once, and every answer is collected before a follower
	// that reported a gap gets its backfill exchange.
	type attempt struct {
		node, addr string
		fut        *rpc.Future
		v          any
		err        error
	}
	op := &busOp{Topic: topic, Part: rec.Partition, Recs: []Record{rec}}
	cctx, cancel := context.WithTimeout(ctx, s.cfg.ReplicaTimeout)
	attempts := make([]attempt, 0, len(set))
	for node, addr := range set {
		attempts = append(attempts, attempt{node: node, addr: addr, fut: s.net.Go(cctx, addr, "replicate", op)})
	}
	for i := range attempts {
		attempts[i].v, attempts[i].err = attempts[i].fut.Wait(cctx)
	}
	cancel()
	var failed error
	for _, a := range attempts {
		if err := s.settleReplica(ctx, a.addr, topic, rec, a.v, a.err); err != nil {
			// Re-check the registry: a replica that died (and lost its
			// ephemeral registration) is skipped, anything else fails
			// the publish.
			fresh, rerr := s.replicaSet(true)
			if rerr == nil {
				if _, still := fresh[a.node]; !still {
					continue
				}
			}
			if failed == nil {
				failed = fmt.Errorf("bus: replicate %s/%d@%d to %s: %w",
					topic, rec.Partition, rec.Offset, a.node, err)
			}
			continue
		}
		s.Replicated.Inc()
	}
	return failed
}

// settleReplica takes one replica's answer (v, err) to the replicate
// call that shipped rec and, while the follower reports a gap, ships it
// the backfill it asks for.
func (s *Service) settleReplica(ctx context.Context, addr, topic string, rec Record, v any, err error) error {
	for attempt := 0; ; attempt++ {
		if err != nil {
			return err
		}
		res, ok := v.(*busResult)
		if !ok {
			return fmt.Errorf("bus: replicate: bad result %T", v)
		}
		if res.OK {
			return nil
		}
		if attempt == 3 {
			return fmt.Errorf("%w: follower %s still gapped after backfill", ErrReplicaGap, addr)
		}
		// Gap: the follower is at res.Offset; backfill from our log.
		var batch []Record
		t := s.broker.Topic(topic)
		for off := res.Offset; off <= rec.Offset; {
			chunk, err := t.ReadAt(rec.Partition, off, make([]Record, 0, defaultPollRecords))
			if err != nil {
				return fmt.Errorf("bus: backfill read @%d: %w", off, err)
			}
			if len(chunk) == 0 {
				break
			}
			batch = append(batch, chunk...)
			off = chunk[len(chunk)-1].Offset + 1
		}
		if len(batch) == 0 {
			return fmt.Errorf("%w: backfill found nothing at %d", ErrReplicaGap, res.Offset)
		}
		cctx, cancel := context.WithTimeout(ctx, s.cfg.ReplicaTimeout)
		v, err = s.net.Call(cctx, addr, "replicate", &busOp{Topic: topic, Part: rec.Partition, Recs: batch})
		cancel()
	}
}

// mirrorCommit pushes a committed offset to the other replicas, all at
// once, so a promoted coordinator resumes from it. Best-effort: an
// unreachable follower merely re-delivers (at-least-once) if it is
// later promoted.
func (s *Service) mirrorCommit(ctx context.Context, topic, group string, part int, upTo int64) {
	set, err := s.replicaSet(false)
	if err != nil {
		return
	}
	op := &busOp{Topic: topic, Group: group, Part: part, UpTo: upTo}
	cctx, cancel := context.WithTimeout(ctx, s.cfg.ReplicaTimeout)
	defer cancel()
	futs := make([]*rpc.Future, 0, len(set))
	for _, addr := range set {
		futs = append(futs, s.net.Go(cctx, addr, "commitsync", op))
	}
	for _, fut := range futs {
		_, _ = fut.Wait(cctx)
	}
}

// member resolves a leased consumer, refreshing its lease.
func (s *Service) member(topic, group, id string) (*remoteMember, error) {
	key := topic + "/" + group + "/" + id
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.members[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownMember, key)
	}
	m.lastSeen = time.Now()
	return m, nil
}

// Handle is the rpc.Handler serving the bus methods.
func (s *Service) Handle(ctx context.Context, method string, payload any) (any, error) {
	op, ok := payload.(*busOp)
	if !ok {
		return nil, fmt.Errorf("bus: %s: bad payload %T", method, payload)
	}
	t := s.broker.Topic(op.Topic)
	switch method {
	case "publish":
		part := t.PartitionFor(op.Key)
		if !s.IsLeader(s.groupFor(part)) {
			return nil, fmt.Errorf("%w: %s partition %d", ErrNotLeader, s.cfg.Node, part)
		}
		rec, err := t.Publish(ctx, op.Key, op.Value)
		if err != nil {
			return nil, err
		}
		if err := s.replicate(ctx, op.Topic, rec); err != nil {
			// The local append is not acked; the producer retries and
			// downstream idempotency absorbs the duplicate.
			return nil, err
		}
		return &busResult{Rec: Record{Partition: rec.Partition, Offset: rec.Offset, Key: rec.Key}}, nil

	case "replicate":
		var hwm int64
		for _, rec := range op.Recs {
			h, err := t.ReplicaAppend(op.Part, rec.Offset, rec.Key, rec.Value)
			if err != nil {
				if errors.Is(err, ErrReplicaGap) {
					return &busResult{OK: false, Offset: h}, nil
				}
				return nil, err
			}
			hwm = h
		}
		return &busResult{OK: true, Offset: hwm}, nil

	case "commitsync":
		t.Group(op.Group).ForceCommit(op.Part, op.UpTo)
		return &busResult{OK: true}, nil

	case "hwm":
		var total int64
		for p := 0; p < t.Partitions(); p++ {
			total += t.HighWater(p)
		}
		return &busResult{Offset: total}, nil
	}

	// Everything below is group coordination: pg-0-leader only.
	if !s.IsLeader(0) {
		return nil, fmt.Errorf("%w: %s is not the coordinator", ErrNotLeader, s.cfg.Node)
	}
	switch method {
	case "join":
		g := t.Group(op.Group)
		key := op.Topic + "/" + op.Group + "/" + op.Member
		s.mu.Lock()
		if old, ok := s.members[key]; ok {
			// A rejoin after failover or lease expiry replaces the old
			// membership.
			old.c.Leave()
		}
		m := &remoteMember{c: g.Join(), lastSeen: time.Now()}
		s.members[key] = m
		s.mu.Unlock()
		return &busResult{Generation: g.Generation()}, nil

	case "fetch":
		m, err := s.member(op.Topic, op.Group, op.Member)
		if err != nil {
			return nil, err
		}
		wait := time.Duration(op.WaitMS) * time.Millisecond
		if wait <= 0 || wait > time.Second {
			wait = 250 * time.Millisecond
		}
		// A long-poll waits off the server's worker pool: parked
		// consumers must not starve publish, commit and replicate.
		return rpc.Deferred(func(reply func(any, error)) {
			s.wg.Add(1) // on the worker: Close removes the server before it waits
			go func() {
				defer s.wg.Done()
				reply(s.fetch(ctx, t.Group(op.Group), m, wait))
			}()
		}), nil

	case "commit":
		m, err := s.member(op.Topic, op.Group, op.Member)
		if err != nil {
			return nil, err
		}
		m.mu.Lock()
		err = m.c.Commit(op.Part, op.UpTo)
		m.mu.Unlock()
		if err != nil {
			return nil, err
		}
		s.mirrorCommit(ctx, op.Topic, op.Group, op.Part, op.UpTo)
		return &busResult{OK: true}, nil

	case "leave":
		key := op.Topic + "/" + op.Group + "/" + op.Member
		s.mu.Lock()
		m, ok := s.members[key]
		delete(s.members, key)
		s.mu.Unlock()
		if ok {
			m.c.Leave()
		}
		return &busResult{OK: true}, nil

	case "seektoend":
		g := t.Group(op.Group)
		g.SeekToEnd()
		for p := 0; p < t.Partitions(); p++ {
			s.mirrorCommit(ctx, op.Topic, op.Group, p, g.Committed(p))
		}
		return &busResult{OK: true}, nil

	case "lag":
		return &busResult{Lag: t.Group(op.Group).Lag()}, nil

	case "hasgroups":
		return &busResult{OK: t.HasGroups()}, nil

	case "groupclose":
		t.Group(op.Group).Close()
		return &busResult{OK: true}, nil

	default:
		return nil, fmt.Errorf("bus: unknown method %q", method)
	}
}

// fetch is one member's long-poll: its next batch, or an empty one once
// wait has passed.
func (s *Service) fetch(ctx context.Context, g *Group, m *remoteMember, wait time.Duration) (any, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fctx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	recs, err := m.c.Poll(fctx, make([]Record, 0, defaultPollRecords))
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		if errors.Is(err, ErrNotMember) {
			return nil, fmt.Errorf("%w: evicted", ErrUnknownMember)
		}
		return nil, err
	}
	return &busResult{Recs: recs, Assigned: m.c.Assigned(), Generation: g.Generation()}, nil
}

// FollowerLag returns the worst total log shortfall (records) across
// the registered followers, by asking each for its high-water sums.
// Metrics-scrape granularity; 0 when this node leads nothing.
func (s *Service) FollowerLag(topics []string) int64 {
	if s.PartitionsLed() == 0 {
		return 0
	}
	set, err := s.replicaSet(false)
	if err != nil {
		return 0
	}
	var worst int64
	for _, topic := range topics {
		t := s.broker.Topic(topic)
		var local int64
		for p := 0; p < t.Partitions(); p++ {
			local += t.HighWater(p)
		}
		for _, addr := range set {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			v, err := s.net.Call(ctx, addr, "hwm", &busOp{Topic: topic})
			cancel()
			if err != nil {
				continue
			}
			if res, ok := v.(*busResult); ok {
				if lag := local - res.Offset; lag > worst {
					worst = lag
				}
			}
		}
	}
	return worst
}
