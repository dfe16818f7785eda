package bus

// service.go turns the in-process Broker into a clustered bus: every
// broker-capable node runs a Service over a full local Broker replica,
// one zk election decides the leader of every partition (partition
// group 0, the only one), and the pipeline's producers and consumers
// reach the leader through the rpc fabric (remote.go).
//
// Values are opaque here. A producer (RemoteTopic.Publish) encodes the
// record value once, into self-contained tagged bytes
// (rpc.EncodeValue); the leader's log, replicate, backfill and fetch
// store and forward those bytes verbatim — a copy per hop, never a
// decode — so followers are byte-identical to the leader, and each
// consumer (RemoteConsumer.Next) decodes once. The bytes are immutable
// from the moment they are published: every replica log, and on an
// in-process fabric every reader, holds the same slice. A Broker under
// a Service therefore holds []byte values only; a record appended to it
// some other way cannot be fetched remotely (rpc.ErrWireType).
//
// Replication protocol. Publish is served by the leader: it appends locally (normal backpressure applies), then
// synchronously replicates the record to every other candidate of the
// leader election — all of them at once, one round trip — before
// acking with the record's partition, offset and key (not its value:
// the producer has that). So an acked record exists on all live
// replicas and survives the leader's death. A replica that has left
// the election (its ephemeral candidate expired) is skipped; one that
// is still a candidate but failing fails the publish, and the producer
// retries. Followers detect gaps (a replicated offset ahead of their
// high-water mark) and the leader backfills from its own log.
//
// The election is the one zk record of the bus: its lowest candidate
// leads, and every candidate's payload — its service's rpc address —
// names a replica. The replica set a leader replicates to is the
// candidates' addresses other than its own, cached until a children
// watch on the election fires — a replica joining, or one whose
// candidate expired — so a quiet election costs one parked watch call,
// not a read per publish; a failed replicate still forces a fresh
// read. Keyed by address, a service restarted under its own name while
// its predecessor's session lives is one replica with two candidates.
//
// Group coordination. All consumer-group traffic (join/fetch/commit/…)
// goes to the leader — also the group coordinator — which
// runs the ordinary Group/Consumer machinery over its local replica.
// Waits are parked there, off the worker pool (rpc.Deferred): a fetch
// until records arrive, a sync until the group has no lag.
// Remote members are leased: a member that stops fetching past the TTL
// is evicted, triggering the usual rebalance.
//
// Commit protocol. A remote consumer's commit rides its next fetch
// (RemoteConsumer.Next) as one mark per partition run of the batch it
// finished; the coordinator applies the marks through the member's
// Consumer.Commit before the long-poll parks. Followers learn commits
// from replicate: each record replicated on partition p carries every
// attached group's committed offset on p, read under p's replication
// lock after the local append, and the follower applies them
// (Group.ForceCommit, monotone) after the records, so its retention
// keeps pace with its log. A commit carried by a fetch thus reaches
// followers on that partition's next replicated record, and a promoted
// follower redelivers, per group and partition, at most the group's
// lag there when the partition's last record was replicated: at most
// PartitionBuffer. A record's marks name every group attached at the
// leader, so the follower closes any group they leave out: a group
// closed on the leader stops pinning the followers' retention with the
// topic's next record. (A replicate that crossed a newer one on another
// partition may close a group attached moments before; the next record
// on any partition attaches it again.) The commit method
// (RemoteConsumer.CommitPolled) and seektoend are on every live
// follower before they answer — a replicate with marks and no records,
// which closes nothing. A mark fenced by a rebalance is dropped
// (commit answers ErrNotAssigned) and its records go to the partition's
// new owner; commits only advance, so resent marks are harmless. A
// promoted coordinator resumes groups from the replicated offsets; the
// old coordinator's members rejoin, dropping the marks they carried.
// Delivery stays at-least-once, and nothing acked is lost.
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
	"slices"
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
	Key    uint64
	Value  []byte // publish: the record value as rpc.EncodeValue wrote it
	WaitMS int64
	Recs   []Record
	// Marks are commits. A fetch or a commit carries one per partition
	// run of the records done (RemoteConsumer.Next,
	// RemoteConsumer.CommitPolled); a replicate carries the groups'
	// committed offsets for the follower to apply — with records, one
	// for every group attached at the leader.
	Marks []commitMark
	// From is a backfill's first offset, at or above the leader's
	// low-water mark. A follower whose log ends below it restarts the
	// partition there: the leader trimmed what lies between.
	From int64
}

// commitMark commits one partition for a group: every record below
// UpTo is done. A consumer's marks leave Group empty: its membership
// names the group.
type commitMark struct {
	Group string
	Part  int
	UpTo  int64
}

// appendMarks appends one mark per partition run of recs.
func appendMarks(marks []commitMark, recs []Record) []commitMark {
	_ = eachRun(recs, func(part int, upTo int64) error {
		marks = append(marks, commitMark{Part: part, UpTo: upTo})
		return nil
	})
	return marks
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
	b = rpc.AppendUint(b, o.Key)
	b = rpc.AppendBytes(b, o.Value)
	b = rpc.AppendInt(b, o.WaitMS)
	b, err := appendRecords(b, o.Recs)
	if err != nil {
		return b, err
	}
	b = rpc.AppendUint(b, uint64(len(o.Marks)))
	for _, m := range o.Marks {
		b = rpc.AppendString(b, m.Group)
		b = rpc.AppendInt(b, int64(m.Part))
		b = rpc.AppendInt(b, m.UpTo)
	}
	return rpc.AppendInt(b, o.From), nil
}

func decodeBusOp(r *rpc.WireReader) *busOp {
	o := &busOp{
		Topic:  r.Str(),
		Group:  r.Str(),
		Member: r.Str(),
		Part:   int(r.Int()),
		Key:    r.Uint(),
		Value:  r.Bytes(),
		WaitMS: r.Int(),
		Recs:   decodeRecords(r),
	}
	if n := r.Count(3); n > 0 {
		o.Marks = make([]commitMark, n)
		for i := range o.Marks {
			o.Marks[i] = commitMark{Group: r.Str(), Part: int(r.Int()), UpTo: r.Int()}
		}
	}
	o.From = r.Int()
	return o
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
	// MemberTTL evicts remote consumers silent this long (default 3s).
	MemberTTL time.Duration
}

func (c *ServiceConfig) defaults() {
	if c.MemberTTL <= 0 {
		c.MemberTTL = 3 * time.Second
	}
}

// replicaTimeout bounds each replication rpc.
const replicaTimeout = 2 * time.Second

// electionPath is the bus's one leader election: partition group 0,
// which owns every partition. Its candidates are the replica set.
const electionPath = "/sentinel/bus/pg-0"

// Leader returns the rpc address of the elected bus leader as zk has
// it now (zk.ErrNoNode while no service stands).
func Leader(zkc zk.Client) (string, error) { return zk.Leader(zkc, electionPath) }

// Service exposes a Broker replica over rpc, standing in the leader
// election, whose candidates are the replica set.
type Service struct {
	broker *Broker
	net    *rpc.Network
	zkc    zk.Client
	cfg    ServiceConfig

	election *zk.Election
	leading  chan struct{} // closed once this node leads

	mu       sync.Mutex
	members  map[string]*remoteMember
	replicas map[string]struct{} // the other candidates' addrs, cached from zk; nil when stale
	repGen   uint64              // bumped whenever the election watch fires or re-arms
	repArmed bool                // an election watch is armed: reads may be cached
	closed   bool

	// ctx ends with Close: it stops the background loops and releases
	// parked waits.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

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

// StartService joins the leader election — which makes the service a
// replica — and begins serving the bus rpc methods on cfg.Addr.
func StartService(net *rpc.Network, zkc zk.Client, b *Broker, cfg ServiceConfig) (*Service, error) {
	cfg.defaults()
	s := &Service{
		broker:  b,
		net:     net,
		zkc:     zkc,
		cfg:     cfg,
		members: make(map[string]*remoteMember),
		leading: make(chan struct{}),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	e, err := zk.JoinElection(zkc, electionPath, cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("bus: join election: %w", err)
	}
	s.election = e
	if _, err := net.Register(cfg.Addr, s.Handle, rpc.ServerConfig{Workers: 8, QueueCap: 1024}); err != nil {
		return nil, fmt.Errorf("bus: register %s: %w", cfg.Addr, err)
	}
	s.wg.Add(3)
	go s.campaign()
	go s.reapMembers()
	go s.watchReplicas()
	return s, nil
}

// Close resigns the election — leaving the replica set — and stops
// serving. The underlying broker is left to its owner.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.net.Remove(s.cfg.Addr)
	_ = s.election.Resign()
	s.wg.Wait()
}

// campaign blocks until this node leads, then marks it. Leadership is
// sticky: it is lost only with the zk session (i.e. the process).
func (s *Service) campaign() {
	defer s.wg.Done()
	lead, err := s.election.IsLeader()
	if err == nil && lead {
		close(s.leading)
		return
	}
	if err := s.election.AwaitLeadership(s.ctx); err != nil {
		return
	}
	s.Promotions.Inc()
	close(s.leading)
}

// leader reports whether this node currently leads.
func (s *Service) leader() bool {
	select {
	case <-s.leading:
		return true
	default:
		return false
	}
}

// IsLeader reports whether this node currently leads partition group g;
// there is one, group 0.
func (s *Service) IsLeader(g int) bool { return g == 0 && s.leader() }

// PartitionsLed returns how many partition groups this node leads: 1
// or 0.
func (s *Service) PartitionsLed() int {
	if s.leader() {
		return 1
	}
	return 0
}

// reapMembers evicts remote consumers whose lease expired.
func (s *Service) reapMembers() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.MemberTTL / 3)
	defer tick.Stop()
	for {
		select {
		case <-s.ctx.Done():
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

// watchReplicas keeps a children watch armed on the election: each
// time it fires — a candidate joined, or one's ephemeral node expired
// — the cached replica set is dropped and the next replicaSet reads the
// election again. If the watch cannot be re-armed, nothing is cached
// from then on.
func (s *Service) watchReplicas() {
	defer s.wg.Done()
	for {
		changed, err := s.zkc.WatchChildren(electionPath)
		s.mu.Lock()
		s.replicas, s.repArmed = nil, err == nil
		s.repGen++
		s.mu.Unlock()
		if err != nil {
			return
		}
		select {
		case <-changed:
		case <-s.ctx.Done():
			return
		}
		s.mu.Lock()
		s.replicas, s.repArmed = nil, false
		s.repGen++
		s.mu.Unlock()
	}
}

// replicaSet returns the addresses of the election's candidates other
// than this service's: cached until the election watch fires, read
// afresh when force is set. A read is cached only if the watch was
// armed before it began and has not fired since.
func (s *Service) replicaSet(force bool) (map[string]struct{}, error) {
	s.mu.Lock()
	if set := s.replicas; set != nil && !force {
		s.mu.Unlock()
		return set, nil
	}
	gen, armed := s.repGen, s.repArmed
	s.mu.Unlock()
	kids, err := s.zkc.Children(electionPath)
	if err != nil {
		return nil, err
	}
	set := make(map[string]struct{}, len(kids))
	for _, kid := range kids {
		data, _, err := s.zkc.Get(electionPath + "/" + kid)
		if err != nil {
			continue // vanished between list and read
		}
		if addr := string(data); addr != s.cfg.Addr {
			set[addr] = struct{}{}
		}
	}
	s.mu.Lock()
	if armed && s.repGen == gen {
		s.replicas = set
	}
	s.mu.Unlock()
	return set, nil
}

// replicate sends op — one partition's records, marks, or both — to
// every other candidate, backfilling gaps, and fails if a candidate
// cannot be reached (the producer retries — an ack means the record is
// on every live replica).
func (s *Service) replicate(ctx context.Context, op *busOp) error {
	set, err := s.replicaSet(false)
	if err != nil {
		return fmt.Errorf("bus: replica set: %w", err)
	}
	// One round trip, not one per follower: the op goes to every
	// follower at once, and every answer is collected before a follower
	// that reported a gap gets its backfill exchange.
	type attempt struct {
		addr string
		fut  *rpc.Future
		v    any
		err  error
	}
	cctx, cancel := context.WithTimeout(ctx, replicaTimeout)
	attempts := make([]attempt, 0, len(set))
	for addr := range set {
		attempts = append(attempts, attempt{addr: addr, fut: s.net.Go(cctx, addr, "replicate", op)})
	}
	for i := range attempts {
		attempts[i].v, attempts[i].err = attempts[i].fut.Wait(cctx)
	}
	cancel()
	var failed error
	for _, a := range attempts {
		if err := s.settleReplica(ctx, a.addr, op, a.v, a.err); err != nil {
			// Re-check the election: a replica that died (and lost its
			// ephemeral candidate) is skipped, anything else fails the
			// publish.
			fresh, rerr := s.replicaSet(true)
			if rerr == nil {
				if _, still := fresh[a.addr]; !still {
					continue
				}
			}
			if failed == nil {
				failed = fmt.Errorf("bus: replicate %s/%d to %s: %w", op.Topic, op.Part, a.addr, err)
			}
			continue
		}
		s.Replicated.Add(int64(len(op.Recs)))
	}
	return failed
}

// settleReplica takes one replica's answer (v, err) to the replicate
// call that shipped op and, while the follower reports a gap, ships it
// the backfill it asks for. A follower behind our low-water mark is
// backfilled from that mark: it restarts its partition there, and the
// backfill carries every group's offset read after the records, which
// is at or past the mark — we trim only below every group's commit.
func (s *Service) settleReplica(ctx context.Context, addr string, op *busOp, v any, err error) error {
	t := s.broker.Topic(op.Topic)
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
		// Gap: the follower is at res.Offset; backfill from our log up
		// to the last record op shipped.
		from := max(res.Offset, t.LowWater(op.Part))
		n := max(op.Recs[len(op.Recs)-1].Offset+1-from, 1)
		batch, rerr := t.ReadAt(op.Part, from, make([]Record, 0, n))
		if errors.Is(rerr, ErrOffsetTrimmed) {
			continue // trimmed since LowWater: read from the new mark
		}
		if rerr != nil {
			return fmt.Errorf("bus: backfill read @%d: %w", from, rerr)
		}
		if len(batch) == 0 {
			return fmt.Errorf("%w: backfill found nothing at %d", ErrReplicaGap, from)
		}
		cctx, cancel := context.WithTimeout(ctx, replicaTimeout)
		v, err = s.net.Call(cctx, addr, "replicate", &busOp{Topic: op.Topic, Part: op.Part, Recs: batch, Marks: groupMarks(t, op.Part), From: from})
		cancel()
	}
}

// groupMarks is every attached group's committed offset on part, the
// marks a record replicate carries.
func groupMarks(t *Topic, part int) []commitMark {
	gs := t.groupList()
	marks := make([]commitMark, len(gs))
	for i, g := range gs {
		marks[i] = commitMark{Group: g.name, Part: part, UpTo: g.Committed(part)}
	}
	return marks
}

// commit applies a fetch's marks through the member's consumer and
// returns those that landed, named for its group; marks is the
// caller's (on an in-process network, the client's) and is not
// written. A mark fenced by a rebalance is dropped: its records are
// redelivered to the partition's new owner.
func (m *remoteMember) commit(marks []commitMark) []commitMark {
	if len(marks) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	landed := make([]commitMark, 0, len(marks))
	for _, mk := range marks {
		if m.c.Commit(mk.Part, mk.UpTo) == nil {
			mk.Group = m.c.group.name
			landed = append(landed, mk)
		}
	}
	return landed
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
		if !s.leader() {
			return nil, fmt.Errorf("%w: %s partition %d", ErrNotLeader, s.cfg.Node, t.PartitionFor(op.Key))
		}
		rec, err := t.Publish(ctx, op.Key, op.Value)
		if err != nil {
			return nil, err
		}
		// Under the partition's replication lock, so records reach
		// followers in offset order, with every group's offset read
		// after the append.
		rp := t.partitions[rec.Partition]
		rp.rep.Lock()
		err = s.replicate(ctx, &busOp{Topic: op.Topic, Part: rec.Partition, Recs: []Record{rec}, Marks: groupMarks(t, rec.Partition)})
		rp.rep.Unlock()
		if err != nil {
			// The local append is not acked; the producer retries and
			// downstream idempotency absorbs the duplicate.
			return nil, err
		}
		return &busResult{Rec: Record{Partition: rec.Partition, Offset: rec.Offset, Key: rec.Key}}, nil

	case "replicate":
		if op.From > 0 {
			t.restartReplica(op.Part, op.From)
		}
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
		for _, m := range op.Marks {
			t.Group(m.Group).ForceCommit(m.Part, m.UpTo)
		}
		if len(op.Recs) > 0 {
			// The marks name every group attached at the leader: any
			// other was closed there.
			for _, g := range t.groupList() {
				if !slices.ContainsFunc(op.Marks, func(m commitMark) bool { return m.Group == g.name }) {
					g.Close()
				}
			}
		}
		return &busResult{OK: true, Offset: hwm}, nil

	case "hwm":
		var total int64
		for p := 0; p < t.Partitions(); p++ {
			total += t.HighWater(p)
		}
		return &busResult{Offset: total}, nil
	}

	// Everything below is group coordination: leader only.
	if !s.leader() {
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
		// The commit the fetch carries lands before the long-poll parks;
		// followers get it with the partition's next replicated record.
		m.commit(op.Marks)
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
			// Its poll was from a membership this coordinator does not
			// know: every mark is fenced.
			return nil, fmt.Errorf("%w: %v", ErrNotAssigned, err)
		}
		landed := m.commit(op.Marks)
		if len(landed) > 0 {
			_ = s.replicate(ctx, &busOp{Topic: op.Topic, Marks: landed})
		}
		if fenced := len(op.Marks) - len(landed); fenced > 0 {
			return nil, fmt.Errorf("%w: %d of %d marks fenced for %s", ErrNotAssigned, fenced, len(op.Marks), op.Member)
		}
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
		marks := make([]commitMark, t.Partitions())
		for p := range marks {
			marks[p] = commitMark{Group: op.Group, Part: p, UpTo: g.Committed(p)}
		}
		_ = s.replicate(ctx, &busOp{Topic: op.Topic, Marks: marks})
		return &busResult{OK: true}, nil

	case "lag":
		return &busResult{Lag: t.Group(op.Group).Lag()}, nil

	case "sync":
		g := t.Group(op.Group)
		wait := time.Duration(op.WaitMS) * time.Millisecond
		if wait <= 0 {
			wait = time.Second
		}
		return rpc.Deferred(func(reply func(any, error)) {
			s.wg.Add(1) // on the worker: Close removes the server before it waits
			go func() {
				defer s.wg.Done()
				reply(s.sync(ctx, g, wait))
			}()
		}), nil

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
// wait has passed or the service is closing (a close must not wait out
// a poll whose consumer may be gone).
func (s *Service) fetch(ctx context.Context, g *Group, m *remoteMember, wait time.Duration) (any, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fctx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	defer context.AfterFunc(s.ctx, cancel)()
	recs, err := m.c.Poll(fctx, make([]Record, 0, defaultPollRecords))
	if err != nil && fctx.Err() == nil {
		if errors.Is(err, ErrNotMember) {
			return nil, fmt.Errorf("%w: evicted", ErrUnknownMember)
		}
		return nil, err
	}
	return &busResult{Recs: recs, Assigned: m.c.Assigned(), Generation: g.Generation()}, nil
}

// sync parks until g has no lag — answered OK — or until wait has
// passed or the service closed — answered not OK, and the client asks
// again.
func (s *Service) sync(ctx context.Context, g *Group, wait time.Duration) (any, error) {
	sctx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	defer context.AfterFunc(s.ctx, cancel)()
	err := g.Sync(sctx)
	if err != nil && sctx.Err() == nil {
		return nil, err // the broker closed
	}
	return &busResult{OK: err == nil}, nil
}

// FollowerLag returns the worst total log shortfall (records) across
// the followers, by asking each for its high-water sums.
// Metrics-scrape granularity; 0 when this node leads nothing.
func (s *Service) FollowerLag(topics []string) int64 {
	if !s.leader() {
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
		for addr := range set {
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
