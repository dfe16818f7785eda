package bus

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/zk"
)

// busCluster is an in-process cluster of bus services sharing one rpc
// network and one zk server — the multi-node wiring without TCP.
type busCluster struct {
	net      *rpc.Network
	zks      *zk.Server
	services []*Service
	brokers  []*Broker
	sessions []*zk.Session
}

func startBusCluster(t *testing.T, n int) *busCluster {
	t.Helper()
	c := &busCluster{net: rpc.NewNetwork(0, nil), zks: zk.NewServer()}
	for i := 0; i < n; i++ {
		b := New(Config{Partitions: 4, SegmentRecords: 8})
		sess := c.zks.NewSession()
		svc, err := StartService(c.net, sess, b, ServiceConfig{
			Node:      fmt.Sprintf("n%d", i+1),
			Addr:      fmt.Sprintf("bus/n%d", i+1),
			MemberTTL: 2 * time.Second,
		})
		if err != nil {
			t.Fatalf("start service %d: %v", i, err)
		}
		c.brokers = append(c.brokers, b)
		c.sessions = append(c.sessions, sess)
		c.services = append(c.services, svc)
	}
	t.Cleanup(func() {
		for i := range c.services {
			c.services[i].Close()
			c.brokers[i].Close()
		}
		c.net.Close()
	})
	return c
}

// crash simulates a SIGKILL of node i: rpc server gone, zk session
// expired, nothing graceful.
func (c *busCluster) crash(i int) {
	c.net.Remove(c.services[i].cfg.Addr)
	c.sessions[i].Close()
}

func (c *busCluster) remote(t *testing.T, node string) *RemoteBus {
	t.Helper()
	sess := c.zks.NewSession()
	t.Cleanup(sess.Close)
	return NewRemoteBus(c.net, sess, RemoteBusConfig{
		Node:       node,
		Partitions: 4,
		FetchWait:  50 * time.Millisecond,
		RetryDelay: 10 * time.Millisecond,
	})
}

func TestBusServicePublishReplicates(t *testing.T) {
	c := startBusCluster(t, 2)
	rb := c.remote(t, "client")
	topic := rb.Topic("t")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for k := uint64(0); k < 20; k++ {
		if _, err := topic.Publish(ctx, k, fmt.Sprintf("v%d", k)); err != nil {
			t.Fatalf("publish %d: %v", k, err)
		}
	}
	// Synchronous replication: the follower's log matches the leader's
	// as soon as the publishes ack.
	lead, fol := c.brokers[0].Topic("t"), c.brokers[1].Topic("t")
	for p := 0; p < 4; p++ {
		lh, fh := lead.HighWater(p), fol.HighWater(p)
		if lh != fh {
			t.Fatalf("partition %d: leader hwm %d follower hwm %d", p, lh, fh)
		}
		lr, _ := lead.ReadAt(p, 0, nil)
		fr, _ := fol.ReadAt(p, 0, nil)
		if len(lr) != len(fr) {
			t.Fatalf("partition %d: %d vs %d records", p, len(lr), len(fr))
		}
		for i := range lr {
			// Values are opaque bytes in a clustered log: the follower
			// holds the leader's bytes, and they decode to what was
			// published.
			lv, fv := lr[i].Value.([]byte), fr[i].Value.([]byte)
			lr[i].Value, fr[i].Value = nil, nil
			if lr[i] != fr[i] || !bytes.Equal(lv, fv) {
				t.Fatalf("partition %d record %d: %+v %x vs %+v %x", p, i, lr[i], lv, fr[i], fv)
			}
			if v, err := rpc.DecodeValue(fv); err != nil || v != fmt.Sprintf("v%d", fr[i].Key) {
				t.Fatalf("partition %d record %d: follower value decodes to %v, %v", p, i, v, err)
			}
		}
	}
	if got := c.services[0].FollowerLag([]string{"t"}); got != 0 {
		t.Fatalf("follower lag %d after sync replication", got)
	}

	// SeekToEnd mirrors committed offsets to the follower.
	g := topic.Group("tail")
	g.SeekToEnd()
	fg := fol.Group("tail")
	for p := 0; p < 4; p++ {
		if want, got := lead.HighWater(p), fg.Committed(p); want != got {
			t.Fatalf("partition %d: follower committed %d want %d", p, got, want)
		}
	}
}

// recKey identifies one record slot.
type recKey struct {
	part int
	off  int64
}

// collector tracks deliveries and acked commits across worker loops.
type collector struct {
	mu        sync.Mutex
	delivered map[recKey]int
	committed [4]int64 // highest acked committed offset per partition
	violation string
	frozen    bool
	snapshot  [4]int64
}

func (cl *collector) deliver(recs []Record) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, r := range recs {
		cl.delivered[recKey{r.Partition, r.Offset}]++
		if cl.frozen && r.Offset < cl.snapshot[r.Partition] && cl.violation == "" {
			cl.violation = fmt.Sprintf("record %d/%d redelivered below pre-crash committed offset %d",
				r.Partition, r.Offset, cl.snapshot[r.Partition])
		}
	}
}

func (cl *collector) acked(recs []Record) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, r := range recs {
		if r.Offset+1 > cl.committed[r.Partition] {
			cl.committed[r.Partition] = r.Offset + 1
		}
	}
}

func (cl *collector) freeze() {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.snapshot = cl.committed
	cl.frozen = true
}

func (cl *collector) covered(pubs map[recKey]bool) (missing int) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for k := range pubs {
		if cl.delivered[k] == 0 {
			missing++
		}
	}
	return missing
}

// worker runs the standard poll → record → commit loop.
func worker(ctx context.Context, c ConsumerHandle, cl *collector) {
	var buf []Record
	for {
		recs, err := c.Next(ctx, nil, buf)
		if err != nil {
			if errors.Is(err, ErrNotMember) || ctx.Err() != nil {
				return
			}
			continue
		}
		cl.deliver(recs)
		if err := c.CommitPolled(recs); err == nil {
			cl.acked(recs)
		}
		buf = recs
	}
}

// TestBusServiceLeaderFailover is the satellite-3 scenario: the
// partition leader is killed mid-rebalance (a new member is joining),
// a follower is promoted, committed offsets are preserved (nothing
// acked is redelivered from below them, nothing published is lost) and
// partition ownership stays disjoint.
func TestBusServiceLeaderFailover(t *testing.T) {
	c := startBusCluster(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	waitFor(t, ctx, "initial leadership", func() bool { return c.services[0].IsLeader(0) })
	rb := c.remote(t, "client")
	topic := rb.Topic("t")
	group := topic.Group("workers")
	cl := &collector{delivered: make(map[recKey]int)}
	pubs := make(map[recKey]bool)

	c1, c2 := group.Join(), group.Join()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); worker(ctx, c1, cl) }()
	go func() { defer wg.Done(); worker(ctx, c2, cl) }()

	publish := func(from, to uint64) {
		for k := from; k < to; k++ {
			rec, err := topic.Publish(ctx, k, k)
			if err != nil {
				t.Errorf("publish %d: %v", k, err)
				return
			}
			pubs[recKey{rec.Partition, rec.Offset}] = true
		}
	}
	publish(0, 200)

	// Quiesce: every pre-crash record delivered and committed.
	waitFor(t, ctx, "pre-crash drain", func() bool {
		return group.Lag() == 0 && cl.covered(pubs) == 0
	})
	cl.freeze()

	// Kill the leader while a third member is joining (the rebalance
	// lands on whichever coordinator survives).
	joined := make(chan ConsumerHandle, 1)
	go func() { joined <- group.Join() }()
	c.crash(0)
	c3 := <-joined
	wg.Add(1)
	go func() { defer wg.Done(); worker(ctx, c3, cl) }()

	// The pipeline keeps accepting publishes through the failover.
	publish(200, 400)

	waitFor(t, ctx, "promotion", func() bool {
		return c.services[1].IsLeader(0) || c.services[2].IsLeader(0)
	})
	waitFor(t, ctx, "post-crash drain", func() bool {
		return group.Lag() == 0 && cl.covered(pubs) == 0
	})

	cl.mu.Lock()
	violation := cl.violation
	cl.mu.Unlock()
	if violation != "" {
		t.Fatalf("committed offsets not preserved: %s", violation)
	}

	// The promoted coordinator's committed offsets are at or past the
	// pre-crash acked ones.
	promoted := 1
	if c.services[2].IsLeader(0) {
		promoted = 2
	}
	if c.services[promoted].Promotions.Value() != 1 {
		t.Fatalf("promoted service counted %d promotions", c.services[promoted].Promotions.Value())
	}
	pg := c.brokers[promoted].Topic("t").Group("workers")
	for p := 0; p < 4; p++ {
		if got := pg.Committed(p); got < cl.snapshot[p] {
			t.Fatalf("partition %d: promoted committed %d < pre-crash %d", p, got, cl.snapshot[p])
		}
	}

	// Ownership stays disjoint and complete across the live members.
	waitFor(t, ctx, "disjoint assignment", func() bool {
		owned := make(map[int]int)
		for _, h := range []ConsumerHandle{c1, c2, c3} {
			for _, p := range h.Assigned() {
				owned[p]++
			}
		}
		if len(owned) != 4 {
			return false
		}
		for _, n := range owned {
			if n != 1 {
				return false
			}
		}
		return true
	})

	cancel()
	wg.Wait()
	c1.Leave()
	c2.Leave()
	c3.Leave()
}

func waitFor(t *testing.T, ctx context.Context, what string, cond func() bool) {
	t.Helper()
	for {
		if cond() {
			return
		}
		select {
		case <-ctx.Done():
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestRemoteGroupSyncParks: a remote Sync waits on the coordinator's
// own Group.Sync — one parked call, not a lag read per retry delay —
// and returns as soon as the last record is committed.
func TestRemoteGroupSyncParks(t *testing.T) {
	c := startBusCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	waitFor(t, ctx, "initial leadership", func() bool { return c.services[0].IsLeader(0) })
	rb := c.remote(t, "client")
	topic := rb.Topic("t")
	group := topic.Group("g")
	cons := group.Join()
	defer cons.Leave()
	for k := uint64(0); k < 8; k++ {
		if _, err := topic.Publish(ctx, k, k); err != nil {
			t.Fatalf("publish %d: %v", k, err)
		}
	}
	var polled []Record
	for len(polled) < 8 {
		recs, err := cons.Next(ctx, nil, nil)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		polled = append(polled, recs...)
	}

	synced := make(chan error, 1)
	before := c.net.Calls.Value()
	go func() { synced <- group.Sync(ctx) }()
	select {
	case err := <-synced:
		t.Fatalf("Sync returned %v with 8 records uncommitted", err)
	case <-time.After(300 * time.Millisecond):
	}
	if calls := c.net.Calls.Value() - before; calls > 2 {
		t.Fatalf("a waiting Sync issued %d rpcs in 300ms", calls)
	}
	if err := cons.CommitPolled(polled); err != nil {
		t.Fatalf("commit: %v", err)
	}
	select {
	case err := <-synced:
		if err != nil {
			t.Fatalf("Sync: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Sync still waiting after the last commit")
	}
}

// countServed puts a counter in front of node i's bus handler and
// returns a read of the calls it has served since, by method.
func (c *busCluster) countServed(t *testing.T, i int) func() map[string]int {
	t.Helper()
	var mu sync.Mutex
	served := make(map[string]int)
	svc := c.services[i]
	count := func(ctx context.Context, method string, payload any) (any, error) {
		mu.Lock()
		served[method]++
		mu.Unlock()
		return svc.Handle(ctx, method, payload)
	}
	if _, err := c.net.Register(svc.cfg.Addr, count, rpc.ServerConfig{Workers: 8, QueueCap: 1024}); err != nil {
		t.Fatal(err)
	}
	return func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(served)
	}
}

// consumeCycles publishes k records one at a time from key first on,
// each fetched by cons with the previous batch's commit riding the
// fetch, and returns the last batch fetched (its commit not yet sent).
// After each publish it calls published with the record.
func consumeCycles(t *testing.T, ctx context.Context, topic TopicHandle, cons ConsumerHandle, first uint64, k int, done []Record, published func(Record)) []Record {
	t.Helper()
	for key := first; key < first+uint64(k); key++ {
		rec, err := topic.Publish(ctx, key, int64(key))
		if err != nil {
			t.Fatalf("publish %d: %v", key, err)
		}
		if published != nil {
			published(rec)
		}
		recs, err := cons.Next(ctx, done, nil)
		if err != nil {
			t.Fatalf("next after %d: %v", key, err)
		}
		if len(recs) != 1 || recs[0].Offset != rec.Offset || recs[0].Partition != rec.Partition {
			t.Fatalf("next after %d = %+v, want record %d/%d alone", key, recs, rec.Partition, rec.Offset)
		}
		done = recs
	}
	return done
}

// TestFetchCommitsRideReplicate: K publish+Next cycles reach the
// follower as exactly K calls, all replicate — a commit carried by a
// fetch costs the follower no call of its own — and the follower's
// retention still follows the leader's: its low-water marks trail by
// at most one segment.
func TestFetchCommitsRideReplicate(t *testing.T) {
	const k = 100
	c := startBusCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	waitFor(t, ctx, "initial leadership", func() bool { return c.services[0].IsLeader(0) })
	topic := c.remote(t, "client").Topic("t")
	cons := topic.Group("g").Join()
	defer cons.Leave()
	served := c.countServed(t, 1)
	consumeCycles(t, ctx, topic, cons, 0, k, nil, nil)
	if got := served(); got["replicate"] != k || len(got) != 1 {
		t.Fatalf("%d cycles reached the follower as %v, want %d replicate calls only", k, got, k)
	}
	lead, fol := c.brokers[0].Topic("t"), c.brokers[1].Topic("t")
	seg := int64(c.brokers[1].cfg.SegmentRecords)
	for p := 0; p < 4; p++ {
		ll, fl := lead.LowWater(p), fol.LowWater(p)
		if ll == 0 || fl < ll-seg {
			t.Fatalf("partition %d: leader low-water %d, follower %d: want the leader trimmed and the follower within %d", p, ll, fl, seg)
		}
	}
}

// TestFollowerClosesClosedGroup: a group closed on the leader is closed
// on the followers too, so its last offsets stop pinning their
// retention while other groups keep consuming.
func TestFollowerClosesClosedGroup(t *testing.T) {
	c := startBusCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	waitFor(t, ctx, "initial leadership", func() bool { return c.services[0].IsLeader(0) })
	topic := c.remote(t, "client").Topic("t")
	tail := topic.Group("tail")
	tail.SeekToEnd() // attached on both replicas, committed at 0
	tail.Close()
	cons := topic.Group("work").Join()
	defer cons.Leave()
	consumeCycles(t, ctx, topic, cons, 0, 100, nil, nil)
	fol := c.brokers[1].Topic("t")
	for p := 0; p < 4; p++ {
		if low := fol.LowWater(p); low == 0 {
			t.Fatalf("partition %d: follower low-water 0 — the closed group still pins it (hwm %d)", p, fol.HighWater(p))
		}
	}
}

// TestPromotedFollowerRedeliversWithinBound kills the leader while a
// consumer commits only through its fetches, and measures what the
// promoted follower redelivers: per partition, at most the group's lag
// when the partition's last record was replicated (the commit
// protocol's bound, ≤ PartitionBuffer) — whether or not a record was
// published after the last commit — and every record published is
// delivered.
func TestPromotedFollowerRedeliversWithinBound(t *testing.T) {
	for _, after := range []int{0, 1} {
		t.Run(fmt.Sprintf("publishes-after-last-commit=%d", after), func(t *testing.T) {
			c := startBusCluster(t, 2)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			waitFor(t, ctx, "initial leadership", func() bool { return c.services[0].IsLeader(0) })
			topic := c.remote(t, "client").Topic("t")
			cons := topic.Group("g").Join()
			defer cons.Leave()
			lead := c.brokers[0].Topic("t")
			// lagAtLast[p] is the group's lag on p when p's last record
			// was replicated: read from the leader right after the
			// publish acked, nothing committing meanwhile.
			var lagAtLast [4]int64
			seen := make(map[recKey]bool)
			done := consumeCycles(t, ctx, topic, cons, 0, 40, nil, func(rec Record) {
				lagAtLast[rec.Partition] = rec.Offset + 1 - lead.Group("g").Committed(rec.Partition)
				seen[recKey{rec.Partition, rec.Offset}] = true // fetched by the cycle
			})
			// The last commit rides one more fetch, which then parks.
			cctx, ccancel := context.WithTimeout(ctx, 150*time.Millisecond)
			if _, err := cons.Next(cctx, done, nil); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("parked Next = %v, want the deadline", err)
			}
			ccancel()
			for key := uint64(40); key < 40+uint64(after); key++ {
				rec, err := topic.Publish(ctx, key, int64(key))
				if err != nil {
					t.Fatal(err)
				}
				lagAtLast[rec.Partition] = rec.Offset + 1 - lead.Group("g").Committed(rec.Partition)
			}
			var committed, hwm [4]int64
			for p := range committed {
				committed[p], hwm[p] = lead.Group("g").Committed(p), lead.HighWater(p)
			}

			c.crash(0)
			waitFor(t, ctx, "promotion", func() bool { return c.services[1].IsLeader(0) })
			// Consume on the promoted coordinator until the group has
			// committed everything there.
			var redelivered [4]int64
			promoted := c.brokers[1].Topic("t").Group("g")
			done = nil
			for promoted.Lag() > 0 {
				nctx, ncancel := context.WithTimeout(ctx, 200*time.Millisecond)
				recs, err := cons.Next(nctx, done, nil)
				ncancel()
				if err != nil && !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("next after promotion: %v", err)
				}
				for _, r := range recs {
					if r.Offset < committed[r.Partition] {
						redelivered[r.Partition]++
					}
					seen[recKey{r.Partition, r.Offset}] = true
				}
				if len(recs) > 0 {
					done = recs
				}
			}
			buffer := int64(c.brokers[1].cfg.PartitionBuffer)
			for p := range redelivered {
				if redelivered[p] > lagAtLast[p] || lagAtLast[p] > buffer {
					t.Fatalf("partition %d: redelivered %d, lag at its last replicated record %d, buffer %d",
						p, redelivered[p], lagAtLast[p], buffer)
				}
				for off := int64(0); off < hwm[p]; off++ {
					if !seen[recKey{p, off}] {
						t.Fatalf("record %d/%d never delivered", p, off)
					}
				}
			}
			t.Logf("redelivered per partition %v, bound %v", redelivered, lagAtLast)
		})
	}
}

// TestServiceRestartsUnderItsOwnName: a replica whose process died
// with its zk session still open comes back under the same node name
// and address. It boots (a second election candidate cannot collide
// with the first), is replicated to once its predecessor's session is
// gone, and can lead. The election is the only zk record of the
// replicas: no registry beside it is created.
func TestServiceRestartsUnderItsOwnName(t *testing.T) {
	c := startBusCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	waitFor(t, ctx, "initial leadership", func() bool { return c.services[0].IsLeader(0) })
	topic := c.remote(t, "client").Topic("t")
	publish := func(from, to uint64) {
		t.Helper()
		for k := from; k < to; k++ {
			if _, err := topic.Publish(ctx, k, k); err != nil {
				t.Fatalf("publish %d: %v", k, err)
			}
		}
	}
	publish(0, 10)

	// n2 dies: its rpc server is gone, its session and candidate are not.
	old, oldBroker, oldSess := c.services[1], c.brokers[1], c.sessions[1]
	c.net.Remove(old.cfg.Addr)
	t.Cleanup(func() { old.Close(); oldBroker.Close() })
	b := New(Config{Partitions: 4, SegmentRecords: 8})
	sess := c.zks.NewSession()
	svc, err := StartService(c.net, sess, b, ServiceConfig{Node: "n2", Addr: "bus/n2", MemberTTL: 2 * time.Second})
	if err != nil {
		t.Fatalf("restart under its own name: %v", err)
	}
	c.services[1], c.brokers[1], c.sessions[1] = svc, b, sess

	// The predecessor's session expires; the restarted replica stays in
	// the replica set and is backfilled with the whole log.
	oldSess.Close()
	publish(10, 30)
	lead := c.brokers[0].Topic("t")
	for p := 0; p < 4; p++ {
		if lh, fh := lead.HighWater(p), b.Topic("t").HighWater(p); lh != fh {
			t.Fatalf("partition %d: leader hwm %d, restarted replica hwm %d", p, lh, fh)
		}
	}

	c.crash(0)
	waitFor(t, ctx, "the restarted replica to lead", func() bool { return svc.IsLeader(0) })
	publish(30, 40)
	var total int64
	for p := 0; p < 4; p++ {
		total += b.Topic("t").HighWater(p)
	}
	if total != 40 {
		t.Fatalf("restarted leader's log holds %d records, want 40", total)
	}
	if ok, err := sess.Exists("/sentinel/bus/replicas"); err != nil || ok {
		t.Fatalf("replica registry exists = %v (%v)", ok, err)
	}
}

// TestBackfillBelowLowWater restarts a follower with an empty log onto
// a leader that has trimmed: the follower starts each partition at the
// leader's low-water mark, the next publish is acked, and both logs end
// at the same offsets. (A backfill read from the follower's offset 0,
// below the mark, failed every publish.)
func TestBackfillBelowLowWater(t *testing.T) {
	c := startBusCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	waitFor(t, ctx, "initial leadership", func() bool { return c.services[0].IsLeader(0) })
	topic := c.remote(t, "client").Topic("t")
	lead := c.brokers[0].Topic("t")
	k := uint64(0)
	publish := func() {
		t.Helper()
		if _, err := topic.Publish(ctx, k, k); err != nil {
			t.Fatalf("publish %d: %v", k, err)
		}
		k++
	}
	for lead.HighWater(0) < 20 {
		publish()
	}
	topic.Group("g").SeekToEnd()
	if low := lead.LowWater(0); low != 16 {
		t.Fatalf("leader low-water on partition 0 = %d after SeekToEnd, want 16", low)
	}

	// n2 is restarted with an empty broker under its own name.
	old, oldBroker := c.services[1], c.brokers[1]
	c.crash(1)
	t.Cleanup(func() { old.Close(); oldBroker.Close() })
	b := New(Config{Partitions: 4, SegmentRecords: 8})
	sess := c.zks.NewSession()
	svc, err := StartService(c.net, sess, b, ServiceConfig{Node: "n2", Addr: "bus/n2", MemberTTL: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	c.services[1], c.brokers[1], c.sessions[1] = svc, b, sess

	for end := k + 40; k < end; {
		publish()
	}
	fol := b.Topic("t")
	for p := 0; p < 4; p++ {
		if lh, fh := lead.HighWater(p), fol.HighWater(p); lh != fh {
			t.Errorf("partition %d: leader hwm %d, restarted follower hwm %d", p, lh, fh)
		}
	}
	if low := fol.LowWater(0); low != 16 {
		t.Errorf("restarted follower's low-water on partition 0 = %d, want the leader's 16", low)
	}
}
