package bus

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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
			Node:            fmt.Sprintf("n%d", i+1),
			Addr:            fmt.Sprintf("bus/n%d", i+1),
			MemberTTL:       2 * time.Second,
			RegistryRefresh: 50 * time.Millisecond,
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
		recs, err := c.Poll(ctx, buf)
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
