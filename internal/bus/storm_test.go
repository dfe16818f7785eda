package bus

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBusShutdownStorm is the drain-discipline stress for the bus,
// mirroring the RPC fabric's shutdown storm: publishers hammer a small
// backpressure window while consumers churn through the group
// (join/poll/commit/leave), then the broker drains under the load and
// closes. Run with -race; the invariants are (1) no panic or race,
// (2) every record accepted by Publish is committed by the group
// before Drain returns (at-least-once, nothing stranded), and
// (3) publishers blocked at drain time fail with ErrDraining or
// ErrClosed, never a lost write.
func TestBusShutdownStorm(t *testing.T) {
	const (
		publishers = 6
		consumers  = 4
		churns     = 15
	)
	b := New(Config{Partitions: 4, SegmentRecords: 16, PartitionBuffer: 32})
	topic := b.Topic("energy")
	g := topic.Group("workers")

	var accepted atomic.Int64
	var pubWG sync.WaitGroup
	stopPub := make(chan struct{})
	for w := 0; w < publishers; w++ {
		pubWG.Add(1)
		go func(w int) {
			defer pubWG.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-stopPub:
					return
				default:
				}
				_, err := topic.Publish(ctx, uint64(w*1000+i), i)
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrDraining), errors.Is(err, ErrClosed):
					return
				default:
					t.Errorf("publisher %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	// Consumers churn: each lives for a slice of the storm, polls and
	// commits, then leaves and is replaced — every handover is a
	// rebalance under fire.
	ctx, cancelConsumers := context.WithCancel(context.Background())
	defer cancelConsumers()
	var conWG sync.WaitGroup
	consume := func(c *Consumer, polls int) {
		defer conWG.Done()
		defer c.Leave()
		buf := make([]Record, 0, 16)
		for i := 0; i < polls; i++ {
			recs, err := c.Poll(ctx, buf)
			if err != nil {
				return
			}
			_ = c.CommitPolled(recs) // fenced commits are fine: redelivery
		}
	}
	for i := 0; i < consumers; i++ {
		conWG.Add(1)
		go consume(g.Join(), 25)
	}
	for round := 0; round < churns; round++ {
		conWG.Add(1)
		go consume(g.Join(), 25)
		time.Sleep(time.Millisecond)
	}

	// Long-lived members guarantee the drain can complete even after
	// the churning consumers run out of polls.
	for i := 0; i < 2; i++ {
		conWG.Add(1)
		go consume(g.Join(), 1<<30)
	}

	time.Sleep(20 * time.Millisecond)
	close(stopPub)
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.Drain(drainCtx); err != nil {
		t.Fatalf("drain under storm: %v", err)
	}
	pubWG.Wait()
	if lag := g.Lag(); lag != 0 {
		t.Fatalf("drain returned with lag %d", lag)
	}
	var committed int64
	for p := 0; p < topic.Partitions(); p++ {
		committed += g.Committed(p) - topic.LowWater(p)
		if got, hwm := g.Committed(p), topic.HighWater(p); got != hwm {
			t.Fatalf("partition %d committed %d != high-water %d", p, got, hwm)
		}
	}
	var hwmSum int64
	for p := 0; p < topic.Partitions(); p++ {
		hwmSum += topic.HighWater(p)
	}
	if hwmSum != accepted.Load() {
		t.Fatalf("accepted %d publishes but high-water sum is %d", accepted.Load(), hwmSum)
	}
	b.Close()
	cancelConsumers()
	conWG.Wait()
}

// TestDrainWaitsForRacingPublish is the regression test for the acked
// loss on graceful shutdown: a publisher that had passed the running
// check when Drain flipped the state used to append after Drain's lag
// check had read zero, and got a nil error for a record nobody would
// consume. Publishers race Drain round after round; every record a
// Publish acknowledged must lie below what the group had committed when
// Drain returned.
func TestDrainWaitsForRacingPublish(t *testing.T) {
	const rounds, publishers = 400, 4
	for round := 0; round < rounds; round++ {
		b := New(Config{Partitions: 1, SegmentRecords: 16, PartitionBuffer: 32})
		topic := b.Topic("energy")
		g := topic.Group("workers")
		ctx, cancel := context.WithCancel(context.Background())
		var conWG, pubWG sync.WaitGroup
		conWG.Add(1)
		go func(c *Consumer) {
			defer conWG.Done()
			for buf := make([]Record, 0, 16); ; {
				recs, err := c.Poll(ctx, buf)
				if err != nil {
					return
				}
				if err := c.CommitPolled(recs); err != nil {
					t.Error(err)
					return
				}
			}
		}(g.Join())
		var acked atomic.Int64 // one past the highest acknowledged offset
		for w := 0; w < publishers; w++ {
			pubWG.Add(1)
			go func() {
				defer pubWG.Done()
				for i := 0; ; i++ {
					rec, err := topic.Publish(ctx, 0, i)
					if err != nil {
						if !errors.Is(err, ErrDraining) {
							t.Errorf("publish: %v", err)
						}
						return
					}
					for {
						cur := acked.Load()
						if rec.Offset < cur || acked.CompareAndSwap(cur, rec.Offset+1) {
							break
						}
					}
				}
			}()
		}
		for topic.HighWater(0) < int64(round%64) { // a storm of varying length
			runtime.Gosched()
		}
		if err := b.Drain(ctx); err != nil {
			t.Fatalf("round %d: drain: %v", round, err)
		}
		committed := g.Committed(0)
		pubWG.Wait()
		if got := acked.Load(); got > committed {
			t.Fatalf("round %d: Drain returned with the group at offset %d; a publish of offset %d was acknowledged", round, committed, got-1)
		}
		b.Close()
		cancel()
		conWG.Wait()
	}
}
