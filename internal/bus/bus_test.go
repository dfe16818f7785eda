package bus

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func bg() context.Context { return context.Background() }

// shortCtx returns a context that expires quickly, for asserting that
// a call blocks.
func shortCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	t.Cleanup(cancel)
	return ctx
}

func TestPublishRoutesByKey(t *testing.T) {
	b := New(Config{Partitions: 4})
	defer b.Close()
	topic := b.Topic("energy")
	for key := uint64(0); key < 16; key++ {
		rec, err := topic.Publish(bg(), key, int(key))
		if err != nil {
			t.Fatal(err)
		}
		if want := int(key % 4); rec.Partition != want {
			t.Fatalf("key %d routed to partition %d, want %d", key, rec.Partition, want)
		}
		if want := int64(key / 4); rec.Offset != want {
			t.Fatalf("key %d got offset %d, want %d", key, rec.Offset, want)
		}
	}
	for p := 0; p < 4; p++ {
		if hwm := topic.HighWater(p); hwm != 4 {
			t.Fatalf("partition %d high-water %d, want 4", p, hwm)
		}
	}
}

func TestEmptyPartitionRead(t *testing.T) {
	b := New(Config{Partitions: 2})
	defer b.Close()
	topic := b.Topic("energy")
	// Reading an empty partition at its high-water mark returns no
	// records and no error.
	recs, err := topic.ReadAt(0, 0, nil)
	if err != nil {
		t.Fatalf("empty read: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("empty read returned %d records", len(recs))
	}
	// A consumer polling an empty topic blocks until its context
	// expires.
	c := topic.Group("g").Join()
	defer c.Leave()
	if _, err := c.Poll(shortCtx(t), nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("poll on empty topic: got %v, want deadline exceeded", err)
	}
}

func TestOffsetPastHighWater(t *testing.T) {
	b := New(Config{Partitions: 1})
	defer b.Close()
	topic := b.Topic("energy")
	if _, err := topic.Publish(bg(), 0, "a"); err != nil {
		t.Fatal(err)
	}
	// Reading exactly at the high-water mark is "nothing yet".
	recs, err := topic.ReadAt(0, 1, nil)
	if err != nil || len(recs) != 0 {
		t.Fatalf("read at hwm: recs=%d err=%v", len(recs), err)
	}
	// Reading past it is an error.
	if _, err := topic.ReadAt(0, 2, nil); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("read past hwm: got %v, want ErrOffsetOutOfRange", err)
	}
	// So is committing past it.
	c := topic.Group("g").Join()
	defer c.Leave()
	if err := c.Commit(0, 5); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("commit past hwm: got %v, want ErrOffsetOutOfRange", err)
	}
}

func TestReplayFromOffset(t *testing.T) {
	b := New(Config{Partitions: 1, SegmentRecords: 4})
	defer b.Close()
	topic := b.Topic("energy")
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := topic.Publish(bg(), 0, i); err != nil {
			t.Fatal(err)
		}
	}
	// Any retained offset can be re-read, spanning segments.
	for from := int64(0); from <= n; from++ {
		recs, err := topic.ReadAt(0, from, make([]Record, 0, n))
		if err != nil {
			t.Fatalf("replay from %d: %v", from, err)
		}
		if int64(len(recs)) != n-from {
			t.Fatalf("replay from %d: got %d records, want %d", from, len(recs), n-from)
		}
		for i, r := range recs {
			if r.Offset != from+int64(i) || r.Value.(int) != int(from)+i {
				t.Fatalf("replay from %d: record %d = %+v", from, i, r)
			}
		}
	}
}

func TestConsumerRejoinAfterCommit(t *testing.T) {
	b := New(Config{Partitions: 1})
	defer b.Close()
	topic := b.Topic("energy")
	g := topic.Group("detectors")
	for i := 0; i < 8; i++ {
		if _, err := topic.Publish(bg(), 0, i); err != nil {
			t.Fatal(err)
		}
	}
	// First incarnation polls everything but commits only the first 3:
	// it "crashes" mid-processing.
	c1 := g.Join()
	recs, err := c1.Poll(bg(), make([]Record, 0, 16))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 8 {
		t.Fatalf("first poll got %d records, want 8", len(recs))
	}
	if err := c1.Commit(0, 3); err != nil {
		t.Fatal(err)
	}
	c1.Leave()
	if _, err := c1.Poll(bg(), nil); !errors.Is(err, ErrNotMember) {
		t.Fatalf("poll after leave: got %v, want ErrNotMember", err)
	}

	// The rejoined member resumes from the committed offset: records
	// 3..7 are redelivered (at-least-once), nothing is lost.
	c2 := g.Join()
	defer c2.Leave()
	recs, err = c2.Poll(bg(), recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || recs[0].Offset != 3 {
		t.Fatalf("rejoin poll: got %d records from offset %d, want 5 from 3", len(recs), recs[0].Offset)
	}
	if err := c2.CommitPolled(recs); err != nil {
		t.Fatal(err)
	}
	if got := g.Committed(0); got != 8 {
		t.Fatalf("committed %d, want 8", got)
	}
	if lag := g.Lag(); lag != 0 {
		t.Fatalf("lag %d, want 0", lag)
	}
}

func TestRebalanceMidConsumeNoLoss(t *testing.T) {
	const (
		partitions = 4
		total      = 400
	)
	b := New(Config{Partitions: partitions, SegmentRecords: 8})
	defer b.Close()
	topic := b.Topic("energy")
	g := topic.Group("workers")

	// processed[p][off] counts deliveries that were followed by a
	// commit attempt; every offset must be processed at least once.
	var mu sync.Mutex
	processed := make([]map[int64]int, partitions)
	for i := range processed {
		processed[i] = make(map[int64]int)
	}
	consume := func(ctx context.Context, c *Consumer) {
		buf := make([]Record, 0, 8)
		for {
			recs, err := c.Poll(ctx, buf)
			if err != nil {
				return
			}
			mu.Lock()
			for _, r := range recs {
				processed[r.Partition][r.Offset]++
			}
			mu.Unlock()
			// Commit errors (fenced after a rebalance) mean the records
			// will be redelivered; the processed marks above stand.
			_ = c.CommitPolled(recs)
		}
	}

	ctx, cancel := context.WithCancel(bg())
	defer cancel()
	var wg sync.WaitGroup
	c1, c2 := g.Join(), g.Join()
	wg.Add(2)
	go func() { defer wg.Done(); consume(ctx, c1) }()
	go func() { defer wg.Done(); consume(ctx, c2) }()

	// Publish with membership churn in the middle of the stream.
	var c3 *Consumer
	for i := 0; i < total; i++ {
		if _, err := topic.Publish(bg(), uint64(i), i); err != nil {
			t.Fatal(err)
		}
		switch i {
		case total / 4:
			c3 = g.Join() // scale up mid-stream
			wg.Add(1)
			go func() { defer wg.Done(); consume(ctx, c3) }()
		case total / 2:
			c1.Leave() // and lose a member mid-stream
		}
	}
	if err := g.Sync(bg()); err != nil {
		t.Fatal(err)
	}
	cancel()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for p := 0; p < partitions; p++ {
		hwm := topic.HighWater(p)
		for off := int64(0); off < hwm; off++ {
			if processed[p][off] == 0 {
				t.Fatalf("partition %d offset %d never delivered (rebalance lost it)", p, off)
			}
		}
		if got := g.Committed(p); got != hwm {
			t.Fatalf("partition %d committed %d, want %d", p, got, hwm)
		}
	}
}

// TestStaleFetchSkipsTrimmedPartition: a consumer that refreshed its
// assignment just before a rebalance can fetch a partition it no longer
// owns after the new owner's commits trimmed the log under its old
// position. The fetch must skip that partition (the next refresh takes
// the new assignment), not fail the Poll: a consumer loop ends on a
// Poll error, and the partitions it still owns then go unconsumed —
// the Group.Sync hang TestRebalanceMidConsumeNoLoss hit under load.
func TestStaleFetchSkipsTrimmedPartition(t *testing.T) {
	b := New(Config{Partitions: 2, SegmentRecords: 4})
	defer b.Close()
	topic := b.Topic("energy")
	g := topic.Group("workers")
	c1 := g.Join()
	if err := c1.refresh(); err != nil { // c1 holds both partitions from offset 0
		t.Fatal(err)
	}
	c2 := g.Join() // and partition 1 moves to c2
	for i := 0; i < 40; i++ {
		if _, err := topic.Publish(bg(), uint64(i), i); err != nil {
			t.Fatal(err)
		}
	}
	for g.Committed(1) < topic.HighWater(1) {
		recs, err := c2.Poll(bg(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := c2.CommitPolled(recs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := topic.ReadAt(1, 0, nil); !errors.Is(err, ErrOffsetTrimmed) {
		t.Fatalf("partition 1 not trimmed below offset 0 (%v): the test lost its premise", err)
	}
	if _, err := c1.fetch(make([]Record, 0, 64)); err != nil {
		t.Fatalf("fetch on the stale assignment = %v, want the moved partition skipped", err)
	}
}

// TestFetchRotationServesAllPartitions is the regression for the
// round-robin cursor bug: under sustained publishing to the other
// partitions, a middle partition's records must still be delivered
// within a bounded number of polls.
func TestFetchRotationServesAllPartitions(t *testing.T) {
	b := New(Config{Partitions: 3, PartitionBuffer: -1})
	defer b.Close()
	topic := b.Topic("energy")
	c := topic.Group("g").Join()
	defer c.Leave()
	// One record on partition 1; partitions 0 and 2 stay hot.
	if _, err := topic.Publish(bg(), 1, "target"); err != nil {
		t.Fatal(err)
	}
	buf := make([]Record, 0, 2) // small buffer: each poll fills from ~2 partitions
	for poll := 0; poll < 50; poll++ {
		if _, err := topic.Publish(bg(), 0, poll); err != nil {
			t.Fatal(err)
		}
		if _, err := topic.Publish(bg(), 2, poll); err != nil {
			t.Fatal(err)
		}
		recs, err := c.Poll(bg(), buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.Partition == 1 {
				return // delivered: rotation reached the quiet partition
			}
		}
		if err := c.CommitPolled(recs); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("partition 1's record starved for 50 polls under load on 0 and 2")
}

func TestRebalanceUsesEveryMember(t *testing.T) {
	b := New(Config{Partitions: 6})
	defer b.Close()
	g := b.Topic("energy").Group("g")
	// 6 partitions over 4 members must split 2,2,1,1 — ceil-chunking
	// would strand the fourth member with nothing.
	var cs [4]*Consumer
	for i := range cs {
		cs[i] = g.Join()
	}
	owned := 0
	seen := make(map[int]bool)
	for i, c := range cs {
		if err := c.refresh(); err != nil {
			t.Fatal(err)
		}
		parts := c.Assigned()
		if len(parts) == 0 {
			t.Fatalf("member %d owns no partitions", i)
		}
		if len(parts) > 2 {
			t.Fatalf("member %d owns %d partitions, want <= 2", i, len(parts))
		}
		owned += len(parts)
		for _, p := range parts {
			if seen[p] {
				t.Fatalf("partition %d assigned twice", p)
			}
			seen[p] = true
		}
	}
	if owned != 6 {
		t.Fatalf("%d partitions assigned, want 6", owned)
	}
}

func TestCommitFencedAfterRebalance(t *testing.T) {
	b := New(Config{Partitions: 2})
	defer b.Close()
	topic := b.Topic("energy")
	g := topic.Group("g")
	for i := 0; i < 4; i++ {
		if _, err := topic.Publish(bg(), uint64(i), i); err != nil {
			t.Fatal(err)
		}
	}
	c1 := g.Join()
	recs, err := c1.Poll(bg(), nil)
	if err != nil || len(recs) == 0 {
		t.Fatalf("poll: %d records, %v", len(recs), err)
	}
	// A second member takes over partition 1; the first member's
	// in-flight commit on it must be fenced.
	c2 := g.Join()
	defer c2.Leave()
	defer c1.Leave()
	if err := c1.Commit(1, 1); !errors.Is(err, ErrNotAssigned) {
		t.Fatalf("zombie commit: got %v, want ErrNotAssigned", err)
	}
	if err := c1.Commit(0, 1); err != nil {
		t.Fatalf("commit on retained partition: %v", err)
	}
}

func TestPublishBackpressure(t *testing.T) {
	b := New(Config{Partitions: 1, PartitionBuffer: 4})
	defer b.Close()
	topic := b.Topic("energy")
	g := topic.Group("g")
	c := g.Join()
	defer c.Leave()
	for i := 0; i < 4; i++ {
		if _, err := topic.Publish(bg(), 0, i); err != nil {
			t.Fatal(err)
		}
	}
	// The window is full: the next publish blocks until a commit.
	if _, err := topic.Publish(shortCtx(t), 0, 4); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("publish into full window: got %v, want deadline exceeded", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := topic.Publish(bg(), 0, 4)
		done <- err
	}()
	recs, err := c.Poll(bg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CommitPolled(recs); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("publish after commit: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("publish still blocked after commit freed the window")
	}
}

func TestRetentionTrimsCommittedSegments(t *testing.T) {
	b := New(Config{Partitions: 1, SegmentRecords: 4, PartitionBuffer: -1})
	defer b.Close()
	topic := b.Topic("energy")
	g := topic.Group("g")
	c := g.Join()
	defer c.Leave()
	for i := 0; i < 12; i++ {
		if _, err := topic.Publish(bg(), 0, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit(0, 9); err != nil {
		t.Fatal(err)
	}
	// Offsets 0..7 lie in fully committed segments and are trimmed;
	// offset 8's segment survives because 9 is mid-segment.
	if low := topic.LowWater(0); low != 8 {
		t.Fatalf("low-water %d after trim, want 8", low)
	}
	if _, err := topic.ReadAt(0, 4, nil); !errors.Is(err, ErrOffsetTrimmed) {
		t.Fatalf("read below low-water: got %v, want ErrOffsetTrimmed", err)
	}
	recs, err := topic.ReadAt(0, 8, nil)
	if err != nil || len(recs) != 4 {
		t.Fatalf("read from low-water: %d records, %v", len(recs), err)
	}
}

func TestDrainRejectsPublishersDeliversEverything(t *testing.T) {
	b := New(Config{Partitions: 2})
	topic := b.Topic("energy")
	g := topic.Group("g")
	c := g.Join()
	for i := 0; i < 20; i++ {
		if _, err := topic.Publish(bg(), uint64(i), i); err != nil {
			t.Fatal(err)
		}
	}
	// Drain in the background; the consumer is still behind, so it
	// must not complete yet.
	drained := make(chan error, 1)
	go func() { drained <- b.Drain(bg()) }()
	deadline := time.After(2 * time.Second)
	for {
		if err := b.publishable(); errors.Is(err, ErrDraining) {
			break
		}
		select {
		case <-deadline:
			t.Fatal("broker never entered draining")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if _, err := topic.Publish(bg(), 0, 99); !errors.Is(err, ErrDraining) {
		t.Fatalf("publish while draining: got %v, want ErrDraining", err)
	}
	// Consumers keep working during the drain and finish the backlog.
	seen := 0
	buf := make([]Record, 0, 8)
	for seen < 20 {
		recs, err := c.Poll(bg(), buf)
		if err != nil {
			t.Fatal(err)
		}
		seen += len(recs)
		if err := c.CommitPolled(recs); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("drain did not complete after consumers caught up")
	}
	c.Leave()
	b.Close()
	if _, err := topic.Publish(bg(), 0, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("publish after close: got %v, want ErrClosed", err)
	}
}

func TestCloseWakesBlockedPublisherAndPoller(t *testing.T) {
	b := New(Config{Partitions: 1, PartitionBuffer: 1})
	topic := b.Topic("energy")
	topic.Group("g") // attached group: its committed offsets gate the window
	if _, err := topic.Publish(bg(), 0, 0); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() {
		_, err := topic.Publish(bg(), 0, 1) // blocks: window full
		errs <- err
	}()
	go func() {
		c2 := b.Topic("idle").Group("g").Join()
		_, err := c2.Poll(bg(), nil) // blocks: the idle topic is empty
		errs <- err
	}()
	time.Sleep(20 * time.Millisecond)
	b.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("blocked call woke with %v, want ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("blocked call never woke after Close")
		}
	}
}

func TestGroupCloseReleasesBackpressure(t *testing.T) {
	b := New(Config{Partitions: 1, PartitionBuffer: 2})
	defer b.Close()
	topic := b.Topic("energy")
	g := topic.Group("stale")
	g.Join() // member that never polls
	for i := 0; i < 2; i++ {
		if _, err := topic.Publish(bg(), 0, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := topic.Publish(shortCtx(t), 0, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("publish against stale group: got %v, want deadline exceeded", err)
	}
	// Detaching the stale group lifts the limit.
	g.Close()
	if _, err := topic.Publish(bg(), 0, 2); err != nil {
		t.Fatalf("publish after group close: %v", err)
	}
}
