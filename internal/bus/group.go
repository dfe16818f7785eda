package bus

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// defaultPollRecords sizes the buffer Poll allocates when the caller
// passes one with no capacity.
const defaultPollRecords = 64

// Group is a named consumer group on a topic: it owns one committed
// offset per partition and range-assigns the partitions across its
// live members, rebalancing (with a generation bump) whenever a member
// joins or leaves.
type Group struct {
	topic *Topic
	name  string

	// committed[p] is the next offset the group will read on partition
	// p; atomics so publishers compute backpressure limits lock-free.
	committed []atomic.Int64

	mu          sync.Mutex
	members     map[int]*Consumer
	assignments map[int][]int // member id → owned partitions
	nextID      int
	generation  int64
}

// Group returns the named consumer group, attaching it to the topic on
// first use. A freshly attached group starts at each partition's
// low-water mark, and from then on its committed offsets count toward
// publish backpressure and retention.
func (t *Topic) Group(name string) *Group {
	t.mu.Lock()
	defer t.mu.Unlock()
	if g, ok := t.groups[name]; ok {
		return g
	}
	g := &Group{
		topic:       t,
		name:        name,
		committed:   make([]atomic.Int64, len(t.partitions)),
		members:     make(map[int]*Consumer),
		assignments: make(map[int][]int),
	}
	for i, p := range t.partitions {
		g.committed[i].Store(p.lowWater())
	}
	t.groups[name] = g
	return g
}

// Name returns the group name.
func (g *Group) Name() string { return g.name }

// Committed returns the group's committed offset for the partition.
func (g *Group) Committed(part int) int64 { return g.committed[part].Load() }

// Generation returns the current assignment generation.
func (g *Group) Generation() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.generation
}

// SeekToEnd fast-forwards the group's committed offsets to the current
// high-water marks, so a freshly attached group consumes only records
// published afterwards. Call it before the first member joins; offsets
// only ever advance, so concurrent publishes are safe.
func (g *Group) SeekToEnd() {
	t := g.topic
	for i, p := range t.partitions {
		if hwm := p.highWater(); hwm > g.committed[i].Load() {
			g.committed[i].Store(hwm)
		}
	}
	for i := range t.partitions {
		t.maybeTrim(i)
	}
	t.wake()
}

// Lag sums high-water minus committed across partitions: the records
// published but not yet committed by this group.
func (g *Group) Lag() int64 {
	var lag int64
	for i, p := range g.topic.partitions {
		if d := p.highWater() - g.committed[i].Load(); d > 0 {
			lag += d
		}
	}
	return lag
}

// Sync blocks until the group has zero lag (every published record
// committed), ctx is done, or the broker closes.
func (g *Group) Sync(ctx context.Context) error {
	t := g.topic
	for {
		if g.Lag() == 0 {
			return nil
		}
		ch := t.pulse.arm()
		if g.Lag() == 0 {
			t.pulse.disarm()
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			t.pulse.disarm()
			return ctx.Err()
		case <-t.broker.stopped:
			t.pulse.disarm()
			return ErrClosed
		}
		t.pulse.disarm()
	}
}

// Close detaches the group from the topic: its committed offsets stop
// counting toward backpressure and retention, and its members are
// dropped. Idempotent.
func (g *Group) Close() {
	t := g.topic
	t.mu.Lock()
	if cur, ok := t.groups[g.name]; ok && cur == g {
		delete(t.groups, g.name)
	}
	t.mu.Unlock()
	g.mu.Lock()
	clear(g.members)
	clear(g.assignments)
	g.generation++
	g.mu.Unlock()
	// Publishers blocked on this group's lag recompute their limit.
	for i := range t.partitions {
		t.maybeTrim(i)
	}
	t.wake()
}

// Join adds a member and rebalances. The returned Consumer is owned by
// one goroutine; call Leave when done.
func (g *Group) Join() *Consumer {
	g.mu.Lock()
	id := g.nextID
	g.nextID++
	c := &Consumer{group: g, id: id, positions: make(map[int]int64), gen: -1}
	g.members[id] = c
	g.rebalanceLocked()
	g.mu.Unlock()
	g.topic.wake()
	return c
}

// rebalanceLocked range-assigns partitions across members in member-id
// order and bumps the generation. Callers hold g.mu.
func (g *Group) rebalanceLocked() {
	g.generation++
	clear(g.assignments)
	if len(g.members) == 0 {
		return
	}
	ids := make([]int, 0, len(g.members))
	for id := range g.members {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	// Balanced ranges: the first parts%members members own one extra
	// partition, so no member idles while partitions outnumber members
	// (ceil-chunking would strand the tail members with nothing).
	parts := len(g.topic.partitions)
	base, extra := parts/len(ids), parts%len(ids)
	lo := 0
	for i, id := range ids {
		n := base
		if i < extra {
			n++
		}
		if n == 0 {
			break
		}
		owned := make([]int, 0, n)
		for p := lo; p < lo+n; p++ {
			owned = append(owned, p)
		}
		g.assignments[id] = owned
		lo += n
	}
	g.topic.broker.Rebalances.Inc()
}

// Consumer is one group member. It is not safe for concurrent use,
// except that Leave may be called from another goroutine to evict it
// (a blocked Poll wakes with ErrNotMember).
type Consumer struct {
	group *Group
	id    int

	// gen/assigned mirror the group assignment as of the last refresh;
	// positions track the next offset to read per owned partition
	// (ahead of committed until the caller commits).
	gen       int64
	assigned  []int
	positions map[int]int64
	rr        int // round-robin cursor over assigned partitions
}

// ID returns the member id (unique within the group).
func (c *Consumer) ID() int { return c.id }

// Assigned returns the partitions owned as of the last Poll.
func (c *Consumer) Assigned() []int { return slices.Clone(c.assigned) }

// refresh re-reads the group assignment if a rebalance happened,
// resetting positions to the group's committed offsets (the
// at-least-once contract: polled-but-uncommitted records on a moved
// partition are redelivered to the new owner).
func (c *Consumer) refresh() error {
	g := c.group
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.members[c.id]; !ok {
		return ErrNotMember
	}
	if c.gen == g.generation {
		return nil
	}
	c.gen = g.generation
	c.assigned = append(c.assigned[:0], g.assignments[c.id]...)
	clear(c.positions)
	for _, p := range c.assigned {
		c.positions[p] = g.committed[p].Load()
	}
	return nil
}

// Poll returns the next batch of records from the consumer's assigned
// partitions, blocking until at least one record is available, ctx is
// done, or the broker closes. Records are appended into buf's spare
// capacity (a fresh 64-record buffer when cap(buf) is 0) so a steady
// consumer re-using its buffer polls without allocating. Poll advances
// the consumer's read position past everything it returns; the records
// count as delivered only once Commit is called.
func (c *Consumer) Poll(ctx context.Context, buf []Record) ([]Record, error) {
	if cap(buf) == 0 {
		buf = make([]Record, 0, defaultPollRecords)
	}
	buf = buf[:0]
	t := c.group.topic
	b := t.broker
	if f := b.faults.Load(); f.Active() > 0 {
		if err := f.Do(ctx, "bus/fetch/"+t.name); err != nil {
			return buf, err
		}
	}
	var err error
	for {
		// Check cancellation even when records are always ready: a
		// worker being stopped must not be obliged to drain the backlog
		// first.
		select {
		case <-b.stopped:
			return buf, ErrClosed
		case <-ctx.Done():
			return buf, ctx.Err()
		default:
		}
		if err = c.refresh(); err != nil {
			return buf, err
		}
		buf, err = c.fetch(buf)
		if err != nil || len(buf) > 0 {
			return buf, err
		}
		ch := t.pulse.arm()
		if err = c.refresh(); err != nil {
			t.pulse.disarm()
			return buf, err
		}
		buf, err = c.fetch(buf)
		if err != nil || len(buf) > 0 {
			t.pulse.disarm()
			return buf, err
		}
		select {
		case <-ch:
		case <-ctx.Done():
			t.pulse.disarm()
			return buf, ctx.Err()
		case <-b.stopped:
			t.pulse.disarm()
			return buf, ErrClosed
		}
		t.pulse.disarm()
	}
}

// fetch reads from the assigned partitions round-robin, starting after
// the partition served last time so a hot partition cannot starve the
// rest. The scan base is fixed for the whole pass — the cursor moves
// once, to just past the last partition that yielded — so every
// assigned partition is visited exactly once per pass.
func (c *Consumer) fetch(buf []Record) ([]Record, error) {
	t := c.group.topic
	n := len(c.assigned)
	base := c.rr
	for i := 0; i < n && len(buf) < cap(buf); i++ {
		idx := (base + i) % n
		part := c.assigned[idx]
		start := len(buf)
		var err error
		buf, err = t.partitions[part].read(c.positions[part], buf, t.broker.cfg.SegmentRecords)
		if errors.Is(err, ErrOffsetTrimmed) && c.gen != c.group.Generation() {
			// A rebalance moved part away and its new owner's commits
			// trimmed the log under this stale position: skip it; the
			// next refresh takes the new assignment.
			continue
		}
		if err != nil {
			return buf, fmt.Errorf("bus: consumer %d group %q: %w", c.id, c.group.name, err)
		}
		if got := len(buf) - start; got > 0 {
			c.positions[part] = buf[len(buf)-1].Offset + 1
			c.rr = (idx + 1) % n
			t.broker.Polled.Add(int64(got))
		}
	}
	return buf, nil
}

// Commit acknowledges records below upTo on the partition: the group's
// committed offset advances (never regresses), retention may trim, and
// blocked publishers re-check their backpressure window. Commits are
// fenced: after a rebalance moves the partition to another member, the
// old owner's commit fails with ErrNotAssigned.
func (c *Consumer) Commit(part int, upTo int64) error {
	g := c.group
	g.mu.Lock()
	if _, ok := g.members[c.id]; !ok {
		g.mu.Unlock()
		return ErrNotMember
	}
	if !slices.Contains(g.assignments[c.id], part) {
		g.mu.Unlock()
		return fmt.Errorf("%w: partition %d, member %d", ErrNotAssigned, part, c.id)
	}
	if hwm := g.topic.partitions[part].highWater(); upTo > hwm {
		g.mu.Unlock()
		return fmt.Errorf("%w: commit %d > high-water %d on partition %d", ErrOffsetOutOfRange, upTo, hwm, part)
	}
	if upTo > g.committed[part].Load() {
		g.committed[part].Store(upTo)
	}
	g.mu.Unlock()
	g.topic.maybeTrim(part)
	g.topic.wake()
	return nil
}

// CommitPolled commits every record the last Poll returned on its
// partition: the synchronous form of the at-least-once loop Poll →
// process → CommitPolled. It stops at the first fenced mark.
func (c *Consumer) CommitPolled(recs []Record) error {
	return eachRun(recs, c.Commit)
}

// Next commits done — the last poll's records, once processed — and
// polls the next batch: the at-least-once loop as one call. A mark
// fenced by a rebalance is dropped; its records go to the partition's
// new owner.
func (c *Consumer) Next(ctx context.Context, done, buf []Record) ([]Record, error) {
	_ = c.CommitPolled(done)
	return c.Poll(ctx, buf)
}

// eachRun calls commit with (partition, last offset + 1) for each run
// of same-partition records, stopping at the first error. Records
// arrive grouped by partition (fetch drains one partition before moving
// on), so committing the last offset seen per run is enough.
func eachRun(recs []Record, commit func(part int, upTo int64) error) error {
	for i := 0; i < len(recs); {
		j := i
		for j+1 < len(recs) && recs[j+1].Partition == recs[i].Partition {
			j++
		}
		if err := commit(recs[i].Partition, recs[j].Offset+1); err != nil {
			return err
		}
		i = j + 1
	}
	return nil
}

// Leave removes the member and rebalances; its uncommitted records are
// redelivered to the surviving members. Idempotent.
func (c *Consumer) Leave() {
	g := c.group
	g.mu.Lock()
	if _, ok := g.members[c.id]; ok {
		delete(g.members, c.id)
		g.rebalanceLocked()
	}
	g.mu.Unlock()
	g.topic.wake()
}
