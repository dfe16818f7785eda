package bus

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Topic is a named, partitioned commit log.
type Topic struct {
	broker     *Broker
	name       string
	partitions []*partition

	mu     sync.RWMutex
	groups map[string]*Group
}

// Name returns the topic name.
func (t *Topic) Name() string { return t.name }

// Partitions returns the partition count.
func (t *Topic) Partitions() int { return len(t.partitions) }

// PartitionFor returns the partition a key routes to.
func (t *Topic) PartitionFor(key uint64) int {
	return int(key % uint64(len(t.partitions)))
}

// Publish appends value under key to the key's partition and returns
// the assigned record. It blocks while the partition's uncommitted
// window is full (bounded-buffer backpressure) until a consumer
// commits, ctx is done, or the broker leaves the running state.
func (t *Topic) Publish(ctx context.Context, key uint64, value any) (Record, error) {
	b := t.broker
	// An already-done ctx must not append: callers treat a nil error as
	// an acknowledged publish, so cancellation has to be honored on the
	// fast path too, not only while blocked on backpressure.
	if err := ctx.Err(); err != nil {
		return Record{}, err
	}
	if f := b.faults.Load(); f.Active() > 0 {
		if err := f.Do(ctx, "bus/publish/"+t.name); err != nil {
			return Record{}, err
		}
	}
	p := t.partitions[t.PartitionFor(key)]
	for {
		// The capacity limit is computed from the slowest group's
		// committed offset before taking the partition lock; commits
		// only advance, so a stale limit is merely stricter and the
		// bound is never overshot.
		rec, err := p.tryAppend(b, key, value, t.appendLimit(p))
		if err == errPartitionFull {
			ch := b.pulse.arm()
			if rec, err = p.tryAppend(b, key, value, t.appendLimit(p)); err == errPartitionFull {
				select {
				case <-ch:
					b.pulse.disarm()
					continue
				case <-ctx.Done():
					err = ctx.Err()
				case <-b.stopped:
					err = ErrClosed
				}
			}
			b.pulse.disarm()
		}
		if err != nil {
			return Record{}, err
		}
		b.Published.Inc()
		b.pulse.wake()
		return rec, nil
	}
}

// appendLimit returns the exclusive offset Publish may append up to on
// p: slowest committed offset plus the buffer. Unbounded when no
// groups are attached or backpressure is disabled.
func (t *Topic) appendLimit(p *partition) int64 {
	if t.broker.cfg.PartitionBuffer < 0 {
		return math.MaxInt64
	}
	minC, ok := t.minCommitted(p.id)
	if !ok {
		return math.MaxInt64
	}
	return minC + int64(t.broker.cfg.PartitionBuffer)
}

// minCommitted returns the slowest group's committed offset for the
// partition, and whether any group is attached.
func (t *Topic) minCommitted(part int) (int64, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.groups) == 0 {
		return 0, false
	}
	minC := int64(math.MaxInt64)
	for _, g := range t.groups {
		if c := g.committed[part].Load(); c < minC {
			minC = c
		}
	}
	return minC, true
}

// maybeTrim drops whole segments below every group's committed offset.
func (t *Topic) maybeTrim(part int) {
	minC, ok := t.minCommitted(part)
	if !ok {
		return
	}
	t.partitions[part].trim(minC, t.broker.cfg.SegmentRecords)
}

// ReadAt copies records from the partition starting at offset into
// buf's spare capacity (a fresh 64-record buffer when cap(buf) is 0)
// and returns the extended slice. It reads whatever is retained —
// committed or not — which is what replay tools want. Reading exactly
// at the high-water mark returns buf unchanged; past it returns
// ErrOffsetOutOfRange; below the low-water mark returns
// ErrOffsetTrimmed.
func (t *Topic) ReadAt(part int, offset int64, buf []Record) ([]Record, error) {
	if part < 0 || part >= len(t.partitions) {
		return buf, fmt.Errorf("bus: no partition %d in topic %q", part, t.name)
	}
	return t.partitions[part].read(offset, buf, t.broker.cfg.SegmentRecords)
}

// HighWater returns the partition's next-to-be-assigned offset.
func (t *Topic) HighWater(part int) int64 { return t.partitions[part].highWater() }

// LowWater returns the oldest retained offset.
func (t *Topic) LowWater(part int) int64 { return t.partitions[part].lowWater() }

// HasGroups reports whether any consumer group is attached. Producers
// of best-effort feeds use it to skip publishing entirely when nobody
// consumes: a group-less topic is never trimmed (trimming is driven by
// committed offsets), so feeding one forever would grow without bound.
func (t *Topic) HasGroups() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.groups) > 0
}

// groupList snapshots the attached groups.
func (t *Topic) groupList() []*Group {
	t.mu.RLock()
	defer t.mu.RUnlock()
	gs := make([]*Group, 0, len(t.groups))
	for _, g := range t.groups {
		gs = append(gs, g)
	}
	return gs
}

// partition is one append-only log: a list of fixed-size segments.
// Because segments fill completely before a new one opens and trimming
// drops only whole segments, every base offset is a multiple of the
// segment size and offset→segment lookup is O(1).
type partition struct {
	id   int
	mu   sync.Mutex
	segs []*segment
	low  int64 // oldest retained offset
	hwm  int64 // next offset to assign
}

type segment struct {
	base int64
	recs []Record
}

// errPartitionFull is tryAppend's answer at the limit: wait for a commit.
var errPartitionFull = errors.New("bus: partition full")

// tryAppend appends unless the broker has left the running state or the
// partition has reached limit (exclusive). The state is read under the
// partition lock, where Group.Lag reads the high-water mark: an append
// Drain's lag check did not see finds the broker already draining, so
// Drain never returns with a record nobody will consume.
func (p *partition) tryAppend(b *Broker, key uint64, value any, limit int64) (Record, error) {
	segSize := b.cfg.SegmentRecords
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := b.publishable(); err != nil {
		return Record{}, err
	}
	if p.hwm >= limit {
		return Record{}, errPartitionFull
	}
	if len(p.segs) == 0 || len(p.segs[len(p.segs)-1].recs) == segSize {
		p.segs = append(p.segs, &segment{base: p.hwm, recs: make([]Record, 0, segSize)})
	}
	rec := Record{Partition: p.id, Offset: p.hwm, Key: key, Value: value}
	s := p.segs[len(p.segs)-1]
	s.recs = append(s.recs, rec)
	p.hwm++
	return rec, nil
}

// read appends retained records from offset into buf up to its cap.
func (p *partition) read(offset int64, buf []Record, segSize int) ([]Record, error) {
	if cap(buf) == len(buf) {
		grown := make([]Record, len(buf), len(buf)+defaultPollRecords)
		copy(grown, buf)
		buf = grown
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if offset < p.low {
		return buf, fmt.Errorf("%w: offset %d < low-water %d on partition %d", ErrOffsetTrimmed, offset, p.low, p.id)
	}
	if offset > p.hwm {
		return buf, fmt.Errorf("%w: offset %d > high-water %d on partition %d", ErrOffsetOutOfRange, offset, p.hwm, p.id)
	}
	if len(p.segs) == 0 {
		return buf, nil
	}
	first := p.segs[0].base
	for offset < p.hwm && len(buf) < cap(buf) {
		s := p.segs[(offset-first)/int64(segSize)]
		for i := int(offset - s.base); i < len(s.recs) && len(buf) < cap(buf); i++ {
			buf = append(buf, s.recs[i])
			offset++
		}
	}
	return buf, nil
}

// trim drops whole segments wholly below minCommitted, keeping at
// least one so base alignment (and the open segment) survive.
func (p *partition) trim(minCommitted int64, segSize int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	drop := 0
	for drop < len(p.segs)-1 &&
		len(p.segs[drop].recs) == segSize &&
		p.segs[drop].base+int64(segSize) <= minCommitted {
		drop++
	}
	if drop == 0 {
		return
	}
	p.segs = append(p.segs[:0], p.segs[drop:]...)
	clear(p.segs[len(p.segs):cap(p.segs)][:drop])
	p.low = p.segs[0].base
}

func (p *partition) highWater() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hwm
}

func (p *partition) lowWater() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.low
}
