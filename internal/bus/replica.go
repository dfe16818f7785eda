package bus

// replica.go holds the primitives a follower applies a replicate with
// (service.go): exact-offset log appends, then the unfenced commits the
// same message carries, which also drive the follower's trimming.
// Neither is meant for application code — producers publish, consumers
// commit; replication copies the results.

import (
	"errors"
	"fmt"
)

// ErrReplicaGap marks a replicated append whose offset is ahead of the
// local high-water mark: records in between are missing and must be
// backfilled first.
var ErrReplicaGap = errors.New("bus: replica log gap")

// ReplicaAppend applies one replicated record at an exact offset,
// bypassing backpressure (the leader already enforced it). A record at
// or below the local high-water mark is a duplicate and is absorbed
// silently; an offset ahead of it fails with ErrReplicaGap and returns
// the local high-water mark so the leader can backfill from there.
func (t *Topic) ReplicaAppend(part int, offset int64, key uint64, value any) (int64, error) {
	if part < 0 || part >= len(t.partitions) {
		return 0, fmt.Errorf("bus: no partition %d in topic %q", part, t.name)
	}
	hwm, ok := t.partitions[part].appendAt(offset, key, value, t.broker.cfg.SegmentRecords)
	if !ok {
		return hwm, fmt.Errorf("%w: offset %d > high-water %d on partition %d of %q",
			ErrReplicaGap, offset, hwm, part, t.name)
	}
	t.wake()
	return hwm, nil
}

// appendAt appends rec exactly at offset. Below-hwm offsets are
// duplicates (ok, no-op); above-hwm offsets are gaps (not ok). Returns
// the resulting high-water mark.
func (p *partition) appendAt(offset int64, key uint64, value any, segSize int) (int64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if offset < p.hwm {
		return p.hwm, true
	}
	if offset > p.hwm {
		return p.hwm, false
	}
	if len(p.segs) == 0 || len(p.segs[len(p.segs)-1].recs) == segSize {
		p.segs = append(p.segs, &segment{base: p.hwm, recs: make([]Record, 0, segSize)})
	}
	s := p.segs[len(p.segs)-1]
	s.recs = append(s.recs, Record{Partition: p.id, Offset: p.hwm, Key: key, Value: value})
	p.hwm++
	return p.hwm, true
}

// restartReplica empties a follower's partition whose log ends below
// offset and starts it there, at the leader's low-water mark: the leader
// can no longer backfill what lies below, and every group has committed
// it.
func (t *Topic) restartReplica(part int, offset int64) {
	if part < 0 || part >= len(t.partitions) {
		return
	}
	p := t.partitions[part]
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.hwm >= offset {
		return
	}
	clear(p.segs)
	p.segs = p.segs[:0]
	p.low, p.hwm = offset, offset
}

// ForceCommit mirrors a committed offset onto this (follower) group
// without membership fencing — the coordinator already fenced the
// originating commit. Offsets never regress.
func (g *Group) ForceCommit(part int, upTo int64) {
	if part < 0 || part >= len(g.committed) {
		return
	}
	for {
		cur := g.committed[part].Load()
		if upTo <= cur {
			return
		}
		if g.committed[part].CompareAndSwap(cur, upTo) {
			break
		}
	}
	g.topic.maybeTrim(part)
	g.topic.wake()
}
