package bus

import "context"

// TopicHandle abstracts a partitioned commit log so pipeline stages
// (publishers, writer pools, detector pools, SSE tails) work
// identically against the in-process Broker and a remote bus service
// reached over rpc. LocalTopic adapts *Topic; RemoteTopic (remote.go)
// speaks to the elected partition leader in another process.
type TopicHandle interface {
	// Name returns the topic name.
	Name() string
	// Partitions returns the partition count.
	Partitions() int
	// Publish appends value under key and returns the assigned record
	// once it is durable (for a remote topic: replicated to every
	// registered replica).
	Publish(ctx context.Context, key uint64, value any) (Record, error)
	// HasGroups reports whether any consumer group is attached.
	HasGroups() bool
	// Group returns the named consumer group, attaching it on first
	// use.
	Group(name string) GroupHandle
}

// GroupHandle abstracts one consumer group on a topic.
type GroupHandle interface {
	// Name returns the group name.
	Name() string
	// Join adds a member and rebalances.
	Join() ConsumerHandle
	// SeekToEnd fast-forwards committed offsets to the high-water
	// marks.
	SeekToEnd()
	// Lag is records published but not yet committed by this group.
	Lag() int64
	// Sync blocks until the group has zero lag or ctx is done.
	Sync(ctx context.Context) error
	// Close detaches the group from the topic.
	Close()
}

// ConsumerHandle abstracts one group member: what Consume, the one
// consumer loop, calls. Implementations follow *Consumer's contract:
// not safe for concurrent use, except that Leave may be called from
// another goroutine.
type ConsumerHandle interface {
	// ID returns the member id (unique within the group and process).
	ID() int
	// Assigned returns the partitions owned as of the last Next.
	Assigned() []int
	// Next commits done — the records the last call returned, once
	// processed — and then polls, appending into buf; Next(ctx, nil,
	// buf) is a bare poll. A mark fenced by a rebalance is dropped and
	// its records are redelivered to the new owner. Commits only
	// advance, so a retry after an error may resend the same done; buf
	// must then not share done's backing array.
	Next(ctx context.Context, done, buf []Record) ([]Record, error)
	// CommitPolled commits recs — records Next returned — and returns
	// once the commit is acknowledged: nil only if every partition's
	// mark landed, ErrNotAssigned when one was fenced.
	CommitPolled(recs []Record) error
	// Leave removes the member and rebalances.
	Leave()
}

// LocalTopic adapts *Topic to TopicHandle.
type LocalTopic struct{ *Topic }

var _ TopicHandle = LocalTopic{}

// Group implements TopicHandle.
func (t LocalTopic) Group(name string) GroupHandle {
	return LocalGroup{t.Topic.Group(name)}
}

// LocalGroup adapts *Group to GroupHandle.
type LocalGroup struct{ *Group }

var _ GroupHandle = LocalGroup{}

// Join implements GroupHandle.
func (g LocalGroup) Join() ConsumerHandle { return g.Group.Join() }

var _ ConsumerHandle = (*Consumer)(nil)
