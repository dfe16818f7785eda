// Package bus is an in-process partitioned commit log: the Kafka tier
// of the paper's architecture (Figure 1's pub/sub backbone between the
// sensor producers and the Spark/OpenTSDB consumers), scaled down to
// one process but preserving the structural properties that make the
// real thing the scalability joint of the pipeline:
//
//   - Topics split into N partitions; records are routed by key
//     (unit id in the ingestion pipeline) so one unit's samples stay
//     ordered within a partition while the fleet spreads across all
//     of them.
//   - Each partition is an append-only log of fixed-size segments.
//     Records are addressed by offset; any retained offset can be
//     re-read, which is what makes replay after a consumer crash a
//     read, not a recovery protocol.
//   - Consumer groups own committed offsets per partition. Partitions
//     are range-assigned across the group's members and reassigned
//     (with a generation bump) when members join or leave. A rebalance
//     resets every member to its group's committed offsets, so records
//     polled but not yet committed are redelivered — delivery is
//     at-least-once, never lossy.
//   - Publish applies bounded-buffer backpressure: once a partition's
//     uncommitted window (high-water mark minus the slowest group's
//     committed offset) reaches the configured buffer, producers block
//     until consumers commit, propagating pressure to the data source
//     exactly like the §III-B reverse proxy does for storage writes.
//   - Segments wholly below every group's committed offset are
//     trimmed, bounding memory to the uncommitted window plus one
//     segment per partition.
//
// Shutdown follows the repo's drain discipline (running → draining →
// stopped): Drain turns new publishes away with ErrDraining while
// consumers keep polling and committing until every group has caught
// up to the high-water marks; Close stops everything, waking blocked
// publishers and pollers with ErrClosed.
//
// # The cluster service layer
//
// On top of the in-process Broker, three files grow the bus into a
// multi-process tier over the internal/rpc fabric:
//
//   - iface.go defines TopicHandle/GroupHandle/ConsumerHandle, the
//     seams every pipeline stage (publishers, storage writers,
//     detector pools, SSE tails) consumes, so a stage cannot tell an
//     in-process Topic from a remote one.
//   - service.go + replica.go export a Broker as a bus service:
//     Publish/Fetch/Commit/Rebalance rpc handlers, partition-group
//     leadership elected through internal/zk (zk.Election), and
//     synchronous replication of every accepted publish to the
//     registered follower replicas — all at once — before the ack,
//     which is what lets a follower be promoted on leader death
//     without losing an acked record. The service heartbeats an
//     ephemeral membership record and evicts stale replicas. The
//     leader's replica set is cached until a zk children watch on the
//     registry fires — a replica joined or its registration expired —
//     not re-read on a timer. A consumer's fetch is a long-poll that
//     waits off the service's rpc worker pool (rpc.Deferred), so idle
//     consumers cost publishers nothing; a remote group's Sync parks
//     the same way, one sync call on the coordinator's Group.Sync per
//     half call budget instead of a lag read per retry delay.
//   - remote.go implements RemoteBus/RemoteTopic/RemoteGroup: clients
//     resolve the current partition-group leader through the
//     coordination service, retry publishes across a leadership
//     handover, and rejoin consumer groups after a failover
//     (committed offsets are mirrored onto followers alongside the
//     log, so group progress survives promotion).
//
// Record values are opaque on the clustered bus: encode once, decode
// per consumer. RemoteTopic.Publish encodes the value a single time
// into self-contained tagged bytes (rpc.EncodeValue); the leader's log,
// replication, backfill and fetch store and forward those bytes
// verbatim, so follower logs are byte-identical to the leader's; and
// RemoteConsumer.Poll decodes each record once, handing the consumer
// the same Go value an in-process topic would (*ingest.UnitBatch,
// core.Anomaly). The bytes are immutable once published. A publish is
// acknowledged with the record's partition, offset and key — not its
// value, which the producer already holds. The in-process Broker is
// untouched by any of this: a node without peers never encodes.
//
// The sentinel cluster runtime (package sentinel, cmd/sentineld) wires
// these together into broker/store/detect/gateway node roles.
package bus
