// Command sentineld is the daemon: one node of the pipeline, carrying
// one or more roles (see package sentinel's node runtime):
//
//	broker   bus replica + partition-group election candidate
//	store    HBase cluster + TSD tier + proxy + sealed block tier + storage writers
//	detect   streaming detector pool over the bus
//	gateway  web surface + coordination (ZooKeeper-like) service
//	all      the four of them
//
// Alone — no -peers — a node is the whole deployment. This is the
// ingestion daemon: OpenTSDB-compatible writes land on the commit-log
// bus, storage writers drain them through the buffering proxy into the
// TSDs, reads go through the cached scatter-gather tier:
//
//	sentineld -name solo -role all -http :4242
//
// With -peers it is one process of a cluster over the rpc fabric. A
// four-process cluster — one broker, two stores, and a combined
// detect+gateway node hosting coordination:
//
//	PEERS=broker=127.0.0.1:7401,store-1=127.0.0.1:7402,store-2=127.0.0.1:7403,dg=127.0.0.1:7404
//	sentineld -name broker  -role broker       -listen 127.0.0.1:7401 -peers $PEERS -zk-node dg -stores 2
//	sentineld -name store-1 -role store        -listen 127.0.0.1:7402 -peers $PEERS -zk-node dg -stores 2
//	sentineld -name store-2 -role store        -listen 127.0.0.1:7403 -peers $PEERS -zk-node dg -stores 2
//	sentineld -name dg -role detect,gateway -listen 127.0.0.1:7404 -peers $PEERS -stores 2 -http 127.0.0.1:8080
//
// Both are the same assembly; every node of a cluster must agree on
// -partitions, -units and -sensors. -http serves the /api/v1 surface on
// every node: ingest, query, the SSE anomaly stream and the HTML
// control center need the gateway role (503 without), the detector
// report the detect role; metrics, readiness, health and the cluster
// map answer everywhere. The storage-lifecycle flags (-seal-after,
// -compact-every, -raw-ttl, -rollup-ttl, -spill-bytes) apply to every
// node with the store role. -rate and -api-keys configure the
// gateway's admission stage: each client — a listed X-API-Key, else
// the remote IP — gets -rate requests/s with a burst of twice that,
// and is answered 429 + Retry-After (the time to its next token) past
// it; refusals count as admission_rate_limited on /api/v1/metrics.
//
// SIGINT/SIGTERM shut the node down gracefully within -drain: the
// listener stops (ending SSE streams), the bus drains into storage,
// the storage writers stop, the proxy drains into the TSDs, then the
// tiers close and the membership record is deleted.
package main
