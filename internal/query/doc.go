// Package query is the read/serving tier between the visualization
// frontend and the TSD storage tier — the third tier of the paper's
// architecture to get the scale treatment (evaluation and ingestion
// came first). One Engine serves every topology: one store group in
// process, or every store node of a cluster over rpc. It keeps the §V
// control center interactive under heavy traffic with three
// mechanisms:
//
//   - Scatter-gather. Within each store group a query's time range is
//     cut on row-hour boundaries (tsdb.RowSeconds, the span of one HBase
//     row) into min(TSDs, row-hours spanned) contiguous shards, one per
//     TSD daemon, so no row-hour is scanned or decoded by two shards of
//     one query, and fanned out over the RPC fabric as pipelined futures
//     under the caller's deadline. Shard failures fail over to the store's other daemons;
//     a shard every daemon rejects fails the query. Stores partition the
//     fleet by series, so results merge by series identity (samples in
//     timestamp order, deduplicated only for a series two stores hold),
//     and a metric is unknown only when every store says so.
//
//   - A window cache. Results are cached in an LRU keyed on
//     (metric, canonical tags, window, downsample spec, render bound).
//     Concurrent identical queries collapse onto one in-flight fetch
//     (singleflight), and entries are invalidated by the write
//     watermarks the TSD tier keeps per (metric, row-hour) and bumps on
//     every put, summed over the stores — read in process, or asked of a
//     remote store's TSDs with one "watermark" rpc per store, whose
//     payload is the window as a *tsdb.QueryRequest — so a cached window
//     is served only while nothing has been written into the row-hours
//     it overlaps since it was filled (and no retention drop bumped the
//     metric's epoch). A write into the live hour leaves windows over
//     sealed hours cached.
//     A store that cannot answer makes the read a miss; with ServeStale
//     a failing fetch then answers the stale window, marked degraded.
//     The in-process hit path performs zero heap allocations (pinned in
//     PINS). An entry also keeps its window's encoded bytes, one slot
//     per Format, filled by the first QueryEncoded reader with the
//     caller's Encoder and dropped with the entry, so a window is
//     encoded once per version however often it is read.
//
//   - Bounded rendering. Largest-triangle-three-buckets (LTTB)
//     downsampling caps a series at Query.MaxPoints visually
//     representative samples, composed after the TSD tier's own
//     fixed-window aggregation, so a sparkline or /api/series payload
//     stays bounded no matter how wide the requested window is. It is
//     strictly a rendering bound, requested per query: queries that
//     count or rank samples (fleet anomaly totals, top-N severity)
//     leave MaxPoints 0 and stay exact.
//
// Returned series and bytes are shared with the cache and other
// callers: treat them as read-only.
package query
