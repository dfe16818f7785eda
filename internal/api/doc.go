// Package api is the unified versioned gateway: the single web-facing
// surface of the architecture. The paper exposes ingestion, detection
// and visualization as one coherent service; this package is that
// front — every write, read, detection and ops route lives under
// /api/v1/*. sentinel.Node.Gateway mounts it on every node; routes
// whose dependency a node's roles do not provide answer 503.
//
// # Route table
//
//	POST /api/v1/points                              write (JSON or telnet lines)
//	GET  /api/v1/query                               raw series via the cached query tier
//	GET  /api/v1/fleet                               cursor-paginated unit summaries
//	GET  /api/v1/machines/{unit}                     per-machine view
//	GET  /api/v1/machines/{unit}/sensors/{sensor}    drill-down
//	GET  /api/v1/series                              drill-down (query-param spelling)
//	GET  /api/v1/anomalies/top                       severity ranking
//	GET  /api/v1/anomalies/stream                    SSE tail of detector flags
//	GET  /api/v1/detectors                           detector tier status (primary / shadows / ensemble)
//	GET  /api/v1/metrics                             telemetry exposition
//	GET  /healthz, /readyz (+ /api/v1 aliases)       liveness / readiness
//
// # Middleware chain
//
// Standard routes run, outermost first:
//
//	RequestID → AccessLog → Recover → Admission → RateLimit → ConcurrencyLimit → Timeout → Gzip → handler
//
// The order is load-bearing:
//
//   - RequestID is outermost so every layer below it — access lines,
//     panic logs, error envelopes — can name the request.
//   - AccessLog wraps Recover so a panicked request is still logged
//     and counted as a 500.
//   - The cheap-reject layers run before any per-request work is
//     spent, cheapest first: Admission (two atomic loads against the
//     overload controller), then RateLimit (one bucket under a
//     mutex), then ConcurrencyLimit (a channel slot). A shed or
//     limited request never reads the body, never allocates a timeout
//     context, and never takes a slot meant for real work — rejecting
//     cheap and early is what makes shedding protective rather than
//     just another cost.
//   - Timeout is inside the limiters: ConcurrencyLimit sheds rather
//     than queues (its slot take never blocks), so only requests that
//     will actually run pay for a deadline context.
//   - Gzip is innermost so everything outside it observes the true
//     status and byte counts.
//
// Streaming routes (the SSE tail) drop ConcurrencyLimit, Timeout and
// Gzip — a tail lives for minutes by design, must not occupy a
// request slot, and its frames have to flush per event, not per gzip
// block — and instead respect the gateway's MaxStreams cap.
//
// # Admission classes
//
// When Config.Admission is set, every route is classified at
// registration and gated on the adaptive overload controller
// (internal/admission): writes are Ingest (shed last), dashboard
// reads are Interactive, the SSE stream and NDJSON exports are Bulk
// (shed first — /api/v1/query and the drill-downs escalate from
// Interactive to Bulk when the client negotiates NDJSON), and the ops
// routes (/metrics, /healthz, /readyz) are Exempt: operators need
// them most while the system is melting. Sheds answer 503 with code
// "overloaded" and a pressure-scaled Retry-After; tenant-quota
// rejections answer 429 "rate_limited".
//
// Rejections are typed: the per-client token bucket answers 429 with
// Retry-After, shed load (concurrency or stream caps) answers 503
// with Retry-After, and every error body is the v1 error envelope
// {"error":{"code","message","status"}}.
//
// Rate-limit identity is the remote IP, unless the request presents an
// X-API-Key matching Config.APIKeys — only validated keys earn their
// own bucket. Unrecognized keys deliberately do NOT: the header is
// attacker-chosen, and keying on raw values would let any client mint
// a fresh full bucket per request by rotating keys.
//
// The per-route latency histograms AccessLog feeds are windowed
// (telemetry.Histogram.SetWindow): count and sum are cumulative, but
// only the most recent observations are retained, so a long-running
// daemon's memory and /metrics scrape cost stay bounded regardless of
// request volume.
//
// # Hot path
//
// POST /api/v1/points is the ingest edge and runs the full chain;
// BenchmarkGatewayPutPath pins its allocs/op in ALLOC_PINS so a new
// middleware cannot silently tax ingestion. The wrappers the chain
// allocates per request (status recorder, gzip writer) are pooled.
package api
