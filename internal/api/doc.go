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
//	RequestID → AccessLog → Recover → Admission → Timeout → Gzip → handler
//
// The order is load-bearing:
//
//   - RequestID is outermost so every layer below it — access lines,
//     panic logs, error envelopes — can name the request.
//   - AccessLog wraps Recover so a panicked request is still logged
//     and counted as a 500.
//   - Admission is the one cheap-reject layer and runs before any
//     per-request work is spent. A refused request never reads the
//     body and never allocates a timeout context — rejecting cheap and
//     early is what makes shedding protective rather than just another
//     cost.
//   - Timeout is inside it, so only requests that will actually run
//     pay for a deadline context.
//   - Gzip is innermost so everything outside it observes the true
//     status and byte counts.
//
// Streaming routes (the SSE tail) drop Timeout and Gzip — a tail
// lives for minutes by design, and its frames have to flush per
// event, not per gzip block — and instead respect the gateway's
// MaxStreams cap.
//
// # Admission
//
// When Config.Admission is set, one call decides whether a request is
// refused — admission.Controller.Admit(class, identity) — and one
// function (reject) writes every refusal, as the v1 error envelope
// {"error":{"code","message","status","retryAfterSeconds"}} with a
// Retry-After header:
//
//   - 503 "overloaded", Retry-After scaled by how far pressure sits
//     past the class's threshold: the overload shed. Every route is
//     classified at registration: writes are Ingest (shed last),
//     dashboard reads are Interactive, the SSE stream and NDJSON
//     exports are Bulk (shed first — /api/v1/query and the drill-downs
//     escalate from Interactive to Bulk when the client negotiates
//     NDJSON), and the ops routes (/metrics, /healthz, /readyz) are
//     Exempt: operators need them most while the system is melting. A
//     controller without load signals never sheds.
//   - 429 "rate_limited", Retry-After the time to the client's next
//     token: the request budget (admission.Config.RatePerSec and
//     Burst, and nowhere else). Every route spends it, ops routes
//     included. Counted as admission_rate_limited on /api/v1/metrics,
//     not as a shed.
//
// The SSE stream cap (MaxStreams) answers 503 "overloaded" through
// the same writer, and every other error body of the gateway is the
// same envelope.
//
// The identity a budget belongs to is the remote IP, unless the
// request presents an X-API-Key matching Config.APIKeys — only
// validated keys earn their own bucket. Unrecognized keys deliberately
// do NOT: the header is attacker-chosen, and keying on raw values
// would let any client mint a fresh full bucket per request by
// rotating keys.
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
// BenchmarkGatewayPutPath pins its allocs/op in PINS so a new
// middleware cannot silently tax ingestion, and BenchmarkGatewayPutRow
// holds a 50- and a 200-point row to the same number: the edge
// allocates per request, not per point. The wrappers the chain
// allocates per request (status recorder, gzip writer) are pooled, and
// so is the body buffer — pre-sized from Content-Length, bounded by
// Config.MaxBody (413 past it), returned to the pool when the handler
// ends. Every decoder therefore copies the strings its points keep.
//
// # Put body grammar
//
// A JSON put body is decoded in one pass by a scanner (putdecode.go)
// for exactly this grammar, with JSON whitespace allowed between any
// two tokens:
//
//	body     = envelope | array | point
//	envelope = { "points" : array }
//	array    = [ ] | [ point , … ]
//	point    = { } | { member , … }        members in any order, each at most once
//	member   = "metric" : string | "timestamp" : integer | "value" : number | "tags" : tags
//	tags     = { } | { string : string , … }   names unique
//	string   = " bytes 0x20–0x7F other than \ and " "
//	number   = the JSON number grammar; integer = a number without fraction or exponent
//
// A member left out keeps its zero value, and a timestamp or value
// that does not fit int64 / float64 rejects the request — both as
// encoding/json does. Whatever the scanner finds that is JSON but not
// this grammar — a string escape, a non-ASCII byte, null, a value of
// another type, a repeated, unknown or differently-cased member name,
// a second envelope member, a top-level scalar — makes it hand the
// whole body to the encoding/json route (v1.PutRequest, then
// ingest.ParseJSON), which is the only reader of those constructs.
// The decision is made from the body's bytes; there is no option.
// FuzzPutDecode holds the two routes to "both reject, or both accept
// identical points" on every body.
//
// Decoded points share what repeats: the bytes of a tags object key the
// process's one table of canonical tag maps (tsdb.TagSets: fixed
// capacity, no eviction; a set it has no room for decodes into a map
// of its own), and metric names are interned the same way
// (tsdb.Metrics). Text/plain bodies (telnet "put" lines) go through
// ingest.ParseLine, which interns into the same tables. Nothing
// downstream writes a decoded point's tags — see tsdb.Point.Tags.
//
// Whatever the format, every decoded point passes tsdb.Point.Validate
// before anything is published: a request either publishes all of its
// points or answers 400 and publishes none.
package api
