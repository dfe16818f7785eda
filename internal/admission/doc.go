// Package admission is the gateway's one refusal point: it decides,
// per request, whether the system should do the work at all — before
// any of the work (body decode, timeout context) has been spent.
// Controller.Admit(class, identity) gives the one verdict: the
// adaptive overload shed first, then the identity's request budget.
//
// A per-client budget protects against abusive clients; it says
// nothing about whether the tiers *behind* the gateway are keeping up.
// The shed closes that loop: a Controller samples load signals — bus
// consumer lag (queue depth) and the gradient of ingest latency —
// folds them into one scalar pressure, and sheds traffic by priority
// class as pressure rises.
//
// # Pressure
//
// Pressure is the max over two families of signals:
//
//   - queue depth: each registered Signal reports load/limit (e.g. the
//     storage consumer group's lag over the configured lag budget).
//     Pressure 1.0 means the queue is at its budget.
//   - latency gradient: a fast EWMA of ingest latency over a slow one.
//     A ratio at Config.GradientLimit (default 3×) maps to pressure
//     1.0 — latency rising fast means saturation even before queues
//     show it.
//
// A controller with no Signals never sheds: without a queue to
// corroborate it, a latency gradient is not overload (a budget-only
// gateway — sentineld -rate — answers 429s and no 503).
//
// # Classes
//
// Every route is classified once, at registration: Ingest (sensor
// writes — the data the system exists to keep), Interactive (dashboard
// reads), Bulk (NDJSON exports, SSE backfill), or Exempt (health,
// readiness, metrics — never shed; operators need them most during an
// incident). Each class sheds at its own pressure threshold, lowest
// first:
//
//	Bulk        ≥ 0.5   cheap to retry, nobody is waiting on it
//	Interactive ≥ 0.75  a dashboard refresh can fail visibly
//	Ingest      ≥ 1.0   shed only to protect the tier itself
//
// A shed is a 503 with code "overloaded" and a Retry-After scaled by
// how far past the threshold pressure sits. It costs the server almost
// nothing: the decision is two atomic loads, taken before the request
// body is read.
//
// # Budget
//
// Config.RatePerSec and Burst are the request budget, the only place
// it is configured: every identity — a *validated* X-API-Key, else
// the remote IP; the gateway resolves it, never from an
// attacker-chosen header — owns one clock.TokenBucket of that shape.
// An identity whose bucket is empty gets 429 "rate_limited" with the
// time to its next token as Retry-After, whatever the class (ops
// routes spend budget too) and even when the system is idle; the
// refusal counts as RateLimited, not as a shed. The bucket table is
// bounded (4096 identities): at the cap, buckets idle long enough to
// have refilled are pruned, then arbitrary ones evicted — an evicted
// identity restarts full, the fail-open direction.
//
// # Autoscaling
//
// The same lag signal that sheds load also adds capacity: an
// Autoscaler watches a consumer group's lag and resizes the detector
// pool between Min and Max workers (see sentinel.System
// AutoscaleDetectors), so the detection tier grows into a backlog
// before shedding has to.
package admission
