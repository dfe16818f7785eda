// Package resilience provides the shared failure-handling primitives
// used across the sentinel stack: capped exponential backoff with full
// jitter, a context-aware sleep, one park-and-resume loop, and
// per-target circuit breakers with half-open probing.
//
// The pieces compose:
//
//   - Backoff computes per-attempt delays. With Jitter set the delay is
//     drawn uniformly from [d/2, d] so synchronized clients desynchronize
//     instead of thundering-herding a recovering server.
//   - Sleep waits out a delay or the caller's context, whichever ends
//     first. Every retry loop in the tree is Backoff.Delay + Sleep
//     around its own attempt.
//   - Transient is the one classifier of faults worth waiting out in
//     place, and Park the one park-and-resume loop built on it: the
//     polls of bus.Consume, the one consumer loop (storage writers,
//     detector workers, the SSE tail), the writers' submissions and
//     the detectors' flag writes all park through it.
//   - Breaker is a closed → open → half-open circuit breaker. After
//     Cooldown an open breaker admits a bounded number of probe
//     requests; probe successes close it, a probe failure re-opens it.
//     Group keys breakers by target address and counts state
//     transitions for telemetry.
//
// All timing is injectable (Backoff.Rand, BreakerConfig.Now) so tests
// and the chaos soak stay deterministic.
package resilience
