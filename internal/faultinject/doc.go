// Package faultinject is the chaos fabric: a composable, deterministic,
// runtime-toggleable fault layer wrapped around the system's internal
// boundaries — the rpc client/server edge, bus publish and consumer
// fetch, tsdb/proxy writes, and HDFS file writes.
//
// An Injector holds named Rules. Each rule matches operations by
// prefix ("rpc/tsd/", "bus/publish/", "tsdb/put/", "proxy/submit",
// "hdfs/write/") and injects some combination of added latency, a
// probabilistic error (ErrInjected), a probabilistic drop (ErrDropped —
// at the rpc layer the call simply never resolves, like a lost packet),
// or a stall that blocks the operation until the rule is cleared. Rules are installed
// with Set and removed with Clear/Reset at runtime, so a chaos scenario
// can turn fault phases on and off mid-run; with no active rules the
// decision path is a single atomic load.
//
// Randomness is a seeded splitmix64 stream and rules are evaluated in
// sorted name order, so a given seed yields a reproducible fault
// sequence. Schedule sequences timed events (crash, restart, rule
// toggles) for scenario runners like cmd/harness's chaos scenario.
//
// Instrumented components accept an Injector via SetFaults and consult
// it with Decide (non-blocking decision, used by rpc's asynchronous
// send path) or Do (decide + apply latency/stall, used by blocking
// boundaries). A nil *Injector is inert, so production paths pay
// nothing when chaos is off.
package faultinject
