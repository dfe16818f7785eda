// Package mllib is the detector tier of the architecture: the pluggable
// interface every anomaly-detection family implements, the registry
// that builds them by name, and the streaming families themselves.
//
// Detector is the pluggable interface the bus-fed batch path scores
// through: DetectBatchInto consumes a batch of observation rows and
// appends flags into a caller-owned Detections buffer, so a warmed
// detector runs allocation-free (the BenchmarkDetectorBatch* pins).
// One instance serves one unit and is called by one goroutine at a
// time — the unit-keyed bus partitions guarantee exactly that.
//
// Families register themselves by name (Register/New/Registered):
//
//   - "cusum": per-sensor two-sided CUSUM change-point charts —
//     small sustained shifts and drifts.
//   - "zscore": per-regime z-scores with an online load-regime
//     assignment — regime-conditional outliers.
//   - "ensemble": row-level voting over member families with
//     per-sensor score dedup; by default the paper's model beside the
//     two streaming charts (mgd+cusum+zscore, two votes to flag).
//   - "mgd": the paper's MGD+FDR evaluator over a trained per-unit
//     model, registered by internal/core (which imports this package
//     for the interface — the reason it lives here, below core, not
//     beside it).
//
// The sentinel detector pool runs one family as primary and any
// number of others in shadow mode (scored, counted, never emitted);
// internal/backtest scores every family against injected faults.
package mllib
