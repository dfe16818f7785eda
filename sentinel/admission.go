package sentinel

import (
	"repro/internal/admission"
)

// AdmissionSignals returns the node's standard overload signals for
// an admission controller (the second only where the store tier is
// local):
//
//   - storage consumer lag — records published but not yet durably
//     committed by the storage group, against lagLimit. Lag growing
//     toward the bus's buffered capacity is the earliest sign the
//     write path is saturating: once a partition's uncommitted window
//     fills, publishes block and ingest latency explodes. lagLimit 0
//     defaults to half the bus's total buffered capacity
//     (Partitions × BusBuffer / 2), so shedding starts while publish
//     is still non-blocking.
//   - ingestion proxy queue depth against its buffer, catching a
//     stalled downstream before the bus signal moves.
func (n *Node) AdmissionSignals(lagLimit int64) []admission.Signal {
	if lagLimit <= 0 {
		buf := n.tier.BusBuffer
		if buf <= 0 {
			buf = 1024 // the bus package default (unbounded gets the same budget)
		}
		lagLimit = int64(n.tier.Partitions) * int64(buf) / 2
	}
	signals := []admission.Signal{
		{Name: "storage_lag", Load: n.topic(TopicEnergy).Group(GroupStorage).Lag, Limit: lagLimit},
	}
	if n.Proxy != nil {
		signals = append(signals, admission.Signal{Name: "proxy_queue", Load: n.Proxy.QueueDepth.Value, Limit: int64(n.Proxy.Buffer())})
	}
	return signals
}

// NewAdmissionController builds an adaptive overload controller wired
// to the node's load signals (AdmissionSignals). lagLimit is the
// storage-lag budget in records (0: half the bus's buffered capacity).
// Extra caller signals in cfg.Signals are kept; pass the result to
// GatewayConfig.Admission.
func (n *Node) NewAdmissionController(lagLimit int64, cfg admission.Config) *admission.Controller {
	cfg.Signals = append(cfg.Signals, n.AdmissionSignals(lagLimit)...)
	return admission.NewController(cfg)
}

// AutoscaleDetectors starts a consumer-lag-driven autoscaler over
// pool: when the detector group's lag crosses cfg.ScaleUpLag the pool
// grows a worker (new member, rebalance), and when it drains below
// cfg.ScaleDownLag the tail worker retires. ScaleUpLag 0 defaults to
// a quarter of the bus's buffered capacity; Max 0 defaults to the
// partition count (more members than partitions sit idle). Stop the
// returned autoscaler before the pool.
func (n *Node) AutoscaleDetectors(pool *DetectorPool, cfg admission.AutoscaleConfig) *admission.Autoscaler {
	if cfg.ScaleUpLag <= 0 {
		buf := n.tier.BusBuffer
		if buf <= 0 {
			buf = 1024
		}
		cfg.ScaleUpLag = int64(n.tier.Partitions) * int64(buf) / 4
	}
	if cfg.Max <= 0 {
		cfg.Max = n.tier.Partitions
	}
	a := admission.NewAutoscaler(pool.Group().Lag, pool.Workers, pool.Resize, cfg)
	a.Start()
	return a
}
