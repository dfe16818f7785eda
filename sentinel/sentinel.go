// Package sentinel is the public face of the reproduction: an
// integrated system for scalable anomaly detection and visualization
// in power-generating assets (Jain et al., 2017).
//
// One assembly (assembly.go) wires every layer of Figure 1:
//
//   - a simulated fleet of power-generating assets (§II-A's synthetic
//     dataset: units × sensors at 1 Hz with injected faults),
//   - the storage tier — an HBase-like cluster under an OpenTSDB-like
//     TSD tier, fronted by the buffering reverse proxy (§III),
//   - the FDR anomaly detector — offline training (covariance and its
//     eigendecomposition per unit), online evaluation writing flags
//     back to storage (§IV),
//   - and the web visualization (§V).
//
// There is one detection loop (detector.go). DetectorPool.score is the
// only code that turns observation rows into stored flags: primary
// detector, flag write-back that parks on a transient storage fault,
// flag-feed publish, shadow offer, counters. Pool workers assemble its
// rows from bus records — the streaming path every topology runs;
// System.Detect feeds it a stored range read back from the TSDB. Nothing
// else scores.
//
// A Node runs the tiers of the roles it carries and reaches the rest of
// a cluster over rpc (node.go; cmd/sentineld is the daemon). A System
// is the node that carries all four roles and has no peers, plus the
// simulated fleet and the offline trainer. Minimal use:
//
//	sys, _ := sentinel.New(sentinel.Config{StorageNodes: 5, Units: 10, SensorsPerUnit: 50})
//	defer sys.Close()
//	sys.IngestRange(0, 120)           // stream two minutes of data
//	sys.TrainFromTSDB(0, 100, true)   // fit per-unit models
//	flags, _ := sys.Detect(100, 20)   // flag anomalies, write back
//	h, tail := sys.Gateway(120, sentinel.GatewayConfig{})
//	defer tail.Close()
//	http.ListenAndServe(":8080", h) // serve the control center
package sentinel

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/fdr"
	"repro/internal/ingest"
	"repro/internal/resilience"
	"repro/internal/simdata"
	"repro/internal/tsdb"
)

// Bus topic and consumer-group names used by the ingestion pipeline.
const (
	// TopicEnergy carries ingest.UnitBatch records keyed by unit id.
	TopicEnergy = "energy"
	// TopicAnomalies carries core.Anomaly records, published by
	// detector workers as they write flags — the feed behind the
	// gateway's SSE endpoint.
	TopicAnomalies = "anomalies"
	// GroupStorage is the consumer group writing raw samples through
	// the proxy into the TSD tier.
	GroupStorage = "storage"
	// GroupDetectors is the consumer group evaluating samples online.
	GroupDetectors = "detectors"
	// GroupStream prefixes the consumer groups anomaly tails drain
	// TopicAnomalies with, one group per tail (see NewAnomalyTail).
	GroupStream = "stream"
)

// Config sizes a System. Zero values take the documented defaults.
type Config struct {
	// StorageNodes is the number of HBase region servers; one TSD
	// daemon runs per node, as in the paper's deployment (default 3).
	StorageNodes int
	// SaltBuckets is the row-key salting width; defaults to
	// StorageNodes (one pre-split region per node). Set to -1 to
	// disable salting (the §III-B hotspot baseline).
	SaltBuckets int

	// Units and SensorsPerUnit shape the simulated fleet (defaults
	// 10 × 50; the paper's full dataset is 100 × 1000).
	Units          int
	SensorsPerUnit int
	// Seed drives every synthetic draw (default 42).
	Seed uint64
	// FaultFraction and FaultOnset control fault injection (defaults
	// 0.3 and 600; see simdata.Config).
	FaultFraction float64
	FaultOnset    int64
	// FaultSensors, DriftPerStep and ShiftSigma shape the injected
	// faults (zero values take simdata's defaults).
	FaultSensors int
	DriftPerStep float64
	ShiftSigma   float64

	// Level is the FDR target for flagging (default 0.05); Procedure
	// the correction (default Benjamini–Hochberg).
	Level     float64
	Procedure fdr.Procedure

	// PerNodeRate, when > 0, emulates the per-node service ceiling in
	// samples/second (the Figure-2 hardware calibration).
	PerNodeRate float64
	// RSQueueCap / CrashOnOverflow pass through to the region servers
	// for the backpressure experiments.
	RSQueueCap      int
	CrashOnOverflow int64

	// ProxyMaxRetries bounds delivery attempts per batch (0 takes the
	// proxy default of 8; negative retries without bound until
	// shutdown — the zero-loss setting the chaos soak runs with).
	ProxyMaxRetries int
	// Breaker tunes the per-TSD circuit breakers shared by the
	// ingestion proxy and the gateway's query engine (zero fields take
	// resilience defaults: trip after 5 consecutive failures, 1s
	// cooldown, 2 probe successes to close).
	Breaker resilience.BreakerConfig

	// Partitions is the commit-log partition count for the ingestion
	// topic (default max(4, StorageNodes)); units are keyed onto
	// partitions, so it caps useful detector-worker fan-out.
	Partitions int
	// StorageWriters sizes the consumer group draining the bus into
	// the proxy (default 4).
	StorageWriters int
	// DetectorWorkers sizes the streaming detection pool started by
	// StartDetectors when its argument is 0 (default 2).
	DetectorWorkers int
	// BusBuffer bounds each partition's uncommitted window in records
	// before Publish blocks (default 1024; negative disables).
	BusBuffer int

	// SealAfter is how many fleet-seconds behind the ingest frontier a
	// storage row must fall before a compaction pass seals it into the
	// compressed block tier (default one row span, 3600 — a row seals
	// as soon as its hour has closed).
	SealAfter int64
	// CompactEvery starts the background compactor — each pass seals
	// closed rows, spills resident blocks over budget to HDFS, and
	// enforces retention — at this cadence. Zero leaves maintenance
	// manual: call System.CompactNow.
	CompactEvery time.Duration
	// RawTTL drops sealed raw blocks older than this many fleet-seconds
	// behind the ingest frontier (rollups survive, so wide dashboards
	// still render); RollupTTL is the final expiry of rollups too. Zero
	// keeps data forever.
	RawTTL    int64
	RollupTTL int64
	// HotBlockBytes bounds resident compressed payload before sealed
	// blocks spill to the HDFS tier (default 64 MiB; negative spills
	// every sealed block).
	HotBlockBytes int64

	// PrimaryDetector is the registered family the detector pool
	// evaluates and emits flags from (default "mgd", the trained
	// MGD+FDR evaluator — the behavior predating the detector tier).
	PrimaryDetector string
	// ShadowDetectors run asynchronously beside the primary on the
	// same batches, counting row-level agreements and disagreements
	// without emitting flags. A slow shadow never backpressures the
	// primary path: batches it cannot keep up with are shed (counted).
	ShadowDetectors []string
	// ShadowBuffer bounds the queue of batches waiting for the shadow
	// runner before shedding begins (default 64).
	ShadowBuffer int
}

func (c Config) withDefaults() Config {
	if c.StorageNodes <= 0 {
		c.StorageNodes = 3
	}
	if c.SaltBuckets == 0 {
		c.SaltBuckets = c.StorageNodes
	}
	if c.SaltBuckets < 0 {
		c.SaltBuckets = 0
	}
	if c.Units <= 0 {
		c.Units = 10
	}
	if c.SensorsPerUnit <= 0 {
		c.SensorsPerUnit = 50
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Level <= 0 || c.Level >= 1 {
		c.Level = 0.05
	}
	if c.Procedure == fdr.Uncorrected {
		c.Procedure = fdr.BH
	}
	if c.Partitions <= 0 {
		c.Partitions = c.StorageNodes
		if c.Partitions < 4 {
			c.Partitions = 4
		}
	}
	if c.StorageWriters <= 0 {
		c.StorageWriters = 4
	}
	if c.DetectorWorkers <= 0 {
		c.DetectorWorkers = 2
	}
	if c.PrimaryDetector == "" {
		c.PrimaryDetector = "mgd"
	}
	if c.ShadowBuffer <= 0 {
		c.ShadowBuffer = 64
	}
	return c
}

// System is a running deployment of the full architecture in one
// process: the Node that carries every role and has no peers, plus the
// simulated fleet it trains on and ingests.
type System struct {
	*Node

	Fleet *simdata.Fleet

	// feeder is the worker-less pool Detect feeds, registered with the
	// node so its work shows on the node's metrics and detector report.
	feeder *DetectorPool
}

// New boots a System: the bus and store tiers up, detection and the
// gateway attached on demand (StartDetectors, Gateway).
func New(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	node, err := startNode(NodeConfig{Name: "local", Roles: allRoles}, cfg)
	if err != nil {
		return nil, err
	}
	sys := &System{
		Node: node,
		Fleet: simdata.NewFleet(simdata.Config{
			Units:          cfg.Units,
			SensorsPerUnit: cfg.SensorsPerUnit,
			Seed:           cfg.Seed,
			FaultFraction:  cfg.FaultFraction,
			FaultOnset:     cfg.FaultOnset,
			FaultSensors:   cfg.FaultSensors,
			DriftPerStep:   cfg.DriftPerStep,
			ShiftSigma:     cfg.ShiftSigma,
		}),
	}
	sys.feeder = newScorer(node.detectorEnv(), nil)
	node.mu.Lock()
	node.pools = append(node.pools, sys.feeder)
	node.mu.Unlock()
	return sys, nil
}

// Config returns the effective configuration.
func (s *System) Config() Config { return s.tier }

// SetFaults installs (or, with nil, removes) one fault injector across
// every injection point of the system: the RPC fabric (operations
// "rpc/<addr>/<method>"), the commit log ("bus/publish/<topic>",
// "bus/fetch/<topic>"), the TSD tier below the fabric
// ("tsdb/put/<name>", "tsdb/query/<name>" — covering in-process
// writers too), and the proxy's submission edge ("proxy/submit").
// Runtime-toggleable: rules added or cleared on the injector take
// effect on the next operation.
func (s *System) SetFaults(f *faultinject.Injector) {
	s.Cluster.Network().SetFaults(f)
	s.Bus.SetFaults(f)
	s.TSDB.SetFaults(f)
	s.Proxy.SetFaults(f)
}

// Topic returns the ingestion commit-log topic (for replay tooling and
// custom consumers).
func (s *System) Topic() *bus.Topic { return s.Bus.Topic(TopicEnergy) }

// AnomalyTopic returns the flag-feed topic detector workers publish
// onto (the SSE tail's source). Workers publish only while a tail's
// consumer group is attached — a group-less topic is never trimmed, so
// feeding it with nobody consuming would retain flags forever.
func (s *System) AnomalyTopic() *bus.Topic { return s.Bus.Topic(TopicAnomalies) }

// IngestRange streams fleet time steps [from, from+steps) onto the
// commit log and waits until the storage consumer group has drained
// them through the proxy into the TSD tier — the synchronous contract
// the training and detection paths rely on. Detector pools consume the
// same records asynchronously.
func (s *System) IngestRange(from int64, steps int) (ingest.Stats, error) {
	driver := ingest.NewBusDriver(s.Fleet, s.topic(TopicEnergy), ingest.DriverConfig{})
	stats, err := driver.Run(from, steps)
	if err != nil {
		return stats, err
	}
	if err := s.storage.Sync(context.Background()); err != nil {
		return stats, fmt.Errorf("sentinel: drain storage group: %w", err)
	}
	s.Proxy.Flush()
	return stats, nil
}

// Units returns all unit ids.
func (s *System) Units() []int {
	units := make([]int, s.tier.Units)
	for i := range units {
		units[i] = i
	}
	return units
}

// TrainFromTSDB fits per-unit models from data previously ingested
// into storage over [from, from+count), the paper's offline batch path
// (Spark reading the stored streams). Models are cached to HDFS.
func (s *System) TrainFromTSDB(from int64, count int, concurrent bool) error {
	src := &tsdb.Source{
		TSD:        s.TSDB.TSDs()[0],
		Sensors:    s.tier.SensorsPerUnit,
		TrainFrom:  from,
		TrainCount: count,
	}
	_, err := core.TrainFleet(s.Units(), src, s.Catalog, concurrent)
	return err
}

// TrainFromFleet fits models directly from the generator (bypassing
// storage), useful when the training range was not ingested.
func (s *System) TrainFromFleet(from int64, count int, concurrent bool) error {
	src := core.WindowFunc(func(unit int) ([][]float64, error) {
		return s.Fleet.UnitWindow(unit, from, count), nil
	})
	_, err := core.TrainFleet(s.Units(), src, s.Catalog, concurrent)
	return err
}

// Detect scores every unit of the fleet over [from, from+count) from
// stored observations (the bus trims to its slowest group's commit, so
// a stored range cannot be replayed from the log) through the scorer
// the streaming pools run — see the package doc — with units spread
// over DetectorWorkers goroutines as partitions are over pool workers.
// It returns the flags it stored, ordered by unit, timestamp, sensor.
//
// Every unit's detector is built before any row is scored, so under
// "mgd" a unit without a model fails the call with core.ErrNotTrained
// and nothing written; model-free families need no catalog. Detectors
// are built afresh on each call: streaming families start from warm-up,
// as on a new owner after a rebalance.
func (s *System) Detect(from int64, count int) ([]core.Anomaly, error) {
	src := &tsdb.Source{TSD: s.TSDB.TSDs()[0], Sensors: s.tier.SensorsPerUnit}
	scratch := make([]detectorScratch, min(s.tier.DetectorWorkers, s.tier.Units))
	for u := 0; u < s.tier.Units; u++ {
		if _, err := s.feeder.detector(&scratch[u%len(scratch)], u); err != nil {
			return nil, err
		}
	}
	errs := make([]error, len(scratch))
	var wg sync.WaitGroup
	for w := range scratch {
		sc := &scratch[w]
		sc.keep = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := w; u < s.tier.Units && errs[w] == nil; u += len(scratch) {
				rows, ts, err := src.Observations(u, from, count)
				if err != nil {
					errs[w] = fmt.Errorf("sentinel: read unit %d window: %w", u, err)
					break
				}
				errs[w] = s.feeder.score(s.feeder.ctx, u, rows, ts, sc)
			}
		}()
	}
	wg.Wait()
	var flags []core.Anomaly
	for w := range scratch {
		flags = append(flags, scratch[w].stored...)
	}
	slices.SortFunc(flags, func(a, b core.Anomaly) int {
		return cmp.Or(cmp.Compare(a.Unit, b.Unit), cmp.Compare(a.Timestamp, b.Timestamp), cmp.Compare(a.Sensor, b.Sensor))
	})
	return flags, errors.Join(errs...)
}
