// The one assembly of the Figure-1 pipeline: a constructor, a metric
// registration and a ready-check list per tier, each written against
// the seams the tiers already share (bus.TopicHandle/GroupHandle,
// core.AnomalySink, *rpc.Network). New and StartNode call these and
// nothing else; which handle a tier receives follows from what the
// node can observe — has it peers, is the store tier local — never
// from an option (see node.go).
package sentinel

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"repro/internal/admission"
	"repro/internal/api"
	v1 "repro/internal/api/v1"
	"repro/internal/bus"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/hbase"
	"repro/internal/hdfs"
	"repro/internal/ingest"
	"repro/internal/mllib"
	"repro/internal/proxy"
	"repro/internal/query"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
	"repro/internal/viz"
)

// ---- bus tier ---------------------------------------------------------

// startBus brings up the commit log decoupling producers from the
// storage and detection tiers — the paper's reason for the Kafka tier:
// a slow detector never stalls storage writes. Brokers and stores hold
// partition logs; with peers they also stand in the leader elections,
// so killing the broker promotes a store and acked records survive
// (publishes replicate to every registered replica before acking).
func (n *Node) startBus() (err error) {
	cfg := n.cfg
	if cfg.has(RoleBroker) || cfg.has(RoleStore) {
		n.Bus = bus.New(bus.Config{Partitions: n.tier.Partitions, PartitionBuffer: n.tier.BusBuffer})
	}
	if !cfg.clustered() {
		return nil
	}
	if n.Bus != nil {
		n.BusSvc, err = bus.StartService(n.net, n.zkc, n.Bus, bus.ServiceConfig{Node: cfg.Name, Addr: "bus/" + cfg.Name})
		if err != nil {
			return fmt.Errorf("sentinel: %s: start bus service: %w", cfg.Name, err)
		}
	}
	n.rb = bus.NewRemoteBus(n.net, n.zkc, bus.RemoteBusConfig{Node: cfg.Name, Partitions: n.tier.Partitions})
	return nil
}

// topic hands a tier its handle on a bus topic: the elected leader's
// over rpc with peers, the local broker's without.
func (n *Node) topic(name string) bus.TopicHandle {
	if n.rb != nil {
		return n.rb.Topic(name)
	}
	return bus.LocalTopic{Topic: n.Bus.Topic(name)}
}

func (n *Node) registerBusMetrics(reg *telemetry.Registry) {
	if n.Bus != nil {
		reg.RegisterCounter("bus_published", &n.Bus.Published)
		reg.RegisterCounter("bus_polled", &n.Bus.Polled)
		reg.RegisterCounter("bus_rebalances", &n.Bus.Rebalances)
	}
	if !n.cfg.clustered() {
		return
	}
	reg.RegisterFunc("cluster_nodes", func() int64 {
		recs, err := n.clusterRecords()
		if err != nil {
			return -1
		}
		return int64(len(recs))
	})
	reg.RegisterFunc("cluster_partition_groups_led", func() int64 {
		if n.BusSvc == nil {
			return 0
		}
		return int64(n.BusSvc.PartitionsLed())
	})
	if n.BusSvc != nil {
		reg.RegisterCounter("cluster_promotions", &n.BusSvc.Promotions)
		reg.RegisterCounter("cluster_replicated", &n.BusSvc.Replicated)
		reg.RegisterCounter("cluster_member_evictions", &n.BusSvc.Evictions)
		reg.RegisterFunc("cluster_follower_lag", func() int64 {
			return n.BusSvc.FollowerLag([]string{TopicEnergy, TopicAnomalies})
		})
	}
}

// ---- store tier -------------------------------------------------------

// startStorage boots the store tier below the bus: HBase cluster, TSD
// deployment and table, the proxy behind the node's breakers, the
// sealed block tier and the model catalog on the tier's HDFS.
func (n *Node) startStorage() (err error) {
	t, name := n.tier, n.cfg.Name
	n.Cluster, err = hbase.NewCluster(hbase.Config{
		RegionServers:    t.StorageNodes,
		RSQueueCap:       t.RSQueueCap,
		CrashOnOverflow:  t.CrashOnOverflow,
		ServiceRatePerRS: t.PerNodeRate,
		Clock:            clock.Real{},
	})
	if err != nil {
		return fmt.Errorf("sentinel: %s: boot cluster: %w", name, err)
	}
	if n.TSDB, err = tsdb.NewDeployment(n.Cluster, t.StorageNodes, tsdb.TSDConfig{SaltBuckets: t.SaltBuckets}); err != nil {
		return fmt.Errorf("sentinel: %s: boot tsdb: %w", name, err)
	}
	if err = n.TSDB.CreateTable(); err != nil {
		return fmt.Errorf("sentinel: %s: create table: %w", name, err)
	}
	n.Proxy, err = proxy.New(n.Cluster.Network(), n.TSDB.Addrs(), proxy.Config{
		MaxRetries: t.ProxyMaxRetries,
		Breakers:   n.Breakers,
	})
	if err != nil {
		return fmt.Errorf("sentinel: %s: boot proxy: %w", name, err)
	}
	// Closed rows compact into Gorilla blocks with hot rollups, spilling
	// to the HDFS tier under the configured retention. The tier is
	// always attached so manual CompactNow passes work out of the box;
	// the loop only runs when a cadence is configured.
	n.Compactor = tsdb.NewCompactor(n.TSDB,
		tsdb.BlockStoreConfig{HotBlockBytes: t.HotBlockBytes},
		tsdb.CompactorConfig{
			Interval:  t.CompactEvery,
			SealAfter: t.SealAfter,
			Retention: tsdb.RetentionPolicy{RawTTL: t.RawTTL, RollupTTL: t.RollupTTL},
		})
	n.Blocks = n.Compactor.Store()
	if t.CompactEvery > 0 {
		n.Compactor.Start()
	}
	n.Catalog = &core.ModelCatalog{Store: &hdfs.Store{C: n.Cluster.DFS(), Prefix: "/detector/"}}
	return nil
}

// startWriters is the store tier above the bus: the storage consumer
// group draining the energy topic through the proxy into the TSDs.
func (n *Node) startWriters() {
	n.storage = n.topic(TopicEnergy).Group(GroupStorage)
	n.Writers = ingest.StartStorageWriters(n.ctx, n.storage, n.Proxy, n.tier.StorageWriters)
}

// CompactNow runs one storage-tier maintenance pass synchronously:
// rows whose hour has closed (per SealAfter) seal into compressed
// blocks, blocks over the resident budget spill to HDFS, and retention
// TTLs are enforced. Safe alongside the background compactor; useful
// in tests and batch tooling that want the tier advanced
// deterministically.
func (n *Node) CompactNow(ctx context.Context) error { return n.Compactor.RunOnce(ctx) }

func (n *Node) registerStoreMetrics(reg *telemetry.Registry) {
	reg.RegisterFunc("storage_lag", n.storage.Lag)
	reg.RegisterCounter("writer_delivered", &n.Writers.Delivered)
	reg.RegisterCounter("writer_failures", &n.Writers.Failures)
	reg.RegisterCounter("writer_parks", &n.Writers.Parks)
	reg.RegisterGauge("writer_parked", &n.Writers.Parked)
	reg.RegisterCounter("proxy_accepted", &n.Proxy.Accepted)
	reg.RegisterCounter("proxy_delivered", &n.Proxy.Delivered)
	reg.RegisterCounter("proxy_dropped", &n.Proxy.Dropped)
	reg.RegisterCounter("proxy_retries", &n.Proxy.Retries)
	reg.RegisterGauge("proxy_queue_depth", &n.Proxy.QueueDepth)
	reg.RegisterFunc("hbase_memstore_bytes", n.Cluster.MemstoreBytes)
	reg.RegisterFunc("hbase_wal_bytes", n.Cluster.WALBytes)
	reg.RegisterFunc("hbase_storefile_bytes", n.Cluster.StoreFileBytes)
	reg.RegisterFunc("tsdb_points_written", n.TSDB.PointsWritten)
	reg.RegisterFunc("tsdb_queries_served", n.TSDB.QueriesServed)
	reg.RegisterCounter("blocks_sealed", &n.Blocks.BlocksSealed)
	reg.RegisterCounter("samples_sealed", &n.Blocks.SamplesSealed)
	reg.RegisterCounter("bytes_sealed", &n.Blocks.BytesSealed)
	reg.RegisterCounter("blocks_spilled", &n.Blocks.BlocksSpilled)
	reg.RegisterCounter("spill_reads", &n.Blocks.SpillReads)
	reg.RegisterCounter("block_scans", &n.Blocks.BlockScans)
	reg.RegisterCounter("rollup_serves", &n.Blocks.RollupServes)
	reg.RegisterCounter("blocks_expired", &n.Blocks.BlocksExpired)
	reg.RegisterCounter("rollups_expired", &n.Blocks.RollupsExpired)
	reg.RegisterFunc("blocks_hot_bytes", n.Blocks.HotBytes)
	reg.RegisterCounter("compactor_passes", &n.Compactor.Passes)
	reg.RegisterCounter("compactor_pass_errors", &n.Compactor.PassErrors)
}

// ---- detect tier ------------------------------------------------------

// detectorEnv is what every pool of this node runs against: the one
// detector factory, the flag feed, and the sink — in-process into the
// local store tier when there is one, else over rpc across the stores
// found at boot.
func (n *Node) detectorEnv() DetectorEnv {
	var sink core.AnomalySink
	if n.TSDB != nil {
		sink = &tsdb.Sink{TSD: n.TSDB.TSDs()[0]}
	} else {
		rs := &remoteSink{net: n.net, timeout: 2 * time.Second}
		for _, tsds := range n.stores {
			rs.addrs = append(rs.addrs, tsds...)
		}
		sink = rs
	}
	return DetectorEnv{
		Sensors:      n.tier.SensorsPerUnit,
		Primary:      n.tier.PrimaryDetector,
		NewDetector:  n.newDetector,
		Sink:         sink,
		Flags:        n.topic(TopicAnomalies),
		Shadows:      n.tier.ShadowDetectors,
		ShadowBuffer: n.tier.ShadowBuffer,
		OnStop:       n.poolStopped,
	}
}

// newDetector builds one unit's instance of the named registered
// family. Model-based families load from the store tier's catalog and
// fail at evaluation on a node without one.
func (n *Node) newDetector(name string, unit int) (mllib.Detector, error) {
	t := n.tier
	params := map[string]float64{
		"level":     t.Level,
		"procedure": float64(t.Procedure),
	}
	for k, v := range n.cfg.DetectorParams {
		params[k] = v
	}
	return mllib.New(name, mllib.Context{
		Unit:    unit,
		Sensors: t.SensorsPerUnit,
		Seed:    t.Seed ^ uint64(unit)<<1,
		Params:  params,
		LoadModel: func() (any, error) {
			if n.Catalog == nil {
				return nil, errors.New("sentinel: no model catalog on a node without the store role")
			}
			return n.Catalog.Load(unit)
		},
	})
}

// DetectorStatus reports every registered detector family with its
// role on this node (primary / shadow / off), its flag and
// shadow-comparison counters aggregated across running pools, and the
// effective ensemble configuration — the /api/v1/detectors payload.
func (n *Node) DetectorStatus() v1.DetectorsResponse {
	t := n.tier
	shadowNames := make(map[string]bool, len(t.ShadowDetectors))
	for _, name := range t.ShadowDetectors {
		shadowNames[name] = true
	}
	var primaryFlags int64
	shadow := make(map[string]ShadowStats)
	n.mu.Lock()
	for _, p := range n.pools {
		primaryFlags += p.AnomaliesWritten.Value()
		for name, st := range p.ShadowStats() {
			agg := shadow[name]
			agg.Batches += st.Batches
			agg.Flags += st.Flags
			agg.Agreements += st.Agreements
			agg.Disagreements += st.Disagreements
			agg.Shed += st.Shed
			agg.Errors += st.Errors
			shadow[name] = agg
		}
	}
	n.mu.Unlock()
	resp := v1.DetectorsResponse{Primary: t.PrimaryDetector}
	// What the registry would build, asked of one it builds.
	if det, err := n.newDetector("ensemble", 0); err == nil {
		e := det.(*mllib.Ensemble)
		resp.Ensemble = v1.EnsembleConfig{Members: e.Members(), MinVotes: e.MinVotes()}
	}
	for _, name := range mllib.Registered() {
		info := v1.DetectorInfo{Name: name, Mode: "off"}
		switch {
		case name == t.PrimaryDetector:
			info.Mode = "primary"
			info.Flags = primaryFlags
		case shadowNames[name]:
			info.Mode = "shadow"
			st := shadow[name]
			info.Flags = st.Flags
			info.Agreements = st.Agreements
			info.Disagreements = st.Disagreements
			info.Shed = st.Shed
		}
		resp.Detectors = append(resp.Detectors, info)
	}
	return resp
}

// detectorStat sums one per-pool figure across the running pools.
func (n *Node) detectorStat(get func(*DetectorPool) int64) func() int64 {
	return func() int64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		var sum int64
		for _, p := range n.pools {
			sum += get(p)
		}
		return sum
	}
}

func (n *Node) registerDetectMetrics(reg *telemetry.Registry) {
	reg.RegisterFunc("samples_evaluated", n.detectorStat(func(p *DetectorPool) int64 { return p.SamplesEvaluated.Value() }))
	reg.RegisterFunc("anomalies_written", n.detectorStat(func(p *DetectorPool) int64 { return p.AnomaliesWritten.Value() }))
	reg.RegisterFunc("detector_parks", n.detectorStat(func(p *DetectorPool) int64 { return p.Parks.Value() }))
	reg.RegisterFunc("detector_parked", n.detectorStat(func(p *DetectorPool) int64 { return p.Parked.Value() }))
}

// ---- gateway surface --------------------------------------------------

// GatewayConfig tunes the handler Gateway assembles. Zero values take
// the api package defaults.
type GatewayConfig struct {
	// Now supplies "current" fleet time (nil: the fixed now passed to
	// Gateway).
	Now func() int64
	// MaxPoints bounds rendered series via LTTB (default 512).
	MaxPoints int
	// CacheEntries sizes the query tier's window cache (default 256).
	CacheEntries int
	// AccessLog overrides the gateway's access logger.
	AccessLog *log.Logger
	// HedgeDelay, when > 0, hedges straggler shard reads: a duplicate
	// sub-query goes to the next TSD once the primary has been silent
	// this long, first success wins.
	HedgeDelay time.Duration
	// NoServeStale disables degraded-mode reads. By default the query
	// tier answers from stale cache (marked via X-Sentinel-Degraded
	// and the DTO degraded field) when the storage tier cannot.
	NoServeStale bool
	// APIKeys lists client keys (X-API-Key) that are their own
	// admission identity; every other request is its remote IP.
	APIKeys []string
	// Admission, when set, is the gateway's one refusal stage: the
	// overload shed (see NewAdmissionController for the node's
	// signals) and the per-identity request budget
	// (admission.Config.RatePerSec).
	Admission *admission.Controller
}

// QueryEngine builds a scatter-gather read tier spanning every TSD of
// the local deployment, wired to its write watermarks for cache
// invalidation.
func (n *Node) QueryEngine(cfg query.Config) *query.Engine {
	return query.NewFromDeployment(n.TSDB, cfg)
}

// queryTier is the gateway's read path: a fanout over one engine per
// store. Alone, that is the local deployment behind the
// watermark-invalidated window cache; with peers, every store found at
// boot, uncached — remote engines see no write watermarks, so a cached
// window would never invalidate.
func (n *Node) queryTier(gc GatewayConfig, reg *telemetry.Registry) *query.Fanout {
	qc := query.Config{
		MaxEntries: gc.CacheEntries,
		Breakers:   n.Breakers,
		HedgeDelay: gc.HedgeDelay,
		ServeStale: !gc.NoServeStale,
	}
	var engines []*query.Engine
	if !n.cfg.clustered() {
		engines = []*query.Engine{n.QueryEngine(qc)}
	} else {
		qc.MaxEntries = -1
		for _, tsds := range n.stores {
			engines = append(engines, query.New(n.net, tsds, nil, qc))
		}
	}
	f := query.NewFanout(engines...)
	reg.RegisterCounter("query_fanout_queries", &f.Queries)
	reg.RegisterCounter("query_group_errors", &f.GroupErrors)
	for name, get := range map[string]func(*query.Engine) *telemetry.Counter{
		"query_cache_hits":      func(e *query.Engine) *telemetry.Counter { return &e.CacheHits },
		"query_cache_misses":    func(e *query.Engine) *telemetry.Counter { return &e.CacheMisses },
		"query_subqueries":      func(e *query.Engine) *telemetry.Counter { return &e.SubQueries },
		"query_failovers":       func(e *query.Engine) *telemetry.Counter { return &e.Failovers },
		"query_hedged":          func(e *query.Engine) *telemetry.Counter { return &e.Hedged },
		"query_hedge_wins":      func(e *query.Engine) *telemetry.Counter { return &e.HedgeWins },
		"query_degraded_serves": func(e *query.Engine) *telemetry.Counter { return &e.DegradedServes },
	} {
		reg.RegisterFunc(name, func() (sum int64) {
			for _, e := range engines {
				sum += get(e).Value()
			}
			return sum
		})
	}
	return f
}

// NewAnomalyTail attaches a live tail to the flag feed under its own
// consumer group, "stream-<node>-<seq>": consumer groups split
// partitions among members, so two tails sharing one group — on one
// node or on two gateways of a cluster — would each see only part of
// the fleet's flags, and the first Close would detach the group under
// the other. Close the tail before the node.
func (n *Node) NewAnomalyTail() *api.AnomalyTail {
	group := fmt.Sprintf("%s-%s-%d", GroupStream, n.cfg.Name, n.streamSeq.Add(1))
	return api.NewAnomalyTail(n.topic(TopicAnomalies), group)
}

// Gateway returns the node's web surface as one handler: metrics, the
// cluster map, health and readiness on every node; with the gateway
// role also the /api/v1 data tier (writes onto the ingestion bus,
// reads through the query tier, the SSE anomaly stream) and the
// Figure-3 HTML application; the detector report where the detect role
// is co-located. now is the fleet time pages treat as "current" when
// cfg.Now is nil. Close the returned tail (nil without the gateway
// role) before the node.
func (n *Node) Gateway(now int64, gc GatewayConfig) (http.Handler, *api.AnomalyTail) {
	if gc.Now == nil {
		gc.Now = func() int64 { return now }
	}
	if gc.MaxPoints <= 0 {
		gc.MaxPoints = 512
	}
	if gc.CacheEntries == 0 {
		gc.CacheEntries = 256
	}
	reg := telemetry.NewRegistry()
	n.RegisterMetrics(reg)
	cfg := api.Config{
		Registry:  reg,
		Ready:     n.ReadyChecks(),
		Now:       gc.Now,
		Cluster:   n.ClusterStatus,
		AccessLog: gc.AccessLog,
		APIKeys:   gc.APIKeys,
		Admission: gc.Admission,
	}
	if n.cfg.has(RoleDetect) {
		cfg.Detectors = n.DetectorStatus
	}
	if n.cfg.has(RoleGateway) {
		q := n.queryTier(gc, reg)
		cfg.Backend = &viz.Backend{Q: q, Units: n.tier.Units, Sensors: n.tier.SensorsPerUnit, MaxPoints: gc.MaxPoints}
		cfg.Publisher = &api.BusPublisher{Topic: n.topic(TopicEnergy)}
		cfg.Query = q
		cfg.Tail = n.NewAnomalyTail()
		cfg.HTML = viz.NewServer(cfg.Backend, gc.Now)
	}
	return api.New(cfg), cfg.Tail
}

// ---- every tier -------------------------------------------------------

// RegisterMetrics exposes the counters of the tiers this node runs on
// reg, under one name set in every topology.
func (n *Node) RegisterMetrics(reg *telemetry.Registry) {
	n.registerBusMetrics(reg)
	if n.cfg.has(RoleStore) {
		n.registerStoreMetrics(reg)
	}
	if n.cfg.has(RoleDetect) {
		n.registerDetectMetrics(reg)
	}
	reg.RegisterCounter("breaker_opens", &n.Breakers.Opens)
	reg.RegisterCounter("breaker_half_opens", &n.Breakers.HalfOpens)
	reg.RegisterCounter("breaker_closes", &n.Breakers.Closes)
	reg.RegisterFunc("breakers_open", func() int64 { return int64(n.Breakers.OpenCount()) })
}

// ReadyChecks probes what a serving node depends on: the coordination
// service (with peers), the bus accepting publishes, the storage tier
// answering, and — where the detect role runs — a pool attached.
// Liveness is weaker: see /healthz vs /readyz in internal/api.
func (n *Node) ReadyChecks() []api.ReadyCheck {
	var checks []api.ReadyCheck
	if n.cfg.clustered() {
		checks = append(checks, api.ReadyCheck{Name: "coordination", Check: func() error {
			_, err := n.zkc.Children(clusterNodesPath)
			return err
		}})
	}
	checks = append(checks, api.ReadyCheck{Name: "bus", Check: func() error {
		if n.Bus != nil && !n.Bus.Running() {
			return errors.New("bus not accepting publishes")
		}
		if !n.cfg.clustered() {
			return nil
		}
		kids, err := n.zkc.Children("/sentinel/bus/pg-0")
		if err == nil && len(kids) == 0 {
			err = errors.New("no bus leader candidates")
		}
		return err
	}}, api.ReadyCheck{Name: "storage", Check: func() error {
		stores, err := n.storeRoutes()
		if err != nil {
			return err
		}
		tsds := 0
		for _, s := range stores {
			tsds += len(s)
		}
		if tsds == 0 {
			return errors.New("no store TSDs registered")
		}
		if open := n.Breakers.OpenCount(); open >= tsds {
			return fmt.Errorf("all %d backend circuits open", open)
		} else if open > 0 {
			// Some backends are tripped but the tier still answers
			// (failover, stale cache): degraded, not down.
			return api.Degraded(fmt.Errorf("%d of %d backend circuits open", open, tsds))
		}
		if len(stores) < n.cfg.ExpectStores {
			return api.Degraded(fmt.Errorf("%d of %d store nodes registered", len(stores), n.cfg.ExpectStores))
		}
		return nil
	}})
	if n.cfg.has(RoleDetect) {
		checks = append(checks, api.ReadyCheck{Name: "detectors", Check: func() error {
			n.mu.Lock()
			attached := n.detGroup != nil
			n.mu.Unlock()
			if !attached {
				return errors.New("no detector pool attached")
			}
			if parked := n.detectorStat(func(p *DetectorPool) int64 { return p.Parked.Value() })(); parked > 0 {
				// Parked workers are riding out a storage fault with
				// their records uncommitted — lagging, not lost.
				return api.Degraded(fmt.Errorf("%d detector workers parked on storage faults", parked))
			}
			return nil
		}})
	}
	return checks
}
