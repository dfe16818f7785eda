// Cluster node runtime: the multi-process deployment of the system.
//
// A single-process System wires every tier through shared memory. A
// Node instead runs a subset of roles and reaches the rest of the
// cluster over the rpc fabric's TCP transport:
//
//   - broker  — a bus replica: partition-log storage, candidate in the
//     partition-group elections, coordinator for remote consumers
//     while it leads.
//   - store   — an HBase cluster + TSD tier + ingestion proxy, plus a
//     bus replica (so publishes stay acked-durable when the broker
//     dies and a store follower is promoted). Its storage writers
//     consume the shared "energy" topic through the remote bus.
//   - detect  — a DetectorPool consuming "energy" remotely, writing
//     flags to the store tier over rpc and publishing them on the
//     "anomalies" feed.
//   - gateway — the web surface: publishes ingested points to the bus
//     leader, reads through a query.Fanout spanning every store node,
//     tails the flag feed for SSE, and hosts the coordination
//     (ZooKeeper-like) service the whole cluster elects and registers
//     through.
//
// Roles combine freely; a node with all four is the degenerate
// single-process topology. Cluster membership lives in ephemeral
// znodes under /sentinel/cluster/nodes — each node refreshes its
// record (roles, rpc endpoint, TSD routes, partition groups led,
// replication health) about once a second, and GET /api/v1/cluster on
// any node renders the map.
package sentinel

import (
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	v1 "repro/internal/api/v1"
	"repro/internal/bus"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fdr"
	"repro/internal/hbase"
	"repro/internal/ingest"
	"repro/internal/mllib"
	"repro/internal/proxy"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
	"repro/internal/viz"
	"repro/internal/zk"
)

// Role names one responsibility a cluster node can carry.
type Role string

// The four node roles. A node may hold any combination.
const (
	RoleBroker  Role = "broker"
	RoleStore   Role = "store"
	RoleDetect  Role = "detect"
	RoleGateway Role = "gateway"
)

// ParseRoles parses a comma-separated role list ("store,detect").
func ParseRoles(s string) ([]Role, error) {
	var roles []Role
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		switch r := Role(part); r {
		case RoleBroker, RoleStore, RoleDetect, RoleGateway:
			roles = append(roles, r)
		default:
			return nil, fmt.Errorf("sentinel: unknown role %q", part)
		}
	}
	if len(roles) == 0 {
		return nil, errors.New("sentinel: empty role list")
	}
	return roles, nil
}

// Cluster-wide coordination paths and the rpc address of the
// coordination service.
const (
	clusterNodesPath = "/sentinel/cluster/nodes"
	zkAddr           = "zk"
)

// NodeConfig sizes one cluster node. Every node of a cluster must
// agree on Partitions, Units and SensorsPerUnit.
type NodeConfig struct {
	// Name uniquely identifies the node ("broker", "store-1", …). It
	// is the bus replica id, the membership znode name and the route
	// prefix peers reach this node's daemons under.
	Name string
	// Roles this node carries (at least one).
	Roles []Role

	// Listen is the TCP address the node's rpc transport binds
	// (default "127.0.0.1:0"); Listener, when set, is a pre-bound
	// listener used instead (tests pick ports before building the
	// peer map).
	Listen   string
	Listener net.Listener
	// Peers maps every cluster node's name to its TCP endpoint
	// (including this node's own entry, which is ignored for
	// routing decisions that have a local answer).
	Peers map[string]string
	// ZKNode names the peer hosting the coordination service. A node
	// with the gateway role defaults to hosting it itself; every
	// other node must name one.
	ZKNode string

	// Partitions is the cluster-wide bus partition count (default 4).
	Partitions int
	// Units and SensorsPerUnit shape the fleet the gateway renders
	// and the detectors evaluate (defaults 10 × 8).
	Units          int
	SensorsPerUnit int
	// StorageNodes is the region-server / TSD count of a store node's
	// local tier (default 2); SaltBuckets the row-key salting width
	// (default StorageNodes, -1 disables).
	StorageNodes int
	SaltBuckets  int
	// StorageWriters sizes a store node's consumer group draining the
	// bus into its proxy (default 2); DetectorWorkers a detect node's
	// pool (default 2).
	StorageWriters  int
	DetectorWorkers int
	// PrimaryDetector is the family detect nodes evaluate (default
	// "cusum" — streaming, needing no model catalog; model-based
	// families fail at evaluation time because cluster detect nodes
	// carry no trained models).
	PrimaryDetector string
	// DetectorParams overrides family tuning knobs on detect nodes,
	// merged over the defaults (e.g. {"warmup": 20}).
	DetectorParams map[string]float64
	// ExpectStores is how many store nodes must have registered
	// before detect and gateway roles finish booting (default 1).
	ExpectStores int
	// BootTimeout bounds waiting for the coordination service and the
	// expected store nodes (default 60s).
	BootTimeout time.Duration
	// Seed drives detector pseudo-randomness (default 42).
	Seed uint64
	// Now supplies "current" fleet time to the gateway's pages
	// (default wall-clock seconds).
	Now func() int64
	// AccessLog receives a gateway node's one line per request; nil
	// uses the process logger (as GatewayConfig.AccessLog).
	AccessLog *log.Logger
}

func (c NodeConfig) withNodeDefaults() NodeConfig {
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	if c.Partitions <= 0 {
		c.Partitions = 4
	}
	if c.Units <= 0 {
		c.Units = 10
	}
	if c.SensorsPerUnit <= 0 {
		c.SensorsPerUnit = 8
	}
	if c.StorageNodes <= 0 {
		c.StorageNodes = 2
	}
	if c.SaltBuckets == 0 {
		c.SaltBuckets = c.StorageNodes
	}
	if c.SaltBuckets < 0 {
		c.SaltBuckets = 0
	}
	if c.StorageWriters <= 0 {
		c.StorageWriters = 2
	}
	if c.DetectorWorkers <= 0 {
		c.DetectorWorkers = 2
	}
	if c.PrimaryDetector == "" {
		c.PrimaryDetector = "cusum"
	}
	if c.ExpectStores <= 0 {
		c.ExpectStores = 1
	}
	if c.BootTimeout <= 0 {
		c.BootTimeout = 60 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

func (c NodeConfig) has(r Role) bool {
	for _, have := range c.Roles {
		if have == r {
			return true
		}
	}
	return false
}

// nodeRecord is the JSON payload of a membership znode.
type nodeRecord struct {
	Name               string   `json:"name"`
	Roles              []string `json:"roles"`
	Addr               string   `json:"addr"`
	TSDs               []string `json:"tsds,omitempty"`
	PartitionGroupsLed []int    `json:"partitionGroupsLed,omitempty"`
	Promotions         int64    `json:"promotions,omitempty"`
	FollowerLag        int64    `json:"followerLag,omitempty"`
}

var wireOnce sync.Once

// RegisterWireTypes registers the application payloads the cluster
// ships over the rpc transport — bus record values (unit batches,
// anomaly flags) and the TSD request/response DTOs — plus the wire
// identities of the storage-tier sentinel errors. StartNode calls it;
// exported for drivers that speak to a cluster without running a node.
func RegisterWireTypes() {
	wireOnce.Do(func() {
		gob.Register(&ingest.UnitBatch{})
		gob.Register(core.Anomaly{})
		gob.Register(&tsdb.PutBatch{})
		gob.Register(&tsdb.QueryRequest{})
		gob.Register(&tsdb.QueryResponse{})
		rpc.RegisterWireError(tsdb.ErrNoSuchMetric, tsdb.ErrBadPoint)
	})
}

// Node is one running cluster member.
type Node struct {
	cfg  NodeConfig
	addr string

	net       *rpc.Network
	transport *rpc.Transport
	ownNet    bool

	zkSrv    *zk.Server
	zkSvc    *zk.Service
	zkLocal  *zk.Session
	zkRemote *zk.RemoteClient
	zkc      zk.Client

	// Bus and BusSvc are set on broker and store roles (the bus
	// replica set); rb is every role's remote handle factory.
	Bus    *bus.Broker
	BusSvc *bus.Service
	rb     *bus.RemoteBus

	// Store-role tiers.
	Cluster *hbase.Cluster
	TSDB    *tsdb.Deployment
	Proxy   *proxy.Proxy
	Writers *ingest.StorageWriters

	// Detect-role pool.
	Pool *DetectorPool

	// Gateway-role surface.
	Fanout  *query.Fanout
	tail    *api.AnomalyTail
	handler http.Handler
	reg     *telemetry.Registry

	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// StartNode boots one cluster node and blocks until its roles are
// serving: the transport is listening, the coordination service is
// reachable, bus elections are joined, and (for detect and gateway
// roles) the expected store nodes have registered.
func StartNode(cfg NodeConfig) (node *Node, err error) {
	cfg = cfg.withNodeDefaults()
	if cfg.Name == "" {
		return nil, errors.New("sentinel: cluster node needs a name")
	}
	if len(cfg.Roles) == 0 {
		return nil, errors.New("sentinel: cluster node needs at least one role")
	}
	RegisterWireTypes()

	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{cfg: cfg, ctx: ctx, cancel: cancel, reg: telemetry.NewRegistry()}
	defer func() {
		if err != nil {
			n.Close()
		}
	}()

	// The fabric. A store node reuses its storage cluster's network so
	// the TSD daemons answer on this node's one listener; other roles
	// get a fresh fabric.
	if cfg.has(RoleStore) {
		n.Cluster, err = hbase.NewCluster(hbase.Config{
			RegionServers: cfg.StorageNodes,
			Clock:         clock.Real{},
		})
		if err != nil {
			return nil, fmt.Errorf("sentinel: %s: boot cluster: %w", cfg.Name, err)
		}
		n.net = n.Cluster.Network()
	} else {
		n.net = rpc.NewNetwork(0, nil)
		n.ownNet = true
	}
	lis := cfg.Listener
	if lis == nil {
		if lis, err = net.Listen("tcp", cfg.Listen); err != nil {
			return nil, fmt.Errorf("sentinel: %s: listen: %w", cfg.Name, err)
		}
	}
	n.transport = rpc.ServeTCP(n.net, lis)
	n.addr = lis.Addr().String()

	// Routes: every peer's bus replica by exact address, and every
	// peer's whole namespace under "<name>/" (how the gateway reaches
	// a store's TSD daemons: "store-1/tsd/tsd-1"). The node's own
	// prefix routes through its loopback listener too, so prefixed
	// names resolve uniformly on combined-role nodes; exact local
	// registrations always win over routes.
	for name, ep := range cfg.Peers {
		n.net.AddRoute("bus/"+name, ep)
		n.net.AddRoute(name+"/", ep)
	}
	if _, ok := cfg.Peers[cfg.Name]; !ok {
		n.net.AddRoute("bus/"+cfg.Name, n.addr)
		n.net.AddRoute(cfg.Name+"/", n.addr)
	}

	// Coordination: the gateway hosts the service; everyone else
	// routes "zk" to it and connects with keepalive.
	zkNode := cfg.ZKNode
	if zkNode == "" && cfg.has(RoleGateway) {
		zkNode = cfg.Name
	}
	if zkNode == "" {
		return nil, fmt.Errorf("sentinel: %s: ZKNode required on nodes without the gateway role", cfg.Name)
	}
	if zkNode == cfg.Name {
		n.zkSrv = zk.NewServer()
		n.zkSvc = zk.NewService(n.zkSrv, 0)
		if err = n.zkSvc.Register(n.net, zkAddr, rpc.ServerConfig{Workers: 8, QueueCap: 1024}); err != nil {
			return nil, fmt.Errorf("sentinel: %s: register coordination service: %w", cfg.Name, err)
		}
		n.zkLocal = n.zkSrv.NewSession()
		n.zkc = n.zkLocal
	} else {
		ep, ok := cfg.Peers[zkNode]
		if !ok {
			return nil, fmt.Errorf("sentinel: %s: coordination node %q not in peers", cfg.Name, zkNode)
		}
		n.net.AddRoute(zkAddr, ep)
		bootCtx, done := context.WithTimeout(ctx, cfg.BootTimeout)
		n.zkRemote, err = connectZK(bootCtx, n.net)
		done()
		if err != nil {
			return nil, fmt.Errorf("sentinel: %s: reach coordination service on %q: %w", cfg.Name, zkNode, err)
		}
		n.zkc = n.zkRemote
	}
	if err = zk.EnsurePath(n.zkc, clusterNodesPath); err != nil {
		return nil, fmt.Errorf("sentinel: %s: ensure membership path: %w", cfg.Name, err)
	}

	// The bus replica set: brokers and stores hold partition logs and
	// stand in the leader elections, so killing the broker promotes a
	// store and acked records survive (publishes replicate to every
	// registered replica before acking).
	if cfg.has(RoleBroker) || cfg.has(RoleStore) {
		n.Bus = bus.New(bus.Config{Partitions: cfg.Partitions})
		n.BusSvc, err = bus.StartService(n.net, n.zkc, n.Bus, bus.ServiceConfig{
			Node: cfg.Name,
			Addr: "bus/" + cfg.Name,
		})
		if err != nil {
			return nil, fmt.Errorf("sentinel: %s: start bus service: %w", cfg.Name, err)
		}
	}
	n.rb = bus.NewRemoteBus(n.net, n.zkc, bus.RemoteBusConfig{
		Node:       cfg.Name,
		Partitions: cfg.Partitions,
	})

	// Store tier: deployment, table, proxy, and the storage consumer
	// group draining the shared topic through the proxy. Unbounded
	// retries: in a cluster the writers never drop a committed
	// record — redelivery and idempotent writes handle the rest.
	if cfg.has(RoleStore) {
		if n.TSDB, err = tsdb.NewDeployment(n.Cluster, cfg.StorageNodes, tsdb.TSDConfig{
			SaltBuckets: cfg.SaltBuckets,
		}); err != nil {
			return nil, fmt.Errorf("sentinel: %s: boot tsdb: %w", cfg.Name, err)
		}
		if err = n.TSDB.CreateTable(); err != nil {
			return nil, fmt.Errorf("sentinel: %s: create table: %w", cfg.Name, err)
		}
		if n.Proxy, err = proxy.New(n.net, n.TSDB.Addrs(), proxy.Config{MaxRetries: -1}); err != nil {
			return nil, fmt.Errorf("sentinel: %s: boot proxy: %w", cfg.Name, err)
		}
		n.Writers = ingest.StartStorageWriters(ctx,
			n.rb.Topic(TopicEnergy).Group(GroupStorage), n.Proxy, cfg.StorageWriters)
	}

	// Register membership before the blocking waits below, so peers
	// discover this node while it waits for them.
	if err = n.register(); err != nil {
		return nil, fmt.Errorf("sentinel: %s: register membership: %w", cfg.Name, err)
	}
	n.wg.Add(1)
	go n.refreshLoop()

	// Detection: a pool over the remote consumer group, writing flags
	// into the store tier over rpc and publishing them on the feed.
	if cfg.has(RoleDetect) {
		stores, werr := n.waitStores(ctx, cfg.ExpectStores, cfg.BootTimeout)
		if werr != nil {
			return nil, werr
		}
		var tsds []string
		for _, r := range stores {
			tsds = append(tsds, r.TSDs...)
		}
		g := n.rb.Topic(TopicEnergy).Group(GroupDetectors)
		g.SeekToEnd()
		n.Pool = NewDetectorPool(DetectorEnv{
			Sensors:     cfg.SensorsPerUnit,
			Primary:     cfg.PrimaryDetector,
			NewDetector: n.newDetector,
			Sink:        &remoteSink{net: n.net, addrs: tsds, timeout: 2 * time.Second},
			Flags:       n.rb.Topic(TopicAnomalies),
		}, g, cfg.DetectorWorkers)
	}

	// Gateway: one query engine per store node merged by a fanout
	// (caching disabled — remote engines see no write watermarks, so
	// cached windows would never invalidate), the SSE tail, and the
	// /api/v1 surface.
	var backend *viz.Backend
	if cfg.has(RoleGateway) {
		stores, werr := n.waitStores(ctx, cfg.ExpectStores, cfg.BootTimeout)
		if werr != nil {
			return nil, werr
		}
		engines := make([]*query.Engine, 0, len(stores))
		for _, r := range stores {
			engines = append(engines, query.New(n.net, r.TSDs, nil, query.Config{MaxEntries: -1}))
		}
		n.Fanout = query.NewFanout(engines...)
		backend = &viz.Backend{
			Q:         n.Fanout,
			Units:     cfg.Units,
			Sensors:   cfg.SensorsPerUnit,
			MaxPoints: 512,
		}
		n.tail = api.NewAnomalyTail(n.rb.Topic(TopicAnomalies), GroupStream+"-1")
	}

	n.registerMetrics()
	if cfg.has(RoleGateway) {
		now := cfg.Now
		if now == nil {
			now = func() int64 { return time.Now().Unix() }
		}
		n.handler = api.New(api.Config{
			Backend:   backend,
			Publisher: &api.BusPublisher{Topic: n.rb.Topic(TopicEnergy)},
			Query:     n.Fanout,
			Tail:      n.tail,
			Registry:  n.reg,
			HTML:      viz.NewServer(backend, now),
			Ready:     n.readyChecks(),
			Now:       now,
			Cluster:   n.ClusterStatus,
			AccessLog: cfg.AccessLog,
		})
	} else {
		n.handler = n.opsHandler()
	}
	return n, nil
}

// connectZK dials the coordination service until it answers or ctx
// expires — peers may still be booting.
func connectZK(ctx context.Context, network *rpc.Network) (*zk.RemoteClient, error) {
	for {
		c, err := zk.Connect(ctx, network, zkAddr, zk.RemoteConfig{})
		if err == nil {
			return c, nil
		}
		select {
		case <-time.After(250 * time.Millisecond):
		case <-ctx.Done():
			return nil, err
		}
	}
}

// Name returns the node's cluster-unique name.
func (n *Node) Name() string { return n.cfg.Name }

// Addr returns the TCP endpoint the node's rpc transport listens on.
func (n *Node) Addr() string { return n.addr }

// Handler returns the node's HTTP surface: the full /api/v1 gateway on
// gateway nodes, a minimal ops surface (metrics, cluster map, health)
// elsewhere.
func (n *Node) Handler() http.Handler { return n.handler }

// Registry returns the node's telemetry registry.
func (n *Node) Registry() *telemetry.Registry { return n.reg }

// newDetector builds one unit's detector. Cluster detect nodes carry
// no model catalog, so model-based families (mgd) fail at evaluation;
// the default primary is the streaming cusum family.
func (n *Node) newDetector(name string, unit int) (mllib.Detector, error) {
	params := map[string]float64{
		"level":     0.05,
		"procedure": float64(fdr.BH),
		"minvotes":  2,
	}
	for k, v := range n.cfg.DetectorParams {
		params[k] = v
	}
	return mllib.New(name, mllib.Context{
		Unit:    unit,
		Sensors: n.cfg.SensorsPerUnit,
		Seed:    n.cfg.Seed ^ uint64(unit)<<1,
		Params:  params,
		LoadModel: func() (any, error) {
			return nil, errors.New("sentinel: cluster detect nodes carry no model catalog")
		},
	})
}

// record builds this node's membership payload.
func (n *Node) record() nodeRecord {
	r := nodeRecord{Name: n.cfg.Name, Addr: n.addr}
	for _, role := range n.cfg.Roles {
		r.Roles = append(r.Roles, string(role))
	}
	if n.TSDB != nil {
		for _, a := range n.TSDB.Addrs() {
			r.TSDs = append(r.TSDs, n.cfg.Name+"/"+a)
		}
	}
	if n.BusSvc != nil {
		if n.BusSvc.IsLeader(0) {
			r.PartitionGroupsLed = []int{0}
		}
		r.Promotions = n.BusSvc.Promotions.Value()
		r.FollowerLag = n.BusSvc.FollowerLag([]string{TopicEnergy, TopicAnomalies})
	}
	return r
}

// register creates (or takes over) the node's ephemeral membership
// znode.
func (n *Node) register() error {
	data, err := json.Marshal(n.record())
	if err != nil {
		return err
	}
	path := clusterNodesPath + "/" + n.cfg.Name
	err = n.zkc.Create(path, data, true)
	if errors.Is(err, zk.ErrNodeExists) {
		// A previous incarnation's record whose session has not
		// expired yet: overwrite; our refresh loop keeps it fresh and
		// our session's expiry will reap it.
		return n.zkc.Set(path, data, -1)
	}
	return err
}

// refreshLoop re-publishes the membership record about once a second
// so peers see leadership, promotion and lag changes; it re-creates
// the znode if a session hiccup reaped it.
func (n *Node) refreshLoop() {
	defer n.wg.Done()
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-t.C:
		}
		data, err := json.Marshal(n.record())
		if err != nil {
			continue
		}
		path := clusterNodesPath + "/" + n.cfg.Name
		if err := n.zkc.Set(path, data, -1); errors.Is(err, zk.ErrNoNode) {
			_ = n.zkc.Create(path, data, true)
		}
	}
}

// clusterRecords reads every live membership record, sorted by name.
func (n *Node) clusterRecords() ([]nodeRecord, error) {
	kids, err := n.zkc.Children(clusterNodesPath)
	if err != nil {
		return nil, err
	}
	recs := make([]nodeRecord, 0, len(kids))
	for _, kid := range kids {
		data, _, err := n.zkc.Get(clusterNodesPath + "/" + kid)
		if err != nil {
			continue // departed between list and read
		}
		var r nodeRecord
		if json.Unmarshal(data, &r) != nil {
			continue
		}
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Name < recs[j].Name })
	return recs, nil
}

// waitStores blocks until want store nodes have registered with their
// TSD routes (their storage tier is up).
func (n *Node) waitStores(ctx context.Context, want int, timeout time.Duration) ([]nodeRecord, error) {
	deadline := time.Now().Add(timeout)
	for {
		recs, err := n.clusterRecords()
		if err == nil {
			stores := recs[:0:0]
			for _, r := range recs {
				if len(r.TSDs) > 0 {
					stores = append(stores, r)
				}
			}
			if len(stores) >= want {
				return stores, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("sentinel: %s: timed out waiting for %d store node(s)", n.cfg.Name, want)
		}
		select {
		case <-time.After(200 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// ClusterStatus renders the membership map — the GET /api/v1/cluster
// payload. Any node can serve it; the records themselves are pushed by
// their owners.
func (n *Node) ClusterStatus() v1.ClusterResponse {
	recs, err := n.clusterRecords()
	if err != nil {
		return v1.ClusterResponse{}
	}
	resp := v1.ClusterResponse{Nodes: make([]v1.ClusterNode, 0, len(recs))}
	for _, r := range recs {
		resp.Nodes = append(resp.Nodes, v1.ClusterNode{
			Name:               r.Name,
			Roles:              r.Roles,
			Addr:               r.Addr,
			TSDs:               r.TSDs,
			PartitionGroupsLed: r.PartitionGroupsLed,
			Promotions:         r.Promotions,
			FollowerLag:        r.FollowerLag,
		})
	}
	return resp
}

// readyChecks probes the cluster dependencies a serving node needs:
// the coordination service, a bus leadership election with candidates,
// and the expected store population.
func (n *Node) readyChecks() []api.ReadyCheck {
	return []api.ReadyCheck{
		{Name: "coordination", Check: func() error {
			_, err := n.zkc.Children(clusterNodesPath)
			return err
		}},
		{Name: "bus", Check: func() error {
			kids, err := n.zkc.Children("/sentinel/bus/pg-0")
			if err != nil {
				return err
			}
			if len(kids) == 0 {
				return errors.New("no bus leader candidates")
			}
			return nil
		}},
		{Name: "stores", Check: func() error {
			recs, err := n.clusterRecords()
			if err != nil {
				return err
			}
			stores := 0
			for _, r := range recs {
				if len(r.TSDs) > 0 {
					stores++
				}
			}
			if stores == 0 {
				return errors.New("no store nodes registered")
			}
			if stores < n.cfg.ExpectStores {
				return api.Degraded(fmt.Errorf("%d of %d store nodes registered", stores, n.cfg.ExpectStores))
			}
			return nil
		}},
	}
}

// registerMetrics exposes the node's per-role counters plus the
// cluster telemetry every node carries (partition groups led,
// promotions absorbed, replication traffic, follower lag).
func (n *Node) registerMetrics() {
	reg := n.reg
	reg.RegisterFunc("cluster_partition_groups_led", func() int64 {
		if n.BusSvc == nil {
			return 0
		}
		return int64(n.BusSvc.PartitionsLed())
	})
	reg.RegisterFunc("cluster_nodes", func() int64 {
		recs, err := n.clusterRecords()
		if err != nil {
			return -1
		}
		return int64(len(recs))
	})
	if n.BusSvc != nil {
		reg.RegisterCounter("cluster_promotions", &n.BusSvc.Promotions)
		reg.RegisterCounter("cluster_replicated", &n.BusSvc.Replicated)
		reg.RegisterCounter("cluster_member_evictions", &n.BusSvc.Evictions)
		reg.RegisterFunc("cluster_follower_lag", func() int64 {
			return n.BusSvc.FollowerLag([]string{TopicEnergy, TopicAnomalies})
		})
	}
	if n.Bus != nil {
		reg.RegisterCounter("bus_published", &n.Bus.Published)
		reg.RegisterCounter("bus_polled", &n.Bus.Polled)
		reg.RegisterCounter("bus_rebalances", &n.Bus.Rebalances)
	}
	if n.Writers != nil {
		reg.RegisterCounter("writer_delivered", &n.Writers.Delivered)
		reg.RegisterCounter("writer_failures", &n.Writers.Failures)
		reg.RegisterCounter("writer_parks", &n.Writers.Parks)
		reg.RegisterGauge("writer_parked", &n.Writers.Parked)
	}
	if n.Proxy != nil {
		reg.RegisterCounter("proxy_accepted", &n.Proxy.Accepted)
		reg.RegisterCounter("proxy_delivered", &n.Proxy.Delivered)
		reg.RegisterCounter("proxy_dropped", &n.Proxy.Dropped)
		reg.RegisterCounter("proxy_retries", &n.Proxy.Retries)
	}
	if n.TSDB != nil {
		reg.RegisterFunc("tsdb_points_written", n.TSDB.PointsWritten)
		reg.RegisterFunc("tsdb_queries_served", n.TSDB.QueriesServed)
	}
	if n.Pool != nil {
		reg.RegisterCounter("samples_evaluated", &n.Pool.SamplesEvaluated)
		reg.RegisterCounter("anomalies_written", &n.Pool.AnomaliesWritten)
		reg.RegisterCounter("detector_parks", &n.Pool.Parks)
		reg.RegisterGauge("detector_parked", &n.Pool.Parked)
	}
	if n.Fanout != nil {
		reg.RegisterCounter("query_fanout_queries", &n.Fanout.Queries)
		reg.RegisterCounter("query_group_errors", &n.Fanout.GroupErrors)
	}
}

// opsHandler is the HTTP surface of non-gateway nodes: metrics, the
// cluster map and a liveness probe.
func (n *Node) opsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/api/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		n.reg.Expose(w)
	})
	mux.HandleFunc("/api/v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", v1.ContentTypeJSON)
		_ = json.NewEncoder(w).Encode(n.ClusterStatus())
	})
	return mux
}

// Close tears the node down: consumers and servers first, then the
// tiers under them. The ephemeral membership record is deleted eagerly
// so peers need not wait for session expiry.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		n.cancel()
		n.wg.Wait()
		if n.zkc != nil {
			_ = n.zkc.Delete(clusterNodesPath + "/" + n.cfg.Name)
		}
		if n.tail != nil {
			n.tail.Close()
		}
		if n.Pool != nil {
			n.Pool.Stop()
		}
		if n.Writers != nil {
			n.Writers.Stop()
		}
		if n.BusSvc != nil {
			n.BusSvc.Close()
		}
		if n.Bus != nil {
			n.Bus.Close()
		}
		if n.Proxy != nil {
			n.Proxy.Close()
		}
		if n.zkRemote != nil {
			n.zkRemote.Close()
		}
		if n.zkLocal != nil {
			n.zkLocal.Close()
		}
		if n.zkSvc != nil {
			n.zkSvc.Close()
		}
		if n.transport != nil {
			n.transport.Close()
		}
		if n.Cluster != nil {
			n.Cluster.Stop()
		}
		if n.ownNet && n.net != nil {
			n.net.Close()
		}
	})
}

// remoteSink writes anomaly flags into the store tier over rpc,
// spreading units across the cluster's TSD daemons. Reads merge every
// store group (query.Fanout), so any daemon is a correct destination.
type remoteSink struct {
	net     *rpc.Network
	addrs   []string
	timeout time.Duration
}

func (s *remoteSink) WriteAnomaly(a core.Anomaly) error {
	if len(s.addrs) == 0 {
		return errors.New("sentinel: no store TSDs")
	}
	addr := s.addrs[a.Unit%len(s.addrs)]
	ctx, cancel := context.WithTimeout(context.Background(), s.timeout)
	defer cancel()
	_, err := s.net.Call(ctx, addr, "put", &tsdb.PutBatch{Points: []tsdb.Point{{
		Metric:    tsdb.MetricAnomaly,
		Tags:      tsdb.EnergyTags(a.Unit, a.Sensor),
		Timestamp: a.Timestamp,
		Value:     a.Z,
	}}})
	return err
}

// ClusterStatus is the degenerate single-process membership map: one
// node holding every role. It keeps /api/v1/cluster truthful on a
// System-served gateway.
func (s *System) ClusterStatus() v1.ClusterResponse {
	return v1.ClusterResponse{Nodes: []v1.ClusterNode{{
		Name: "local",
		Roles: []string{
			string(RoleBroker), string(RoleStore),
			string(RoleDetect), string(RoleGateway),
		},
	}}}
}
