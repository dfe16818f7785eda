// Node runtime: one member of a deployment, carrying any subset of the
// four roles. The tiers behind the roles are built by the one assembly
// in assembly.go; this file is what surrounds them — configuration,
// the rpc fabric and coordination service a node with peers joins, the
// membership map, and teardown.
//
//   - broker  — a bus replica: partition-log storage, candidate in the
//     partition-group elections, coordinator for remote consumers
//     while it leads.
//   - store   — an HBase cluster + TSD tier + ingestion proxy + sealed
//     block tier, plus a bus replica (so publishes stay acked-durable
//     when the broker dies and a store follower is promoted). Its
//     storage writers drain the shared "energy" topic.
//   - detect  — a DetectorPool consuming "energy", writing flags to the
//     store tier and publishing them on the "anomalies" feed.
//   - gateway — the web surface: publishes ingested points, reads
//     through the query tier, tails the flag feed for SSE, and hosts
//     the coordination (ZooKeeper-like) service a cluster elects and
//     registers through.
//
// What a node reaches in-process and what it reaches over rpc follows
// from Peers alone. A node whose Peers names no other node is the whole
// deployment: it opens no listener, runs no coordination service and no
// bus replication, hands its tiers the local bus handles and the
// in-process anomaly sink, and reads through the watermark-invalidated
// query cache — sentinel.New is exactly that node. A node with peers
// joins the fabric: RemoteBus handles resolving the elected leader, the
// rpc anomaly sink, and a cache-less query fanout over every store
// (remote engines see no write watermarks, so a cached window would
// never invalidate). Membership of a cluster lives in ephemeral znodes
// under /sentinel/cluster/nodes — each node refreshes its record about
// once a second, and GET /api/v1/cluster on any node renders the map.
package sentinel

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	v1 "repro/internal/api/v1"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/hbase"
	"repro/internal/ingest"
	"repro/internal/proxy"
	"repro/internal/resilience"
	"repro/internal/rpc"
	"repro/internal/tsdb"
	"repro/internal/zk"
)

// Role names one responsibility a node can carry.
type Role string

// The four node roles. A node may hold any combination.
const (
	RoleBroker  Role = "broker"
	RoleStore   Role = "store"
	RoleDetect  Role = "detect"
	RoleGateway Role = "gateway"
)

var allRoles = []Role{RoleBroker, RoleStore, RoleDetect, RoleGateway}

// ParseRoles parses a comma-separated role list ("store,detect");
// "all" stands for the four roles.
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
		case "all":
			roles = append(roles, allRoles...)
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

// NodeConfig sizes one node. Every node of a cluster must agree on
// Partitions, Units and SensorsPerUnit.
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
	// peer map). A node without peers binds neither.
	Listen   string
	Listener net.Listener
	// Peers maps every cluster node's name to its TCP endpoint
	// (including this node's own entry, which is ignored for
	// routing decisions that have a local answer). Empty, or naming
	// only this node, makes the node the whole deployment.
	Peers map[string]string
	// ZKNode names the peer hosting the coordination service. A node
	// with the gateway role defaults to hosting it itself; every
	// other node with peers must name one.
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
	// "cusum" — streaming, needing no trained model; model-based
	// families fail at evaluation time until a model for the unit is in
	// a co-located store tier's catalog).
	PrimaryDetector string
	// DetectorParams overrides family tuning knobs on detect nodes,
	// merged over the defaults (e.g. {"warmup": 20}).
	DetectorParams map[string]float64
	// ExpectStores is how many store nodes must have registered
	// before detect and gateway roles of a node with peers finish
	// booting (default 1).
	ExpectStores int
	// BootTimeout bounds waiting for the coordination service and the
	// expected store nodes (default 60s).
	BootTimeout time.Duration
	// Seed drives detector pseudo-randomness (default 42).
	Seed uint64

	// The store tier's lifecycle and the shared circuit breakers, as the
	// Config fields of the same names; they apply to every store node.
	SealAfter     int64
	CompactEvery  time.Duration
	RawTTL        int64
	RollupTTL     int64
	HotBlockBytes int64
	Breaker       resilience.BreakerConfig

	// GatewayConfig tunes the node's HTTP surface exactly as it tunes
	// System.Gateway; Now defaults to wall-clock seconds.
	GatewayConfig
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
	if c.StorageWriters <= 0 {
		c.StorageWriters = 2
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
	if c.Now == nil {
		c.Now = func() int64 { return time.Now().Unix() }
	}
	return c
}

// tiers sizes the shared tiers from a node's configuration, in the
// library's terms. Proxy retries are unbounded: a daemon's writers
// never drop a committed record — redelivery and idempotent writes
// handle the rest.
func (c NodeConfig) tiers() Config {
	return Config{
		StorageNodes:    c.StorageNodes,
		SaltBuckets:     c.SaltBuckets,
		Units:           c.Units,
		SensorsPerUnit:  c.SensorsPerUnit,
		Seed:            c.Seed,
		ProxyMaxRetries: -1,
		Breaker:         c.Breaker,
		Partitions:      c.Partitions,
		StorageWriters:  c.StorageWriters,
		DetectorWorkers: c.DetectorWorkers,
		SealAfter:       c.SealAfter,
		CompactEvery:    c.CompactEvery,
		RawTTL:          c.RawTTL,
		RollupTTL:       c.RollupTTL,
		HotBlockBytes:   c.HotBlockBytes,
		PrimaryDetector: c.PrimaryDetector,
	}.withDefaults()
}

func (c NodeConfig) has(r Role) bool { return slices.Contains(c.Roles, r) }

// clustered reports whether Peers names a node other than this one.
func (c NodeConfig) clustered() bool {
	for name := range c.Peers {
		if name != c.Name {
			return true
		}
	}
	return false
}

var wireOnce sync.Once

// RegisterWireTypes registers the application payloads the cluster
// ships over the rpc transport — bus record values (unit batches,
// anomaly flags) and the TSD request/response DTOs — plus the wire
// identities of the storage-tier sentinel errors. StartNode calls it;
// exported for drivers that speak to a cluster without running a node.
func RegisterWireTypes() {
	wireOnce.Do(func() {
		rpc.RegisterWireType(rpc.TagUnitBatch, ingest.DecodeUnitBatch)
		rpc.RegisterWireType(rpc.TagAnomaly, core.DecodeAnomaly)
		rpc.RegisterWireType(rpc.TagPutBatch, tsdb.DecodePutBatch)
		rpc.RegisterWireType(rpc.TagQueryRequest, tsdb.DecodeQueryRequest)
		rpc.RegisterWireType(rpc.TagQueryResponse, tsdb.DecodeQueryResponse)
		rpc.RegisterWireError(tsdb.ErrNoSuchMetric, tsdb.ErrBadPoint)
	})
}

// Node is one running member: the tiers of the roles it carries.
type Node struct {
	cfg  NodeConfig
	tier Config
	addr string

	// The fabric, nil on a node without peers.
	net       *rpc.Network
	transport *rpc.Transport
	ownNet    bool
	zkSrv     *zk.Server
	zkSvc     *zk.Service
	zkLocal   *zk.Session
	zkRemote  *zk.RemoteClient
	zkc       zk.Client
	// stores holds each registered store node's TSD routes, as the
	// detect and gateway tiers of a node with peers found them at boot.
	stores [][]string

	// Bus tier: Bus on broker and store roles (the replica set), BusSvc
	// and rb on nodes with peers.
	Bus    *bus.Broker
	BusSvc *bus.Service
	rb     *bus.RemoteBus

	// Store tier. Blocks is the compressed sealed tier closed storage
	// rows compact into and spill to HDFS from under retention (see
	// internal/tsdb); Compactor drives its passes — in the background
	// when CompactEvery > 0, and through CompactNow always. Catalog
	// holds trained models on the tier's HDFS. Breakers is the node's
	// one health view per TSD, fed by the proxy's writes and the query
	// tier's reads.
	Cluster   *hbase.Cluster
	TSDB      *tsdb.Deployment
	Proxy     *proxy.Proxy
	Writers   *ingest.StorageWriters
	Blocks    *tsdb.BlockStore
	Compactor *tsdb.Compactor
	Catalog   *core.ModelCatalog
	Breakers  *resilience.Group
	storage   bus.GroupHandle

	// Detect tier: Pool is the one StartNode started; pools every
	// running one, detGroup the consumer group they share.
	Pool     *DetectorPool
	mu       sync.Mutex
	pools    []*DetectorPool
	detGroup bus.GroupHandle

	// The HTTP surface StartNode built, and its anomaly tail.
	handler   http.Handler
	tail      *api.AnomalyTail
	streamSeq atomic.Int64

	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// StartNode boots one node and blocks until its roles are serving: for
// a node with peers, the transport is listening, the coordination
// service is reachable, bus elections are joined, and (for detect and
// gateway roles) the expected store nodes have registered.
func StartNode(cfg NodeConfig) (*Node, error) {
	cfg = cfg.withNodeDefaults()
	if cfg.Name == "" {
		return nil, errors.New("sentinel: node needs a name")
	}
	if len(cfg.Roles) == 0 {
		return nil, errors.New("sentinel: node needs at least one role")
	}
	RegisterWireTypes()
	n, err := startNode(cfg, cfg.tiers())
	if err != nil {
		return nil, err
	}
	if cfg.has(RoleDetect) {
		n.Pool = n.StartDetectors(0)
	}
	n.handler, n.tail = n.Gateway(0, cfg.GatewayConfig)
	return n, nil
}

// startNode is the boot order shared by New and StartNode: storage
// below the bus (a store's rpc network is the one its TSD daemons
// answer on, so the fabric attaches to it), the fabric, the bus, the
// storage writers above it, then membership.
func startNode(cfg NodeConfig, tier Config) (n *Node, err error) {
	if !cfg.clustered() && !cfg.has(RoleStore) && (cfg.has(RoleDetect) || cfg.has(RoleGateway)) {
		return nil, fmt.Errorf("sentinel: %s: without peers, detect and gateway roles need the store role beside them", cfg.Name)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n = &Node{cfg: cfg, tier: tier, ctx: ctx, cancel: cancel, Breakers: resilience.NewGroup(tier.Breaker)}
	defer func() {
		if err != nil {
			n.Close()
		}
	}()
	if cfg.has(RoleStore) {
		if err = n.startStorage(); err != nil {
			return nil, err
		}
	}
	if cfg.clustered() {
		if err = n.joinFabric(); err != nil {
			return nil, err
		}
	} else if cfg.Listener != nil {
		cfg.Listener.Close()
	}
	if err = n.startBus(); err != nil {
		return nil, err
	}
	if cfg.has(RoleStore) {
		n.startWriters()
	}
	if !cfg.clustered() {
		return n, nil
	}
	// Register membership before the blocking wait below, so peers
	// discover this node while it waits for them.
	if err = n.register(); err != nil {
		return nil, fmt.Errorf("sentinel: %s: register membership: %w", cfg.Name, err)
	}
	n.wg.Add(1)
	go n.refreshLoop()
	if cfg.has(RoleDetect) || cfg.has(RoleGateway) {
		if n.stores, err = n.waitStores(); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// joinFabric puts the node on the cluster's rpc fabric: the TCP
// transport, the routes to every peer, and the coordination service
// (hosted here or dialled).
func (n *Node) joinFabric() (err error) {
	cfg := n.cfg
	if n.Cluster != nil {
		n.net = n.Cluster.Network()
	} else {
		n.net = rpc.NewNetwork(0, nil)
		n.ownNet = true
	}
	lis := cfg.Listener
	if lis == nil {
		if lis, err = net.Listen("tcp", cfg.Listen); err != nil {
			return fmt.Errorf("sentinel: %s: listen: %w", cfg.Name, err)
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
		return fmt.Errorf("sentinel: %s: ZKNode required on nodes without the gateway role", cfg.Name)
	}
	if zkNode == cfg.Name {
		n.zkSrv = zk.NewServer()
		n.zkSvc = zk.NewService(n.zkSrv, 0)
		if err = n.zkSvc.Register(n.net, zkAddr, rpc.ServerConfig{Workers: 8, QueueCap: 1024}); err != nil {
			return fmt.Errorf("sentinel: %s: register coordination service: %w", cfg.Name, err)
		}
		n.zkLocal = n.zkSrv.NewSession()
		n.zkc = n.zkLocal
	} else {
		ep, ok := cfg.Peers[zkNode]
		if !ok {
			return fmt.Errorf("sentinel: %s: coordination node %q not in peers", cfg.Name, zkNode)
		}
		n.net.AddRoute(zkAddr, ep)
		bootCtx, done := context.WithTimeout(n.ctx, cfg.BootTimeout)
		n.zkRemote, err = connectZK(bootCtx, n.net)
		done()
		if err != nil {
			return fmt.Errorf("sentinel: %s: reach coordination service on %q: %w", cfg.Name, zkNode, err)
		}
		n.zkc = n.zkRemote
	}
	if err = zk.EnsurePath(n.zkc, clusterNodesPath); err != nil {
		return fmt.Errorf("sentinel: %s: ensure membership path: %w", cfg.Name, err)
	}
	return nil
}

// connectZK dials the coordination service until it answers or ctx
// expires — peers may still be booting, so a node that dials a moment
// early retries after milliseconds, backing off to a quarter second.
func connectZK(ctx context.Context, network *rpc.Network) (*zk.RemoteClient, error) {
	boff := resilience.Backoff{Base: 5 * time.Millisecond, Factor: 2, Max: 250 * time.Millisecond, Jitter: true}
	for attempt := 0; ; attempt++ {
		c, err := zk.Connect(ctx, network, zkAddr, zk.RemoteConfig{})
		if err == nil {
			return c, nil
		}
		if resilience.Sleep(ctx, boff.Delay(attempt)) != nil {
			return nil, err
		}
	}
}

// Name returns the node's cluster-unique name.
func (n *Node) Name() string { return n.cfg.Name }

// Addr returns the TCP endpoint the node's rpc transport listens on
// (empty on a node without peers).
func (n *Node) Addr() string { return n.addr }

// Handler returns the HTTP surface StartNode built: the /api/v1
// gateway, with the routes this node's roles cannot serve answering
// 503 (a node without the gateway role still serves metrics, the
// cluster map, health and readiness).
func (n *Node) Handler() http.Handler { return n.handler }

// record builds this node's membership payload: the znode stores, as
// JSON, the very entry /api/v1/cluster serves.
func (n *Node) record() v1.ClusterNode {
	r := v1.ClusterNode{Name: n.cfg.Name, Addr: n.addr}
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

// clusterRecords reads every live membership record, sorted by name; a
// node without peers is its own whole map.
func (n *Node) clusterRecords() ([]v1.ClusterNode, error) {
	if n.zkc == nil {
		return []v1.ClusterNode{n.record()}, nil
	}
	kids, err := n.zkc.Children(clusterNodesPath)
	if err != nil {
		return nil, err
	}
	recs := make([]v1.ClusterNode, 0, len(kids))
	for _, kid := range kids {
		data, _, err := n.zkc.Get(clusterNodesPath + "/" + kid)
		if err != nil {
			continue // departed between list and read
		}
		var r v1.ClusterNode
		if json.Unmarshal(data, &r) != nil {
			continue
		}
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Name < recs[j].Name })
	return recs, nil
}

// storeRoutes returns the TSD routes of every store node registered
// right now (their storage tier is up).
func (n *Node) storeRoutes() ([][]string, error) {
	recs, err := n.clusterRecords()
	var stores [][]string
	for _, r := range recs {
		if len(r.TSDs) > 0 {
			stores = append(stores, r.TSDs)
		}
	}
	return stores, err
}

// waitStores blocks until ExpectStores store nodes have registered:
// look, arm a children watch on the membership path, look again, wait
// for the watch — so boot waits for the registrations themselves, not
// for a poll interval. (A store registers with its TSD routes in the
// record it creates, so a new child is all there is to wait for.)
func (n *Node) waitStores() ([][]string, error) {
	ctx, cancel := context.WithTimeout(n.ctx, n.cfg.BootTimeout)
	defer cancel()
	enough := func() ([][]string, bool) {
		stores, err := n.storeRoutes()
		return stores, err == nil && len(stores) >= n.cfg.ExpectStores
	}
	for {
		if stores, ok := enough(); ok {
			return stores, nil
		}
		changed, err := n.zkc.WatchChildren(clusterNodesPath)
		if err != nil {
			return nil, fmt.Errorf("sentinel: %s: watch membership: %w", n.cfg.Name, err)
		}
		if stores, ok := enough(); ok {
			return stores, nil
		}
		select {
		case <-changed:
		case <-ctx.Done():
			if n.ctx.Err() != nil {
				return nil, n.ctx.Err()
			}
			return nil, fmt.Errorf("sentinel: %s: timed out waiting for %d store node(s)", n.cfg.Name, n.cfg.ExpectStores)
		}
	}
}

// ClusterStatus renders the membership map — the GET /api/v1/cluster
// payload. Any node can serve it; the records themselves are pushed by
// their owners.
func (n *Node) ClusterStatus() v1.ClusterResponse {
	recs, _ := n.clusterRecords()
	return v1.ClusterResponse{Nodes: recs}
}

// EndStreams closes the anomaly tail StartNode attached, ending every
// SSE stream on Handler. It is for http.Server.RegisterOnShutdown: a
// graceful listener shutdown otherwise waits out streams that never go
// idle.
func (n *Node) EndStreams() {
	if n.tail != nil {
		n.tail.Close()
	}
}

// Shutdown is the graceful Close, for after the caller has stopped its
// HTTP listener: everything acked is delivered before the tiers go.
// Alone, every consumer of the log is in this process, so the bus
// drains (publishers now get ErrDraining) until the storage group has
// handed the proxy every record; with peers the log is replicated and
// what this node's writers had not committed is redelivered to the
// surviving members. Then the writers stop and the proxy drains what
// they handed it. Errors (ctx expiring mid-drain) do not stop the
// teardown.
func (n *Node) Shutdown(ctx context.Context) error {
	var errs []error
	if n.Bus != nil && !n.cfg.clustered() {
		if err := n.Bus.Drain(ctx); err != nil {
			errs = append(errs, fmt.Errorf("sentinel: %s: bus drain: %w", n.cfg.Name, err))
		}
	}
	if n.Writers != nil {
		n.Writers.Stop()
	}
	if n.Proxy != nil {
		if err := n.Proxy.Drain(ctx); err != nil {
			errs = append(errs, fmt.Errorf("sentinel: %s: proxy drain: %w", n.cfg.Name, err))
		}
	}
	n.Close()
	return errors.Join(errs...)
}

// Close tears the node down: maintenance, consumers and servers first,
// then the tiers under them. The ephemeral membership record is
// deleted eagerly so peers need not wait for session expiry.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		n.cancel()
		n.wg.Wait()
		if n.zkc != nil {
			_ = n.zkc.Delete(clusterNodesPath + "/" + n.cfg.Name)
		}
		if n.Compactor != nil {
			n.Compactor.Stop()
		}
		n.EndStreams()
		n.mu.Lock()
		pools := n.pools
		n.pools = nil
		n.mu.Unlock()
		for _, p := range pools {
			p.Stop()
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
		if n.ownNet {
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
