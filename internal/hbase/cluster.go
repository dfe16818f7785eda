package hbase

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/hdfs"
	"repro/internal/rpc"
	"repro/internal/zk"
)

// Config sizes a simulated HBase deployment. The defaults mirror the
// paper's topology scaled to in-process: one active master, one backup
// master, N region servers each co-located with an HDFS datanode.
type Config struct {
	// RegionServers is the initial server count (default 3).
	RegionServers int
	// RSQueueCap bounds each region server's RPC queue (default 256).
	RSQueueCap int
	// RSWorkers is each region server's RPC handler pool (default 4).
	RSWorkers int
	// CrashOnOverflow, when > 0, crashes a region server after that
	// many queue overflows (the §III-B failure mode). Zero disables.
	CrashOnOverflow int64
	// FlushThresholdBytes auto-flushes a memstore beyond this size
	// (default 8 MiB; 0 keeps the default, use -1 to disable).
	FlushThresholdBytes int
	// ServiceRatePerRS emulates the per-node throughput ceiling in
	// cells/second (0 = unlimited). Figure 2 benchmarks calibrate this
	// to the paper's ~13k samples/s/node hardware.
	ServiceRatePerRS float64
	// NetLatency is the simulated per-RPC latency (default 0).
	NetLatency time.Duration
	// Clock drives rate emulation and latency (default real clock).
	Clock clock.Clock
}

func (c Config) withDefaults() Config {
	if c.RegionServers <= 0 {
		c.RegionServers = 3
	}
	if c.RSQueueCap <= 0 {
		c.RSQueueCap = 256
	}
	if c.RSWorkers <= 0 {
		c.RSWorkers = 4
	}
	if c.FlushThresholdBytes == 0 {
		c.FlushThresholdBytes = 8 << 20
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	return c
}

// serviceBurst sizes the token bucket burst: one tenth of a second of
// service, floored so small rates still make progress.
func (c Config) serviceBurst() float64 {
	b := c.ServiceRatePerRS / 10
	if b < 64 {
		b = 64
	}
	return b
}

// Cluster owns the whole simulated deployment: ZooKeeper, HDFS, both
// masters, the region servers and the shared network.
type Cluster struct {
	cfg Config
	net *rpc.Network
	zks *zk.Server
	dfs *hdfs.Cluster
	wal *walStore

	mu      sync.Mutex
	masters []*Master
	servers map[string]*RegionServer
	nextRS  int
	stopped bool
}

// NewCluster boots the deployment: HDFS datanodes, ZooKeeper, an
// active and a backup master, and cfg.RegionServers region servers.
func NewCluster(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:     cfg,
		net:     rpc.NewNetwork(cfg.NetLatency, cfg.Clock),
		zks:     zk.NewServer(),
		dfs:     hdfs.NewCluster(cfg.RegionServers),
		wal:     newWALStore(),
		servers: make(map[string]*RegionServer),
	}
	for i := 0; i < 2; i++ {
		m, err := startMaster(fmt.Sprintf("hmaster-%d", i+1), c)
		if err != nil {
			return nil, err
		}
		c.masters = append(c.masters, m)
	}
	for i := 0; i < cfg.RegionServers; i++ {
		if _, err := c.addRegionServer(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Network exposes the cluster's RPC fabric (the TSDB layer attaches
// its daemons to it).
func (c *Cluster) Network() *rpc.Network { return c.net }

// DFS exposes the underlying HDFS cluster.
func (c *Cluster) DFS() *hdfs.Cluster { return c.dfs }

// ZK exposes the coordination service.
func (c *Cluster) ZK() *zk.Server { return c.zks }

// masterAddrs lists master RPC addresses, active first when known.
func (c *Cluster) masterAddrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	addrs := make([]string, 0, len(c.masters))
	for _, m := range c.masters {
		if m.IsActive() {
			addrs = append([]string{masterAddr(m.name)}, addrs...)
		} else {
			addrs = append(addrs, masterAddr(m.name))
		}
	}
	return addrs
}

// ActiveMaster returns the currently leading master.
func (c *Cluster) ActiveMaster() (*Master, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.masters {
		if m.IsActive() {
			return m, nil
		}
	}
	return nil, ErrNotActive
}

// addRegionServer starts rs-<n> and registers it.
func (c *Cluster) addRegionServer() (*RegionServer, error) {
	c.mu.Lock()
	c.nextRS++
	name := fmt.Sprintf("rs-%d", c.nextRS)
	c.mu.Unlock()
	rs, err := startRegionServer(name, c)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.servers[name] = rs
	c.mu.Unlock()
	return rs, nil
}

// AddRegionServer scales the cluster out by one server and returns it.
// Newly created regions will land on it; existing regions stay put
// (the paper pre-splits before loading, so balance comes from the
// split count).
func (c *Cluster) AddRegionServer() (*RegionServer, error) {
	return c.addRegionServer()
}

// RegionServer returns a server by name.
func (c *Cluster) RegionServer(name string) (*RegionServer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rs, ok := c.servers[name]
	return rs, ok
}

// RegionServers returns the servers sorted by name.
func (c *Cluster) RegionServers() []*RegionServer {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*RegionServer, 0, len(c.servers))
	for _, rs := range c.servers {
		out = append(out, rs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// KillRegionServer crashes a server (failure injection). The master
// notices through the lost ZooKeeper lease and recovers its regions.
func (c *Cluster) KillRegionServer(name string) error {
	rs, ok := c.RegionServer(name)
	if !ok {
		return fmt.Errorf("hbase: unknown region server %q", name)
	}
	rs.crash()
	return nil
}

// CreateTable pre-splits the key space (see Master.CreateTable).
func (c *Cluster) CreateTable(splitKeys [][]byte) error {
	m, err := c.ActiveMaster()
	if err != nil {
		return err
	}
	return m.CreateTable(splitKeys)
}

// Stop shuts everything down.
func (c *Cluster) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	masters := append([]*Master(nil), c.masters...)
	c.mu.Unlock()
	for _, m := range masters {
		m.stop()
	}
	c.net.Close()
}

// TotalCellsWritten sums cells accepted across all region servers.
func (c *Cluster) TotalCellsWritten() int64 {
	var total int64
	for _, rs := range c.RegionServers() {
		total += rs.CellsWritten.Value()
	}
	return total
}

// heldBytes sums size over the regions the live servers host.
func (c *Cluster) heldBytes(size func(*region) int) int64 {
	var total int64
	for _, rs := range c.RegionServers() {
		if rs.Crashed() {
			continue // its regions were reopened elsewhere
		}
		rs.mu.RLock()
		for _, r := range rs.regions {
			total += int64(size(r))
		}
		rs.mu.RUnlock()
	}
	return total
}

// MemstoreBytes returns the bytes the live servers' memstores hold:
// row keys, packed entries (superseded ones included until their row
// repacks) and offset indexes.
func (c *Cluster) MemstoreBytes() int64 { return c.heldBytes((*region).memSize) }

// StoreFileBytes returns the bytes the live servers' store files hold in
// memory, counted the same way: a flush moves a memstore's bytes here.
func (c *Cluster) StoreFileBytes() int64 { return c.heldBytes((*region).fileSize) }

// WALBytes returns the record bytes the write-ahead logs hold: what was
// put and not yet flushed, on every server.
func (c *Cluster) WALBytes() int64 { return int64(c.wal.Bytes()) }

// WriteShares returns each live server's fraction of all written
// cells — the hotspotting diagnostic for the salting experiment.
func (c *Cluster) WriteShares() map[string]float64 {
	servers := c.RegionServers()
	total := float64(c.TotalCellsWritten())
	out := make(map[string]float64, len(servers))
	for _, rs := range servers {
		if total > 0 {
			out[rs.name] = float64(rs.CellsWritten.Value()) / total
		} else {
			out[rs.name] = 0
		}
	}
	return out
}
