package hbase

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/hdfs"
	"repro/internal/rpc"
)

// Config sizes a simulated HBase deployment. The defaults mirror the
// paper's topology scaled to in-process: one master and N region
// servers over one HDFS file table.
type Config struct {
	// RegionServers is the server count (default 3).
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
	// Clock drives rate emulation, latency and the clients' retry
	// pauses (default real clock).
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

// Cluster owns the whole simulated deployment: the HDFS file table, the
// master's region map (master.go), the region servers and the shared
// network.
type Cluster struct {
	cfg     Config
	net     *rpc.Network
	dfs     *hdfs.Cluster
	wal     *walStore
	servers []*RegionServer // sorted by name, fixed at boot

	// regMu guards the region map and the round-robin cursor, and is held
	// through a whole assignment change.
	regMu   sync.Mutex
	regions []RegionInfo // indexed by ID
	cursor  int

	stopped atomic.Bool
}

// NewCluster boots the deployment: the HDFS file table and
// cfg.RegionServers region servers, rs-1 to rs-N.
func NewCluster(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg: cfg,
		net: rpc.NewNetwork(cfg.NetLatency, cfg.Clock),
		dfs: hdfs.NewCluster(),
		wal: newWALStore(),
	}
	for i := 0; i < cfg.RegionServers; i++ {
		rs, err := startRegionServer(fmt.Sprintf("rs-%d", i+1), c)
		if err != nil {
			return nil, err
		}
		c.servers = append(c.servers, rs)
	}
	slices.SortFunc(c.servers, func(a, b *RegionServer) int { return strings.Compare(a.name, b.name) })
	return c, nil
}

// Network exposes the cluster's RPC fabric (the TSDB layer attaches
// its daemons to it).
func (c *Cluster) Network() *rpc.Network { return c.net }

// DFS exposes the underlying HDFS file table.
func (c *Cluster) DFS() *hdfs.Cluster { return c.dfs }

// RegionServer returns a server by name.
func (c *Cluster) RegionServer(name string) (*RegionServer, bool) {
	i := slices.IndexFunc(c.servers, func(rs *RegionServer) bool { return rs.name == name })
	if i < 0 {
		return nil, false
	}
	return c.servers[i], true
}

// RegionServers returns the servers sorted by name.
func (c *Cluster) RegionServers() []*RegionServer { return slices.Clone(c.servers) }

// KillRegionServer crashes a server (failure injection) and returns once
// the master has reopened its regions on the live servers from their
// store files and the dead server's WAL.
func (c *Cluster) KillRegionServer(name string) error {
	rs, ok := c.RegionServer(name)
	if !ok {
		return fmt.Errorf("hbase: unknown region server %q", name)
	}
	rs.server.Crash()
	c.reconcile()
	return nil
}

// Stop shuts everything down. A crash after it moves no region.
func (c *Cluster) Stop() {
	if !c.stopped.Swap(true) {
		c.net.Close()
	}
}

// TotalCellsWritten sums cells accepted across all region servers.
func (c *Cluster) TotalCellsWritten() int64 {
	var total int64
	for _, rs := range c.servers {
		total += rs.CellsWritten.Value()
	}
	return total
}

// heldBytes sums size over the regions the live servers host.
func (c *Cluster) heldBytes(size func(*region) int) int64 {
	var total int64
	for _, rs := range c.servers {
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
	total := float64(c.TotalCellsWritten())
	out := make(map[string]float64, len(c.servers))
	for _, rs := range c.servers {
		if total > 0 {
			out[rs.name] = float64(rs.CellsWritten.Value()) / total
		} else {
			out[rs.name] = 0
		}
	}
	return out
}
