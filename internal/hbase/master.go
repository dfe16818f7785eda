package hbase

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
)

// ErrNoServers means no live region server can take an assignment.
var ErrNoServers = errors.New("hbase: no live region servers")

// The master is the part of Cluster that owns the region map. It lays a
// table out once (CreateTable) and moves regions only when a region
// server crashes (reconcile). Every change runs under Cluster.regMu from
// start to end, so a client refreshing its cached map (Regions) reads it
// before or after a change, never half way through one.

// liveServers returns the servers that have not crashed, sorted by name.
func (c *Cluster) liveServers() []*RegionServer {
	var live []*RegionServer
	for _, rs := range c.servers {
		if !rs.Crashed() {
			live = append(live, rs)
		}
	}
	return live
}

// reconcile reopens the regions of crashed servers on live ones,
// replaying each dead server's WAL into them (the §III-B crash recovery
// path). A crash is what calls it: KillRegionServer directly, a queue
// overflow through the server's rpc OnCrash hook. Passes are serialised,
// so a second pass for the same crash finds nothing to move. A region no
// live server could take stays on its dead server until the next crash.
func (c *Cluster) reconcile() {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	if c.stopped.Load() {
		return
	}
	live := c.liveServers()
	dead := make(map[string]bool)
	for i := range c.regions { // in ID order
		ri := &c.regions[i]
		if ri.Server != "" && !slices.ContainsFunc(live, func(rs *RegionServer) bool { return rs.name == ri.Server }) {
			dead[ri.Server] = true
			_ = c.assignLocked(ri, live, ri.Server)
		}
	}
	for name := range dead {
		// Drop the recovered WAL only if nothing still points at the
		// dead server.
		if !slices.ContainsFunc(c.regions, func(ri RegionInfo) bool { return ri.Server == name }) {
			c.wal.Drop(name)
		}
	}
}

// assignLocked opens ri on the next live server round-robin, replaying
// the previous owner's WAL when there was one. The master lives in the
// store's process, so it opens the region by a direct call: an open
// never waits in, or is refused by, a busy server's rpc queue.
func (c *Cluster) assignLocked(ri *RegionInfo, live []*RegionServer, prevOwner string) error {
	replay, err := c.wal.EntriesFor(prevOwner, ri.ID, 0) // no owner has no log
	if err != nil {
		return err
	}
	if len(live) == 0 {
		return ErrNoServers
	}
	target := live[c.cursor%len(live)]
	c.cursor++
	if err := target.handleOpen(&OpenRequest{Info: *ri, Replay: replay}); err != nil {
		return fmt.Errorf("hbase: open region %d on %s: %w", ri.ID, target.name, err)
	}
	ri.Server = target.name
	return nil
}

// CreateTable lays the key space out in len(splitKeys)+1 regions and
// assigns them round-robin over the live servers — the paper's manual
// pre-split ("HBase regions were manually split to ensure each region
// handled an equal proportion of the writes"). Regions never split or
// move after this; only a crash reassigns them.
func (c *Cluster) CreateTable(splitKeys [][]byte) error {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	sorted := slices.Clone(splitKeys)
	slices.SortFunc(sorted, bytes.Compare)
	live := c.liveServers()
	if len(live) == 0 {
		return ErrNoServers
	}
	bounds := make([][]byte, 0, len(sorted)+2)
	bounds = append(bounds, nil)
	bounds = append(bounds, sorted...)
	bounds = append(bounds, nil)
	for i := 0; i+1 < len(bounds); i++ {
		c.regions = append(c.regions, RegionInfo{ID: len(c.regions), Start: bounds[i], End: bounds[i+1]})
		if err := c.assignLocked(&c.regions[len(c.regions)-1], live, ""); err != nil {
			return err
		}
	}
	return nil
}

// Regions returns a snapshot of the region map sorted by start key. It
// waits for an assignment change in progress to finish.
func (c *Cluster) Regions() []RegionInfo {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	out := slices.Clone(c.regions)
	slices.SortStableFunc(out, func(a, b RegionInfo) int { return bytes.Compare(a.Start, b.Start) })
	return out
}
