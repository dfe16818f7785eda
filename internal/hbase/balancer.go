package hbase

import (
	"context"
	"errors"
	"fmt"
	"sort"
)

// Rebalance evens region counts across live servers by moving regions
// from the most- to the least-loaded ones. It supports the paper's
// first piece of ongoing work — "experimenting with increasing storage
// nodes to further scale up throughput" — where newly added region
// servers must take over existing regions before they contribute.
//
// A move is flush + close on the donor followed by open on the
// recipient (data comes back from the store files; nothing is lost
// because close flushes the memstore). It returns the number of
// regions moved.
func (m *Master) Rebalance() (int, error) {
	if !m.IsActive() {
		return 0, ErrNotActive
	}
	m.recMu.Lock()
	defer m.recMu.Unlock()
	live := m.liveServers()
	if len(live) == 0 {
		return 0, ErrNoServers
	}
	moved := 0
	// Iterate until balanced; each pass moves one region off the most
	// loaded server. Bounded by the region count.
	for pass := 0; pass < len(m.Regions())+1; pass++ {
		byServer := make(map[string][]RegionInfo, len(live))
		for _, s := range live {
			byServer[s] = nil
		}
		for _, ri := range m.Regions() {
			if _, ok := byServer[ri.Server]; ok {
				byServer[ri.Server] = append(byServer[ri.Server], ri)
			}
		}
		var maxS, minS string
		maxN, minN := -1, int(^uint(0)>>1)
		// Deterministic iteration for reproducible balancing.
		names := make([]string, 0, len(byServer))
		for s := range byServer {
			names = append(names, s)
		}
		sort.Strings(names)
		for _, s := range names {
			n := len(byServer[s])
			if n > maxN {
				maxN, maxS = n, s
			}
			if n < minN {
				minN, minS = n, s
			}
		}
		if maxN-minN <= 1 {
			break // balanced
		}
		// Move the highest-id region (cheapest heuristic; ids are stable).
		donor := byServer[maxS]
		sort.Slice(donor, func(i, j int) bool { return donor[i].ID < donor[j].ID })
		victim := donor[len(donor)-1]
		if err := m.moveRegion(victim, minS); err != nil {
			return moved, err
		}
		moved++
	}
	return moved, nil
}

// moveRegion relocates one region to target: flush+close on the old
// server, open on the new, republish.
func (m *Master) moveRegion(ri RegionInfo, target string) error {
	if ri.Server == target {
		return nil
	}
	if ri.Server != "" {
		if _, err := m.clu.net.Call(context.Background(), rsAddr(ri.Server), "close", &CloseRequest{Region: ri.ID}); err != nil && !errors.Is(err, ErrWrongRegion) {
			return fmt.Errorf("hbase: move close region %d: %w", ri.ID, err)
		}
	}
	if _, err := m.clu.net.Call(context.Background(), rsAddr(target), "open", &OpenRequest{Info: RegionInfo{ID: ri.ID, Start: ri.Start, End: ri.End}}); err != nil {
		return fmt.Errorf("hbase: move open region %d on %s: %w", ri.ID, target, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	reg, ok := m.regions[ri.ID]
	if !ok {
		return fmt.Errorf("hbase: move: region %d vanished", ri.ID)
	}
	reg.Server = target
	return m.publishLocked(reg)
}
