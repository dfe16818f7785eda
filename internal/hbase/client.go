package hbase

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/rpc"
)

// ErrRetriesExhausted wraps the final failure after the client's retry
// budget runs out.
var ErrRetriesExhausted = errors.New("hbase: retries exhausted")

// ClientConfig tunes routing behaviour.
type ClientConfig struct {
	// MaxRetries bounds put/scan retries after region-map refreshes
	// (default 30 — failover takes a few refresh rounds).
	MaxRetries int
	// RetryBackoff is the pause between retries, on the cluster's
	// Config.Clock (default 5ms).
	RetryBackoff time.Duration
	// FailFast disables retries on queue overflow, surfacing
	// backpressure to the caller instead of absorbing it. The ingestion
	// proxy experiment uses this to contrast buffered vs unbuffered
	// pipelines.
	FailFast bool
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.MaxRetries <= 0 {
		c.MaxRetries = 30
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 5 * time.Millisecond
	}
	return c
}

// Client routes puts and scans to region servers using a cached region
// map, refreshing it from the master's snapshot on routing misses and
// failed calls — the same caching protocol HBase clients use.
// Multi-region batches are pipelined: the per-region RPCs are issued
// together through the fabric's futures and awaited as a group, so a
// batch costs one slowest-region round trip instead of the sum.
type Client struct {
	clu *Cluster
	cfg ClientConfig

	mu      sync.RWMutex
	regions []RegionInfo // sorted by start key
}

// NewClient returns a routing client for the cluster.
func (c *Cluster) NewClient(cfg ClientConfig) *Client {
	return &Client{clu: c, cfg: cfg.withDefaults()}
}

// cached returns the cached region map. A refresh replaces the slice
// and never writes into it, so the caller may keep it.
func (cl *Client) cached() []RegionInfo {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	return cl.regions
}

// refresh replaces the cached region map with the master's snapshot.
func (cl *Client) refresh() []RegionInfo {
	regions := cl.clu.Regions()
	cl.mu.Lock()
	cl.regions = regions
	cl.mu.Unlock()
	return regions
}

// retry pauses for the retry backoff on the cluster's clock — time for
// a crashed server's regions to reopen elsewhere — then refreshes the
// region map for the next attempt.
func (cl *Client) retry() []RegionInfo {
	cl.clu.cfg.Clock.Sleep(cl.cfg.RetryBackoff)
	return cl.refresh()
}

// locate returns the region containing key, refreshing once on miss.
func (cl *Client) locate(key []byte) (RegionInfo, error) {
	ri, ok := locateIn(cl.cached(), key)
	if ok {
		return ri, nil
	}
	ri, ok = locateIn(cl.refresh(), key)
	if !ok {
		return RegionInfo{}, fmt.Errorf("hbase: no region for key %q (table missing?)", key)
	}
	return ri, nil
}

// locateIn finds the region containing key in a sorted region list.
func locateIn(regions []RegionInfo, key []byte) (RegionInfo, bool) {
	// Binary search over start keys: find the last region whose start
	// is ≤ key.
	lo, hi := 0, len(regions)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		if regions[mid].Contains(key) {
			return regions[mid], true
		}
		if len(regions[mid].Start) == 0 || string(regions[mid].Start) <= string(key) {
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return RegionInfo{}, false
}

// Put writes cells with no deadline (see PutContext).
func (cl *Client) Put(cells []Cell) error {
	return cl.PutContext(context.Background(), cells)
}

// PutContext writes cells, grouping them by destination region,
// pipelining the per-region batches through futures, and retrying
// through failovers. It returns the first permanent error, or ctx's
// error once the deadline/cancellation cuts the retry loop.
func (cl *Client) PutContext(ctx context.Context, cells []Cell) error {
	return cl.mutate(ctx, cells, "put", func(id int, group []Cell) any {
		return &PutRequest{Region: id, Cells: group}
	}, cl.cfg.FailFast)
}

// Delete tombstones cells with no deadline (see DeleteContext).
func (cl *Client) Delete(cells []Cell) error {
	return cl.DeleteContext(context.Background(), cells)
}

// DeleteContext tombstones the (Row, Qual) slots of the given cells.
// It follows the same routing, pipelining and retry path as
// PutContext.
func (cl *Client) DeleteContext(ctx context.Context, cells []Cell) error {
	return cl.mutate(ctx, cells, "delete", func(id int, group []Cell) any {
		return &DeleteRequest{Region: id, Cells: group}
	}, false)
}

// mutate is the shared write path: group by region, issue every region
// RPC asynchronously, gather, and retry the failed groups.
func (cl *Client) mutate(ctx context.Context, cells []Cell, method string, req func(id int, group []Cell) any, failFast bool) error {
	if len(cells) == 0 {
		return nil
	}
	remaining := cells
	var lastErr error
	for attempt := 0; attempt <= cl.cfg.MaxRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		groups := make(map[int][]Cell)
		infos := make(map[int]RegionInfo)
		for _, c := range remaining {
			ri, err := cl.locate(c.Row)
			if err != nil {
				return err
			}
			groups[ri.ID] = append(groups[ri.ID], c)
			infos[ri.ID] = ri
		}
		// Pipeline: launch every region's RPC before waiting on any —
		// the batch overlaps across region servers.
		ids := make([]int, 0, len(groups))
		futs := make([]*rpc.Future, 0, len(groups))
		for id, group := range groups {
			ri := infos[id]
			ids = append(ids, id)
			futs = append(futs, cl.clu.net.Go(ctx, rsAddr(ri.Server), method, req(id, group)))
		}
		var failed []Cell
		for i, f := range futs {
			_, err := f.Wait(ctx)
			if err == nil {
				continue
			}
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			if errors.Is(err, rpc.ErrQueueOverflow) && failFast {
				return err // surface backpressure to the caller
			}
			if errors.Is(err, ErrCellTooLarge) {
				return err // no retry makes the cell fit
			}
			lastErr = err
			failed = append(failed, groups[ids[i]]...)
		}
		if len(failed) == 0 {
			return nil
		}
		remaining = failed
		cl.retry()
	}
	return fmt.Errorf("%w: %v", ErrRetriesExhausted, lastErr)
}

// Scan reads every row of [start, end) with no deadline (see
// ScanContext).
func (cl *Client) Scan(start, end []byte, limit int) ([]Cell, error) {
	return cl.ScanContext(context.Background(), start, end, limit, nil)
}

// ScanContext returns all cells in [start, end) across regions, sorted
// by (Row, Qual), of the rows keep matches (nil keeps every row): each
// region server drops the other rows before it merges, so they cost the
// scan nothing past their keys. limit <= 0 means unlimited; with a
// limit, the scan walks regions in order and stops once enough kept
// cells are gathered. Unlimited scans are pipelined across the
// overlapping regions.
func (cl *Client) ScanContext(ctx context.Context, start, end []byte, limit int, keep *RowFilter) ([]Cell, error) {
	var lastErr error
	for attempt := 0; attempt <= cl.cfg.MaxRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		regions := cl.cached()
		if attempt > 0 {
			regions = cl.retry()
		} else if len(regions) == 0 {
			regions = cl.refresh()
		}
		overlapping := regions[:0:0]
		for _, ri := range regions {
			if rangesOverlap(ri, start, end) {
				overlapping = append(overlapping, ri)
			}
		}
		var out []Cell
		var scanErr error
		if limit > 0 {
			out, scanErr = cl.scanSerial(ctx, overlapping, start, end, limit, keep)
		} else {
			out, scanErr = cl.scanPipelined(ctx, overlapping, start, end, keep)
		}
		if scanErr != nil {
			if errors.Is(scanErr, context.Canceled) || errors.Is(scanErr, context.DeadlineExceeded) {
				return nil, scanErr
			}
			lastErr = scanErr
			continue
		}
		// Regions are disjoint, listed in key order, and each returns
		// sorted cells: the concatenation is already sorted.
		if limit > 0 && len(out) > limit {
			out = out[:limit]
		}
		return out, nil
	}
	return nil, fmt.Errorf("%w: %v", ErrRetriesExhausted, lastErr)
}

// scanSerial walks regions one at a time so a satisfied limit skips
// the remaining regions entirely.
func (cl *Client) scanSerial(ctx context.Context, regions []RegionInfo, start, end []byte, limit int, keep *RowFilter) ([]Cell, error) {
	var out []Cell
	for _, ri := range regions {
		resp, err := cl.clu.net.Call(ctx, rsAddr(ri.Server), "scan", &ScanRequest{Region: ri.ID, Start: start, End: end, Limit: limit, Filter: keep})
		if err != nil {
			return nil, err
		}
		out = append(out, resp.(*ScanResponse).Cells...)
		if len(out) >= limit {
			break
		}
	}
	return out, nil
}

// scanPipelined issues every region scan concurrently and concatenates
// the results in region order.
func (cl *Client) scanPipelined(ctx context.Context, regions []RegionInfo, start, end []byte, keep *RowFilter) ([]Cell, error) {
	futs := make([]*rpc.Future, len(regions))
	for i, ri := range regions {
		futs[i] = cl.clu.net.Go(ctx, rsAddr(ri.Server), "scan", &ScanRequest{Region: ri.ID, Start: start, End: end, Filter: keep})
	}
	var out []Cell
	var firstErr error
	for _, f := range futs {
		resp, err := f.Wait(ctx)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		out = append(out, resp.(*ScanResponse).Cells...)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// rangesOverlap reports whether region ri intersects [start, end).
func rangesOverlap(ri RegionInfo, start, end []byte) bool {
	if len(end) > 0 && len(ri.Start) > 0 && string(end) <= string(ri.Start) {
		return false
	}
	if len(start) > 0 && len(ri.End) > 0 && string(start) >= string(ri.End) {
		return false
	}
	return true
}
