package hbase

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/zk"
)

// Errors surfaced by region servers.
var (
	ErrWrongRegion   = errors.New("hbase: region not served here")
	ErrKeyOutOfRange = errors.New("hbase: key outside region range")
	ErrCellTooLarge  = errors.New("hbase: cell field too long")
)

// RPC payload types exchanged with region servers.
type (
	// PutRequest writes cells into one region.
	PutRequest struct {
		Region int
		Cells  []Cell
	}
	// ScanRequest reads a key range from one region.
	ScanRequest struct {
		Region     int
		Start, End []byte
		Limit      int
	}
	// ScanResponse carries the matching cells.
	ScanResponse struct {
		Cells []Cell
	}
	// OpenRequest assigns a region to the server, optionally replaying
	// WAL records recovered from a dead server.
	OpenRequest struct {
		Info   RegionInfo
		Replay []walRecord
	}
	// DeleteRequest tombstones the (Row, Qual) slots of its cells.
	DeleteRequest struct {
		Region int
		Cells  []Cell
	}
	// CloseRequest flushes and unloads a region (used for splits).
	CloseRequest struct {
		Region int
	}
	// FlushRequest forces a memstore flush.
	FlushRequest struct {
		Region int
	}
	// CompactRequest merges a region's store files.
	CompactRequest struct {
		Region int
	}
)

// RegionServer hosts a set of regions and serves put/scan RPCs.
type RegionServer struct {
	name string
	clu  *Cluster

	mu      sync.RWMutex
	regions map[int]*region

	seq    atomic.Int64
	zsess  *zk.Session
	server *rpc.Server
	bucket *clock.TokenBucket

	// CellsWritten counts cells accepted by put RPCs — the "samples
	// ingested" measure behind Figure 2.
	CellsWritten telemetry.Counter
	// Scans counts scan RPCs served.
	Scans telemetry.Counter
	// Flushes counts memstore flushes.
	Flushes telemetry.Counter
}

// rsAddr returns the RPC address for a region server name.
func rsAddr(name string) string { return "rs/" + name }

// livenessPath returns the server's ephemeral znode path.
func livenessPath(name string) string { return "/hbase/rs/" + name }

// startRegionServer registers the server on the network and its
// liveness znode in ZooKeeper.
func startRegionServer(name string, clu *Cluster) (*RegionServer, error) {
	rs := &RegionServer{
		name:    name,
		clu:     clu,
		regions: make(map[int]*region),
		zsess:   clu.zks.NewSession(),
		bucket:  clock.NewTokenBucket(clu.cfg.ServiceRatePerRS, clu.cfg.serviceBurst(), clu.cfg.Clock),
	}
	if err := zk.EnsurePath(rs.zsess, "/hbase/rs"); err != nil {
		return nil, err
	}
	if err := rs.zsess.Create(livenessPath(name), []byte(name), true); err != nil {
		return nil, fmt.Errorf("hbase: register %s liveness: %w", name, err)
	}
	srv, err := clu.net.Register(rsAddr(name), rs.handle, rpc.ServerConfig{
		QueueCap:        clu.cfg.RSQueueCap,
		Workers:         clu.cfg.RSWorkers,
		CrashOnOverflow: clu.cfg.CrashOnOverflow,
		OnCrash:         rs.onCrash,
	})
	if err != nil {
		return nil, err
	}
	rs.server = srv
	return rs, nil
}

// Name returns the server's name.
func (rs *RegionServer) Name() string { return rs.name }

// Crashed reports whether the server is down.
func (rs *RegionServer) Crashed() bool { return rs.server.Crashed() }

// RPCStats exposes the underlying queue counters.
func (rs *RegionServer) RPCStats() (handled, overflows int64) {
	return rs.server.Handled.Value(), rs.server.Overflows.Value()
}

// onCrash drops the liveness lease so the master notices.
func (rs *RegionServer) onCrash() {
	rs.zsess.Close()
}

// crash kills the server (failure injection / overflow path).
func (rs *RegionServer) crash() { rs.server.Crash() }

// regionIDs returns the hosted region ids.
func (rs *RegionServer) regionIDs() []int {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	ids := make([]int, 0, len(rs.regions))
	for id := range rs.regions {
		ids = append(ids, id)
	}
	return ids
}

// handle is the RPC dispatch. The fabric threads the caller's context
// through (and rejects calls whose deadline lapsed while queued);
// region ops themselves are local, in-memory and short, so once a
// handler starts it runs to completion without consulting ctx.
func (rs *RegionServer) handle(_ context.Context, method string, payload any) (any, error) {
	switch method {
	case "put":
		return nil, rs.handlePut(payload.(*PutRequest))
	case "delete":
		del := payload.(*DeleteRequest)
		cells := make([]Cell, len(del.Cells))
		for i, c := range del.Cells { // handlePut copies what it keeps
			cells[i] = Cell{Row: c.Row, Qual: c.Qual, Tomb: true}
		}
		return nil, rs.handlePut(&PutRequest{Region: del.Region, Cells: cells})
	case "scan":
		return rs.handleScan(payload.(*ScanRequest))
	case "open":
		return nil, rs.handleOpen(payload.(*OpenRequest))
	case "close":
		return nil, rs.handleClose(payload.(*CloseRequest))
	case "flush":
		return nil, rs.handleFlush(payload.(*FlushRequest))
	case "compact":
		return nil, rs.handleCompact(payload.(*CompactRequest))
	default:
		return nil, fmt.Errorf("hbase: %s: unknown method %q", rs.name, method)
	}
}

func (rs *RegionServer) lookup(id int) (*region, error) {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	r, ok := rs.regions[id]
	if !ok {
		return nil, fmt.Errorf("%w: region %d on %s", ErrWrongRegion, id, rs.name)
	}
	return r, nil
}

func (rs *RegionServer) handlePut(req *PutRequest) error {
	r, err := rs.lookup(req.Region)
	if err != nil {
		return err
	}
	for _, c := range req.Cells {
		if !r.info.Contains(c.Row) {
			return fmt.Errorf("%w: region %d", ErrKeyOutOfRange, req.Region)
		}
		if err := checkCellLens(c); err != nil {
			return fmt.Errorf("%w: region %d: %v", ErrCellTooLarge, req.Region, err)
		}
	}
	// Emulated per-node service cost: one token per cell. This is what
	// gives the cluster a calibrated per-node throughput ceiling.
	rs.bucket.Take(float64(len(req.Cells)))
	// WAL first (durability), then memstore — in one step as far as a
	// flush snapshot is concerned (region.seqMu). Both copy the cells
	// into their own bytes.
	r.seqMu.Lock()
	seq := rs.seq.Add(1)
	rs.clu.wal.Append(rs.name, req.Region, seq, req.Cells)
	r.put(req.Cells, seq)
	r.seqMu.Unlock()
	rs.CellsWritten.Add(int64(len(req.Cells)))
	if th := rs.clu.cfg.FlushThresholdBytes; th > 0 && r.memSize() > th {
		if err := rs.flushRegion(r); err != nil {
			return err
		}
	}
	return nil
}

func (rs *RegionServer) handleScan(req *ScanRequest) (*ScanResponse, error) {
	r, err := rs.lookup(req.Region)
	if err != nil {
		return nil, err
	}
	rs.Scans.Inc()
	return &ScanResponse{Cells: r.scan(req.Start, req.End, req.Limit)}, nil
}

func (rs *RegionServer) handleOpen(req *OpenRequest) error {
	info := req.Info
	info.Server = rs.name
	r, flushedSeq, err := openRegion(info, rs.clu.dfs)
	if err != nil {
		return err
	}
	// This server's sequence may trail the one the region's previous
	// server flushed at. Sequences drawn below flushedSeq would leave the
	// region's maxSeq stalled there, so the next flush would name its
	// store file after the old one and cut this server's WAL at the
	// stale sequence — dropping acked cells written after the snapshot.
	for {
		cur := rs.seq.Load()
		if cur >= flushedSeq || rs.seq.CompareAndSwap(cur, flushedSeq) {
			break
		}
	}
	// Replay recovered WAL records newer than the flush marker, writing
	// them into this server's own WAL for durability.
	for _, rec := range req.Replay {
		if rec.Seq <= flushedSeq {
			continue
		}
		seq := rs.seq.Add(1)
		rs.clu.wal.Append(rs.name, info.ID, seq, rec.Cells)
		r.put(rec.Cells, seq)
	}
	rs.mu.Lock()
	rs.regions[info.ID] = r
	rs.mu.Unlock()
	return nil
}

func (rs *RegionServer) handleClose(req *CloseRequest) error {
	rs.mu.Lock()
	r, ok := rs.regions[req.Region]
	if ok {
		delete(rs.regions, req.Region)
	}
	rs.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: region %d on %s", ErrWrongRegion, req.Region, rs.name)
	}
	return rs.flushRegion(r)
}

func (rs *RegionServer) handleFlush(req *FlushRequest) error {
	r, err := rs.lookup(req.Region)
	if err != nil {
		return err
	}
	return rs.flushRegion(r)
}

func (rs *RegionServer) flushRegion(r *region) error {
	seq, err := r.flush(rs.clu.dfs)
	if err != nil {
		return err
	}
	if seq > 0 {
		rs.Flushes.Inc()
		rs.clu.wal.Truncate(rs.name, r.info.ID, seq)
	}
	return nil
}

func (rs *RegionServer) handleCompact(req *CompactRequest) error {
	r, err := rs.lookup(req.Region)
	if err != nil {
		return err
	}
	_, err = r.compact(rs.clu.dfs)
	return err
}
