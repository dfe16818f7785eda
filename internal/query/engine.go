package query

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/resilience"
	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// ErrNoBackends means the engine was built with no TSD addresses.
var ErrNoBackends = errors.New("query: no backends")

// ErrCircuitOpen means a shard could not be attempted at all because
// every backend's circuit breaker was open.
var ErrCircuitOpen = errors.New("query: all backend circuits open")

// degradedMarkerKey carries a *DegradedMarker through a request ctx.
type degradedMarkerKey struct{}

// DegradedMarker is an out-of-band flag the engine sets when it serves
// stale (past-watermark) data instead of failing. The gateway installs
// one per request with WithDegradedMarker and translates it into the
// X-Sentinel-Degraded header and the v1 DTO `degraded` field without
// the Querier interface having to change shape.
type DegradedMarker struct {
	v atomic.Bool
}

// Set marks the request degraded.
func (m *DegradedMarker) Set() { m.v.Store(true) }

// Degraded reports whether the request was marked.
func (m *DegradedMarker) Degraded() bool { return m.v.Load() }

// WithDegradedMarker returns a ctx carrying a fresh marker, and the
// marker itself for inspection after the request completes.
func WithDegradedMarker(ctx context.Context) (context.Context, *DegradedMarker) {
	m := &DegradedMarker{}
	return context.WithValue(ctx, degradedMarkerKey{}, m), m
}

// MarkDegraded flags the request's marker, when one is installed. It
// is exported so any Querier implementation (not just the engine) can
// signal a stale or partial answer to the gateway.
func MarkDegraded(ctx context.Context) {
	if m, ok := ctx.Value(degradedMarkerKey{}).(*DegradedMarker); ok {
		m.Set()
	}
}

// Config tunes an Engine.
type Config struct {
	// MaxEntries is the window-cache capacity in entries (default 512;
	// negative disables caching and singleflight).
	MaxEntries int
	// Breakers, when set, adds per-TSD circuit breakers: shard
	// sub-queries skip backends whose circuit is open, and a shard
	// with no admissible backend fails fast with ErrCircuitOpen
	// instead of timing out against dead daemons.
	Breakers *resilience.Group
	// ServeStale, when true, answers from the window cache even past
	// its watermark when a fresh fetch fails — stale-but-marked
	// availability during storage outages. Degraded responses are
	// flagged on the request's DegradedMarker and counted in
	// DegradedServes; they are never re-cached as fresh.
	ServeStale bool
}

func (c Config) withDefaults() Config {
	if c.MaxEntries == 0 {
		c.MaxEntries = 512
	}
	return c
}

// Store is one store group: the TSD daemons of one deployment, which
// share its UID table and its write watermarks. Marks is that table
// when the deployment runs in this process; nil asks the store's TSDs
// for a window's version over rpc ("watermark").
type Store struct {
	Addrs []string
	Marks *tsdb.Watermarks
}

// Engine is the scatter-gather query tier: it fans each query's time
// range out across every store's TSD daemons over the RPC fabric,
// merges the results by series, bounds them with LTTB and serves
// repeats from the watermark-invalidated window cache. Safe for
// concurrent use.
type Engine struct {
	net    *rpc.Network
	stores []Store
	cfg    Config

	// mu guards the cache, the singleflight table and the key scratch.
	// It is held only for in-memory bookkeeping, never across a fetch.
	mu     sync.Mutex
	cache  *lru
	flight map[string]*flight
	key    keyScratch

	// rot rotates each fetch's first shard over a store's TSDs: a window
	// spanning fewer row-hours than the store has TSDs still spreads reads
	// (and half-open breaker probes) across all of them.
	rot atomic.Uint64

	// Queries counts calls; CacheHits/CacheMisses the cache outcome;
	// Collapsed queries that waited on another's in-flight fetch.
	Queries     telemetry.Counter
	CacheHits   telemetry.Counter
	CacheMisses telemetry.Counter
	Collapsed   telemetry.Counter
	// SubQueries counts shard RPCs issued; Failovers shard retries on
	// another TSD of the same store.
	SubQueries telemetry.Counter
	Failovers  telemetry.Counter
	// DegradedServes counts queries answered from stale cache under
	// ServeStale while the fresh path was failing.
	DegradedServes telemetry.Counter
	// Encodes counts the Encoder calls QueryEncoded made: one per cached
	// window and format, plus one per uncached read.
	Encodes telemetry.Counter
}

// New builds an engine over the store groups, whose TSD addresses are
// registered on (or routed by) net. A store without TSDs is skipped.
func New(net *rpc.Network, stores []Store, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{net: net, cfg: cfg, flight: make(map[string]*flight)}
	for _, s := range stores {
		if len(s.Addrs) > 0 {
			e.stores = append(e.stores, Store{Addrs: slices.Clone(s.Addrs), Marks: s.Marks})
		}
	}
	if cfg.MaxEntries > 0 {
		e.cache = newLRU(cfg.MaxEntries)
	}
	return e
}

// NewFromDeployment builds an engine spanning every TSD of d, wired to
// its network and write watermarks.
func NewFromDeployment(d *tsdb.Deployment, cfg Config) *Engine {
	return New(d.Cluster.Network(), []Store{{Addrs: d.Addrs(), Marks: d.Watermarks()}}, cfg)
}

// QueryContext serves q: from cache when fresh, otherwise by
// scatter-gathering the TSD tier (collapsing concurrent identical
// fetches). Returned series are shared — treat them as read-only.
func (e *Engine) QueryContext(ctx context.Context, q tsdb.Query) ([]tsdb.Series, error) {
	series, _, err := e.serve(ctx, q)
	return series, err
}

// Format names one encoded form of a window's series. A cached window
// keeps one slot of bytes per Format.
type Format uint8

const (
	// JSON is the series as one JSON array.
	JSON Format = iota
	// NDJSON is the series one JSON object a line.
	NDJSON
	numFormats
)

// Encoder renders a window's series in one Format. Its bytes are kept
// beside the cached window and served to every later reader of the same
// version, so it must depend on nothing but the series, and the bytes
// it returns must not be written afterwards.
type Encoder func([]tsdb.Series) ([]byte, error)

// QueryEncoded serves q as enc's bytes in format f. A window the cache
// holds is encoded once per format, by its first reader, and the bytes
// live and die with the window's entry: a write into the window and an
// eviction drop them with it, and a degraded serve from a stale entry
// returns that entry's bytes. A window the cache does not hold is
// encoded per call. Every call of enc counts in Encodes; the bytes are
// shared — treat them as read-only.
func (e *Engine) QueryEncoded(ctx context.Context, q tsdb.Query, f Format, enc Encoder) ([]byte, error) {
	series, ent, err := e.serve(ctx, q)
	if err != nil {
		return nil, err
	}
	if ent == nil {
		e.Encodes.Inc()
		return enc(series)
	}
	return ent.encode(f, enc, &e.Encodes)
}

// serve is QueryContext, plus the cache entry the series are (or, for
// a fill, now are) held as; nil when the cache does not hold them.
func (e *Engine) serve(ctx context.Context, q tsdb.Query) ([]tsdb.Series, *entry, error) {
	e.Queries.Inc()
	if len(e.stores) == 0 {
		return nil, nil, ErrNoBackends
	}
	if q.End < q.Start {
		return nil, nil, nil
	}
	if e.cache == nil {
		series, err := e.fetch(ctx, q)
		return series, nil, err
	}

	ver, known := e.version(ctx, &q)
	e.mu.Lock()
	key := e.key.key(&q)
	if ent, ok := e.cache.get(key); ok && known && ent.version == ver {
		e.CacheHits.Inc()
		e.mu.Unlock()
		return ent.series, ent, nil
	}
	e.CacheMisses.Inc()
	skey := string(key)
	if fl, ok := e.flight[skey]; ok {
		e.Collapsed.Inc()
		e.mu.Unlock()
		select {
		case <-fl.done:
			if fl.degraded {
				e.DegradedServes.Inc()
				MarkDegraded(ctx)
			}
			return fl.series, fl.ent, fl.err
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	fl := &flight{done: make(chan struct{})}
	e.flight[skey] = fl
	e.mu.Unlock()

	series, err := e.fetch(ctx, q)
	var ent *entry
	degraded := false
	if err != nil && e.cfg.ServeStale && !errors.Is(err, tsdb.ErrNoSuchMetric) {
		// The fresh path is down (open circuits, dead shards, a dead
		// store). A stale window — whatever version — beats an error
		// page; serve it marked so the caller can tell.
		e.mu.Lock()
		if stale, ok := e.cache.get([]byte(skey)); ok {
			ent, series, err, degraded = stale, stale.series, nil, true
		}
		e.mu.Unlock()
		if degraded {
			e.DegradedServes.Inc()
			MarkDegraded(ctx)
		}
	}
	e.mu.Lock()
	delete(e.flight, skey)
	if err == nil && !degraded && known {
		// ver was read before the fetch: a write racing the scan makes
		// the entry conservatively stale rather than wrongly fresh.
		ent = &entry{key: skey, series: series, version: ver}
		e.cache.add(ent)
	}
	e.mu.Unlock()
	fl.series, fl.ent, fl.err, fl.degraded = series, ent, err, degraded
	close(fl.done)
	return series, ent, err
}

// version is the write version of q's window across every store: the
// sum of each store's version of the row-hours the window overlaps, read
// from its watermarks in process or asked of its TSDs over rpc
// ("watermark", with the window as payload) — remote stores in
// parallel, failing over within a store. A store's version only grows,
// and a restarted store starts above its predecessor
// (tsdb.NewWatermarks), so the sum moves whenever any store takes a
// write the window could contain. known is false when a store could not
// answer.
func (e *Engine) version(ctx context.Context, q *tsdb.Query) (v uint64, known bool) {
	var futs []*rpc.Future
	var win *tsdb.QueryRequest
	for _, s := range e.stores {
		if s.Marks != nil {
			v += s.Marks.Version(q.Metric, q.Start, q.End)
			continue
		}
		if win == nil {
			win = &tsdb.QueryRequest{Query: tsdb.Query{Metric: q.Metric, Start: q.Start, End: q.End}}
		}
		futs = append(futs, e.net.Go(ctx, s.Addrs[0], "watermark", win))
	}
	known = true
	for _, s := range e.stores {
		if s.Marks != nil {
			continue
		}
		res, err := futs[0].Wait(ctx)
		futs = futs[1:]
		for _, addr := range s.Addrs[1:] {
			if err == nil {
				break
			}
			res, err = e.net.Call(ctx, addr, "watermark", win)
		}
		if err != nil {
			known = false
			continue
		}
		v += res.(uint64)
	}
	return v, known
}

// shard is one sub-window of a fetch, bound to a store.
type shard struct {
	store, slot int // store index; rotation slot among its TSDs
	win         [2]int64
	fut         *rpc.Future
	br          *resilience.Breaker
}

// merged is one series being assembled from shard results; mixed marks
// one that arrived from more than one store.
type merged struct {
	tsdb.Series
	store int
	mixed bool
}

// fetch scatter-gathers q: each store's TSDs shard the window,
// sub-queries are issued as pipelined futures, failures fail over to
// the store's other TSDs, and shard results merge into ID-sorted
// series. Stores partition the fleet by series, so a metric is unknown
// only when every store says so, and any store failing fails the query
// — a dead store is a hole across the fleet. A per-query MaxPoints
// bounds each merged series via LTTB — a rendering bound; counting
// queries leave it 0.
func (e *Engine) fetch(ctx context.Context, q tsdb.Query) ([]tsdb.Series, error) {
	var shards []shard
	rot := e.rot.Add(1) - 1
	for si, s := range e.stores {
		first := int(rot % uint64(len(s.Addrs)))
		for k, win := range shardWindow(q.Start, q.End, len(s.Addrs), q.DownsampleSeconds) {
			slot := first + k
			sh := shard{store: si, slot: slot, win: win}
			// With every circuit open there is no address: the shard
			// fails fast, and failover below re-probes in case a breaker
			// admits by then.
			if addr, br := e.pickAddr(s.Addrs, slot); addr != "" {
				e.SubQueries.Inc()
				sh.fut, sh.br = e.net.Go(ctx, addr, "query", subQuery(q, win)), br
			}
			shards = append(shards, sh)
		}
	}
	grouped := make(map[string]*merged)
	order := make([]string, 0, 8)
	missing := 0
	for k, sh := range shards {
		var res any
		err := error(ErrCircuitOpen)
		if sh.fut != nil {
			res, err = sh.fut.Wait(ctx)
			e.record(sh.br, err)
		}
		if err != nil && !errors.Is(err, tsdb.ErrNoSuchMetric) {
			// A store's TSDs share its UID table, so an unknown metric is
			// unknown on all of them — failing over on it would burn one
			// RPC per shard on the routine "metric not yet written" path
			// and misreport Failovers.
			res, err = e.failover(ctx, sh, q, err)
		}
		if errors.Is(err, tsdb.ErrNoSuchMetric) {
			missing++
			continue
		}
		if err != nil {
			// Failing the query abandons the shards not yet awaited;
			// their futures were already issued with probe slots
			// reserved, which must be released or their breakers wedge
			// half-open forever.
			for _, rest := range shards[k+1:] {
				if rest.fut != nil {
					e.recordWhenDone(rest.fut, rest.br)
				}
			}
			return nil, fmt.Errorf("query: shard [%d,%d]: %w", sh.win[0], sh.win[1], err)
		}
		for _, ser := range res.(*tsdb.QueryResponse).Series {
			id := ser.ID()
			m, ok := grouped[id]
			if !ok {
				grouped[id] = &merged{Series: ser, store: sh.store}
				order = append(order, id)
				continue
			}
			// A store's shards come in ascending time order, so a plain
			// append keeps one store's samples sorted.
			m.mixed = m.mixed || m.store != sh.store
			m.Samples = append(m.Samples, ser.Samples...)
		}
	}
	if missing == len(shards) {
		return nil, fmt.Errorf("%w: %s", tsdb.ErrNoSuchMetric, q.Metric)
	}
	sort.Strings(order)
	out := make([]tsdb.Series, 0, len(order))
	for _, id := range order {
		m := grouped[id]
		if m.mixed {
			// Two stores both hold the series — a batch replayed onto
			// another store after a failover. Equal timestamps collapse
			// to the first store's sample (idempotent writes make them
			// identical in practice).
			slices.SortStableFunc(m.Samples, func(a, b tsdb.Sample) int { return cmp.Compare(a.Timestamp, b.Timestamp) })
			m.Samples = slices.CompactFunc(m.Samples, func(a, b tsdb.Sample) bool { return a.Timestamp == b.Timestamp })
		}
		if q.MaxPoints > 0 {
			m.Samples = LTTB(m.Samples, q.MaxPoints)
		}
		out = append(out, m.Series)
	}
	return out, nil
}

// subQuery is q narrowed to one shard's window, as the TSD rpc payload.
func subQuery(q tsdb.Query, win [2]int64) *tsdb.QueryRequest {
	q.Start, q.End = win[0], win[1]
	return &tsdb.QueryRequest{Query: q}
}

// pickAddr returns the first breaker-admitted backend of addrs at or
// after rotation slot i, with its breaker (nil when breakers are off).
// The empty address means every circuit is open right now. An admitted
// half-open breaker has a probe slot reserved; the caller must report
// the call's outcome through record.
func (e *Engine) pickAddr(addrs []string, i int) (string, *resilience.Breaker) {
	n := len(addrs)
	if e.cfg.Breakers == nil {
		return addrs[i%n], nil
	}
	for k := 0; k < n; k++ {
		addr := addrs[(i+k)%n]
		if br := e.cfg.Breakers.For(addr); br.Allow() {
			return addr, br
		}
	}
	return "", nil
}

// recordWhenDone reports an abandoned in-flight future's eventual
// outcome to its breaker off the caller's goroutine, so half-open probe
// slots reserved at pickAddr are never leaked.
func (e *Engine) recordWhenDone(fut *rpc.Future, br *resilience.Breaker) {
	if br == nil {
		return
	}
	go func() {
		_, err := fut.Result()
		e.record(br, err)
	}()
}

// record reports a sub-query outcome to its breaker. ErrNoSuchMetric is
// a healthy backend answering "nothing written yet", not a failure;
// everything else — including abandoning a half-open probe at the
// caller's deadline — counts against the circuit so probe slots are
// always released.
func (e *Engine) record(br *resilience.Breaker, err error) {
	if br == nil {
		return
	}
	if err == nil || errors.Is(err, tsdb.ErrNoSuchMetric) {
		br.Success()
		return
	}
	br.Failure()
}

// failover retries one shard on every other TSD of its store in turn,
// skipping open circuits. It returns the last error when all of them
// reject the shard.
func (e *Engine) failover(ctx context.Context, sh shard, q tsdb.Query, err error) (any, error) {
	addrs := e.stores[sh.store].Addrs
	for off := 1; off < len(addrs); off++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		addr := addrs[(sh.slot+off)%len(addrs)]
		var br *resilience.Breaker
		if e.cfg.Breakers != nil {
			br = e.cfg.Breakers.For(addr)
			if !br.Allow() {
				continue
			}
		}
		e.Failovers.Inc()
		e.SubQueries.Inc()
		var res any
		res, err = e.net.Call(ctx, addr, "query", subQuery(q, sh.win))
		e.record(br, err)
		if err == nil || errors.Is(err, tsdb.ErrNoSuchMetric) {
			return res, err
		}
	}
	return nil, err
}

// shardWindow splits the inclusive window [from, to] into
// min(n, row-hours spanned) contiguous disjoint sub-windows, each a run
// of whole row-hours (tsdb.RowSeconds), so no two shards of a query scan
// the same hot row or decode the same sealed block, and a wide window
// still spreads across n TSDs. A boundary inside a downsample bucket
// (a width that does not divide the hour) moves down to the bucket's
// start, so no aggregation bucket spans two shards (which would yield
// two partial aggregates for one bucket after the merge).
func shardWindow(from, to int64, n int, width int64) [][2]int64 {
	if to < from {
		return nil
	}
	first := tsdb.BucketStart(from, tsdb.RowSeconds)
	hours := (tsdb.BucketStart(to, tsdb.RowSeconds)-first)/tsdb.RowSeconds + 1
	n = int(min(max(int64(n), 1), hours))
	out := make([][2]int64, 0, n)
	lo := from
	for i := 1; i < n; i++ {
		hi := first + hours*int64(i)/int64(n)*tsdb.RowSeconds - 1
		if width > 0 {
			hi = tsdb.BucketStart(hi+1, width) - 1
		}
		if hi < lo {
			continue // alignment swallowed this shard into the next
		}
		out = append(out, [2]int64{lo, hi})
		lo = hi + 1
	}
	return append(out, [2]int64{lo, to})
}
