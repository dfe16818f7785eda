package query

import (
	"context"
	"sort"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// Fanout extends the scatter-gather read tier across store nodes: one
// Engine per store group, each spanning that node's TSD daemons. A
// query goes to every group in parallel over the full window — groups
// partition the fleet by series (row-key salting spreads units across
// nodes), not by time, so every group must answer — and the per-group
// results merge by series identity.
//
// Merging dedups by timestamp within a series: at-least-once delivery
// and idempotent point writes mean two groups can both hold a sample
// (a replayed batch that landed twice after a failover), and the
// duplicate must not render as two points. Any group failure fails the
// query — a missing group is a hole across the whole fleet, which the
// per-engine PartialPolicy cannot see; degraded serving still applies
// inside each engine before its error surfaces here.
//
// Fanout satisfies viz.Querier, so a gateway node fronts a multi-store
// cluster exactly as it fronts one deployment. Safe for concurrent
// use.
type Fanout struct {
	engines []*Engine

	// Queries counts fanned-out calls; GroupErrors counts per-group
	// sub-query failures (each failed group fails its whole query).
	Queries     telemetry.Counter
	GroupErrors telemetry.Counter
}

// NewFanout builds a fanout over one engine per store group.
func NewFanout(engines ...*Engine) *Fanout {
	return &Fanout{engines: engines}
}

// QueryContext serves q from every store group in parallel and merges
// the results. With a single group it is exactly that engine's
// QueryContext.
func (f *Fanout) QueryContext(ctx context.Context, q tsdb.Query) ([]tsdb.Series, error) {
	f.Queries.Inc()
	if len(f.engines) == 0 {
		return nil, ErrNoBackends
	}
	if len(f.engines) == 1 {
		return f.engines[0].QueryContext(ctx, q)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([][]tsdb.Series, len(f.engines))
	errs := make([]error, len(f.engines))
	var wg sync.WaitGroup
	for i, e := range f.engines {
		wg.Add(1)
		go func(i int, e *Engine) {
			defer wg.Done()
			results[i], errs[i] = e.QueryContext(ctx, q)
		}(i, e)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			f.GroupErrors.Inc()
			return nil, err
		}
	}
	return mergeGroups(results), nil
}

// mergeGroups merges per-group result sets into ID-sorted series with
// timestamp-sorted, deduplicated samples. Engine results are shared
// (cached) and must stay read-only, so merged series are built fresh.
func mergeGroups(groups [][]tsdb.Series) []tsdb.Series {
	byID := make(map[string]*tsdb.Series)
	var order []string
	for _, group := range groups {
		for i := range group {
			src := &group[i]
			id := src.ID()
			dst, ok := byID[id]
			if !ok {
				dst = &tsdb.Series{Metric: src.Metric, Tags: src.Tags}
				byID[id] = dst
				order = append(order, id)
			}
			dst.Samples = append(dst.Samples, src.Samples...)
		}
	}
	sort.Strings(order)
	out := make([]tsdb.Series, 0, len(order))
	for _, id := range order {
		s := byID[id]
		sort.Slice(s.Samples, func(i, j int) bool { return s.Samples[i].Timestamp < s.Samples[j].Timestamp })
		// Dedup in place: equal timestamps collapse to the first sample
		// (idempotent writes make them identical in practice).
		kept := s.Samples[:0]
		for _, smp := range s.Samples {
			if n := len(kept); n > 0 && kept[n-1].Timestamp == smp.Timestamp {
				continue
			}
			kept = append(kept, smp)
		}
		s.Samples = kept
		out = append(out, *s)
	}
	return out
}
