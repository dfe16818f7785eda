package repro

// The storage rig behind the paper's Figure 2 and its three §III-B
// findings, and the five experiments run on it: the shape tests,
// cmd/tsdbench and examples/ingestscaling call these.

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/hbase"
	"repro/internal/ingest"
	"repro/internal/proxy"
	"repro/internal/simdata"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// PaperNodeRate is the paper's commodity-node ingest ceiling in
// samples/s (≈ 11–13k per storage node, 399k on 30 nodes).
const PaperNodeRate = 13300.0

const (
	rigBatch = 500 // points per submission
	// rigWarmup runs before a window opens: the region servers' token
	// buckets start full.
	rigWarmup = 100 * time.Millisecond
	// The backpressure ablation's overload: region servers with short
	// RPC queues that crash after rigCrashAt overflows, behind TSDs that
	// are not the bottleneck and give HBase no backpressure (FailFast).
	rigQueueCap, rigCrashAt, rigTSDWorkers = 8, 32, 64
	// The row-compaction workload: 20 steps of at most 5 units × 50
	// sensors of the fleet.
	compactionSteps, compactionUnits, compactionSensors = 20, 5, 50
)

// RigConfig is what a Figure-2 experiment varies.
type RigConfig struct {
	// Nodes is the region server count; one TSD runs per node.
	Nodes int
	// NodeRate is each node's emulated ceiling in samples/s (0: none).
	NodeRate float64
	// Salted spreads row keys over Nodes salt buckets.
	Salted bool
	// Units × Sensors is the fleet; one producer streams each unit.
	Units, Sensors int
	// Window is how long a run is measured, after rigWarmup.
	Window time.Duration

	// Set by the ablations: the overload, producers writing to the TSDs
	// directly instead of through the proxy, row compaction.
	overload, direct, compaction bool
}

// Rig is one storage deployment: region servers, their TSDs, the
// proxy in front of them, and the simulated fleet.
type Rig struct {
	Cluster *hbase.Cluster
	Deploy  *tsdb.Deployment
	Proxy   *proxy.Proxy
	Fleet   *simdata.Fleet
	cfg     RigConfig
}

// Result is one run: what the TSDs acked in the window, and the state
// of the region servers at its end.
type Result struct {
	Nodes int
	// Submitted is what the producers' sink stored for them, warm-up
	// included, Failed the batches it refused; Delivered is what the
	// TSDs acked inside the window, at Rate samples/s.
	Submitted, Failed, Delivered int64
	Rate                         float64
	// Hottest is the largest region server's share of written cells,
	// Crashed how many are down.
	Hottest float64
	Crashed int
	// Calls counts rpcs on the cluster's network (row compaction).
	Calls int64
}

// CallsPerSample is the rpc cost of each delivered sample.
func (r Result) CallsPerSample() float64 { return float64(r.Calls) / float64(r.Delivered) }

// Pair is an ablation: the mechanism off, then on.
type Pair struct{ Off, On Result }

// NewRig boots the deployment cfg describes.
func NewRig(cfg RigConfig) (*Rig, error) {
	hcfg := hbase.Config{RegionServers: cfg.Nodes, ServiceRatePerRS: cfg.NodeRate}
	tcfg := tsdb.TSDConfig{CompactionEnabled: cfg.compaction}
	pcfg := proxy.Config{MaxInFlight: 2 * cfg.Nodes}
	if cfg.Salted {
		tcfg.SaltBuckets = cfg.Nodes
	}
	if cfg.overload {
		hcfg.RSQueueCap, hcfg.CrashOnOverflow = rigQueueCap, rigCrashAt
		tcfg.Workers, tcfg.QueueCap, tcfg.FailFast = rigTSDWorkers, 4*rigTSDWorkers, true
		pcfg.MaxInFlight = cfg.Nodes // below the region servers' queues
	}
	cluster, err := hbase.NewCluster(hcfg)
	if err != nil {
		return nil, err
	}
	r := &Rig{Cluster: cluster, cfg: cfg,
		Fleet: simdata.NewFleet(simdata.Config{Units: cfg.Units, SensorsPerUnit: cfg.Sensors, Seed: 42})}
	if r.Deploy, err = tsdb.NewDeployment(cluster, cfg.Nodes, tcfg); err == nil {
		if err = r.Deploy.CreateTable(); err == nil {
			r.Proxy, err = proxy.New(cluster.Network(), r.Deploy.Addrs(), pcfg)
		}
	}
	if err != nil {
		cluster.Stop()
		return nil, err
	}
	return r, nil
}

// Close stops the proxy and the cluster.
func (r *Rig) Close() {
	r.Proxy.Close()
	r.Cluster.Stop()
}

// measured is the run the sweep and two ablations measure.
func measured(r *Rig) (Result, error) {
	res, _ := r.run(r.cfg.Window)
	return res, nil
}

// sink is what the producers write to: the proxy, or in the unbuffered
// ablation the TSDs themselves, round-robin.
func (r *Rig) sink() ingest.Sink {
	if !r.cfg.direct {
		return r.Proxy
	}
	var rr atomic.Uint64
	addrs, network := r.Deploy.Addrs(), r.Cluster.Network()
	return ingest.SinkFunc(func(pts []tsdb.Point) error {
		_, err := network.Call(context.Background(), addrs[rr.Add(1)%uint64(len(addrs))], "put", &tsdb.PutBatch{Points: pts})
		return err
	})
}

// run streams the fleet, one producer per unit, through the warm-up and
// the window, noting what the TSDs have acked every `every` of the
// window. The producers stop at the window's end; a delivery still in
// flight then is not counted.
func (r *Rig) run(every time.Duration) (Result, []telemetry.RateSample) {
	ctx, cancel := context.WithCancel(context.Background())
	driver := ingest.NewDriver(r.Fleet, r.sink(), ingest.DriverConfig{BatchSize: rigBatch, Senders: r.cfg.Units})
	var submitted, failed atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for step := int64(0); ctx.Err() == nil; step++ {
			st, _ := driver.RunContext(ctx, step, 1)
			submitted.Add(st.Samples)
			failed.Add(st.Failures)
		}
	}()
	time.Sleep(rigWarmup)
	base, start := r.Deploy.PointsWritten(), time.Now()
	var ticks []telemetry.RateSample
	var last telemetry.RateSample
	tick := time.NewTicker(every)
	for last.Elapsed < r.cfg.Window {
		<-tick.C
		at, acked := time.Since(start), r.Deploy.PointsWritten()-base
		last = telemetry.RateSample{Elapsed: at, Cumulative: acked, Rate: float64(acked-last.Cumulative) / (at - last.Elapsed).Seconds()}
		ticks = append(ticks, last)
	}
	tick.Stop()
	cancel()
	<-done
	res := Result{Nodes: r.cfg.Nodes, Submitted: submitted.Load(), Failed: failed.Load(),
		Delivered: last.Cumulative, Rate: float64(last.Cumulative) / last.Elapsed.Seconds()}
	for _, s := range r.Cluster.WriteShares() {
		res.Hottest = max(res.Hottest, s)
	}
	for _, rs := range r.Cluster.RegionServers() {
		if rs.Crashed() {
			res.Crashed++
		}
	}
	return res, ticks
}

// boot runs one experiment on a rig for cfg, then closes the rig.
func boot(cfg RigConfig, run func(*Rig) (Result, error)) (Result, error) {
	r, err := NewRig(cfg)
	if err != nil {
		return Result{}, err
	}
	defer r.Close()
	return run(r)
}

// ablate runs an experiment on a rig with a mechanism off, then on.
func ablate(cfg RigConfig, set func(c *RigConfig, on bool), run func(*Rig) (Result, error)) (p Pair, err error) {
	for i, res := range []*Result{&p.Off, &p.On} {
		set(&cfg, i == 1)
		if *res, err = boot(cfg, run); err != nil {
			return p, err
		}
	}
	return p, nil
}

// Sweep is Figure 2 (left): the delivered rate at each node count, and
// the least-squares line through them (samples/s per node, R²).
func Sweep(cfg RigConfig, nodes []int) (runs []Result, slope, r2 float64, err error) {
	var xs, ys []float64
	for _, n := range nodes {
		cfg.Nodes = n
		res, err := boot(cfg, measured)
		if err != nil {
			return nil, 0, 0, err
		}
		runs = append(runs, res)
		xs, ys = append(xs, float64(n)), append(ys, res.Rate)
	}
	_, slope, r2 = telemetry.LinearFit(xs, ys)
	return runs, slope, r2, nil
}

// StableRate is Figure 2 (right): cumulative samples acked every
// `every` through the window, and the line through them — a stable rate
// is a straight line (R² ≈ 1) whose slope is that rate.
func StableRate(cfg RigConfig, every time.Duration) (ticks []telemetry.RateSample, slope, r2 float64, err error) {
	r, err := NewRig(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	defer r.Close()
	_, ticks = r.run(every)
	var xs, ys []float64
	for _, t := range ticks {
		xs, ys = append(xs, t.Elapsed.Seconds()), append(ys, float64(t.Cumulative))
	}
	_, slope, r2 = telemetry.LinearFit(xs, ys)
	return ticks, slope, r2, nil
}

// Salting is the first §III-B finding: unsalted keys put every write on
// one region server; salted keys spread them over all of them.
func Salting(cfg RigConfig) (Pair, error) {
	return ablate(cfg, func(c *RigConfig, on bool) { c.Salted = on }, measured)
}

// Backpressure is the second §III-B finding: one producer per unit
// writing straight to the TSDs overflows the region servers' RPC queues
// until they crash; the same producers behind the proxy crash none.
func Backpressure(cfg RigConfig) (Pair, error) {
	cfg.Salted, cfg.overload = true, true
	return ablate(cfg, func(c *RigConfig, on bool) { c.direct = !on }, measured)
}

// Compaction is the third §III-B finding: OpenTSDB's row compaction
// multiplies the rpcs each stored sample costs. One TSD writes a slice
// of the fleet and compacts every row it wrote.
func Compaction(cfg RigConfig) (Pair, error) {
	cfg.Salted = true
	return ablate(cfg, func(c *RigConfig, on bool) { c.compaction = on }, func(r *Rig) (Result, error) {
		var pts []tsdb.Point
		for t := int64(0); t < compactionSteps; t++ {
			for u := 0; u < min(r.cfg.Units, compactionUnits); u++ {
				for s := 0; s < min(r.cfg.Sensors, compactionSensors); s++ {
					pts = append(pts, tsdb.EnergyPoint(u, s, t, r.Fleet.Value(u, s, t)))
				}
			}
		}
		tsd, calls := r.Deploy.TSDs()[0], &r.Cluster.Network().Calls
		before := calls.Value()
		err := tsd.Put(pts)
		if err == nil {
			_, err = tsd.CompactRows(1 << 40)
		}
		return Result{Nodes: r.cfg.Nodes, Delivered: int64(len(pts)), Calls: calls.Value() - before}, err
	})
}
