package repro

// The paper's numeric claims, one row each in Claims, and what the rows
// run: the storage rig behind Figure 2 and §III-B, and the §IV
// workloads. TestPaperClaims runs every row at CI size; cmd/tsdbench
// runs them at full size and writes BENCH_paper.json.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fdr"
	"repro/internal/hbase"
	"repro/internal/ingest"
	"repro/internal/proxy"
	"repro/internal/simdata"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// Size is how large a claim's run is: CI fits a row into the test suite
// in about a second, Full is the paper-scale run cmd/tsdbench makes.
type Size int

const (
	CI Size = iota
	Full
)

func bySize[T any](s Size, ci, full T) T {
	if s == Full {
		return full
	}
	return ci
}

// Claim is one of the paper's numeric claims next to ours. Run measures
// the values Measures names, the first of which is printed next to
// Paper. Holds is the rule that relates them; it is applied only to
// finite values, so a NaN or infinite measurement always fails.
// Unjudged, when set, says why a run's values cannot be judged at all —
// the host lacked what the claim is about — or "" when they can; such a
// run fails with ErrNotJudged instead of applying Holds.
type Claim struct {
	ID       string   `json:"id"`
	Section  string   `json:"section"`
	Says     string   `json:"says"`
	Paper    float64  `json:"paper"`
	Unit     string   `json:"unit"`
	Rule     string   `json:"rule"`
	Measures []string `json:"measures"`
	// WallClock rows measure rates, so tests skip them under the race
	// detector and -short. Remeasure allows one more run when the rule
	// fails, for a shape that transient host contention can bend.
	WallClock, Remeasure bool                                  `json:"-"`
	Run                  func(Size) ([]float64, error)         `json:"-"`
	Holds                func(paper float64, v []float64) bool `json:"-"`
	Unjudged             func(v []float64) string              `json:"-"`
}

// ErrNotJudged is a run whose host could not show what its claim is
// about. TestPaperClaims skips the row's judged subtest for it; tsdbench
// counts it as a claim that does not hold.
var ErrNotJudged = errors.New("not judged")

// Measure runs c at size s and applies its rule: err is the run's
// failure, or why the rule does not hold for the values v it measured.
func (c Claim) Measure(s Size) (v []float64, err error) {
	for try := 0; try < 2; try++ {
		if v, err = c.Run(s); err != nil {
			return v, err
		}
		if err = c.check(v); err == nil || !c.Remeasure {
			break
		}
	}
	return v, err
}

func (c Claim) check(v []float64) error {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%s = %v", c.Measures[i], x)
		}
	}
	if c.Unjudged != nil {
		if why := c.Unjudged(v); why != "" {
			return fmt.Errorf("%w: %s", ErrNotJudged, why)
		}
	}
	if !c.Holds(c.Paper, v) {
		return errors.New("rule fails: " + c.Rule)
	}
	return nil
}

// Report is a run of c as two lines: the paper's number and whether
// the rule holds, then every value the run measured, ours first.
func (c Claim) Report(v []float64, err error) string {
	verdict, vals := "holds", make([]string, len(v))
	switch {
	case errors.Is(err, ErrNotJudged):
		verdict = err.Error()
	case err != nil:
		verdict = "FAILS: " + err.Error()
	}
	for i, x := range v {
		vals[i] = c.Measures[i] + " " + num(x)
	}
	return fmt.Sprintf("%-4s %-12s %s: paper %s — %s\n     ours: %s", c.ID, c.Section, c.Unit, num(c.Paper), verdict, strings.Join(vals, " · "))
}

func num(x float64) string {
	if math.Abs(x) >= 1000 {
		return strconv.FormatFloat(x, 'f', 0, 64)
	}
	return strconv.FormatFloat(x, 'g', 4, 64)
}

// Figures the rows share: Fig. 2 (left)'s rate on 30 nodes, E1's paper
// number, and the per-node ceiling the rig emulates from it; and the
// paper's test level, α = q.
const (
	fig2At30      = 399000.0
	PaperNodeRate = fig2At30 / 30
	claimLevel    = 0.05
)

// Claims is the paper's evaluation, one row per claim.
var Claims = []Claim{{
	ID: "E1", Section: "Fig. 2 left", Paper: fig2At30, Unit: "samples/s on 30 nodes", WallClock: true, Remeasure: true,
	Says: "ingest grows linearly with storage nodes: about 11k samples/s per added node, 399k on 30",
	Rule: "each run 0.7–1.3× its ceiling (nodes × paper/30); most-nodes ÷ fewest-nodes rate 0.8–1.3× the node ratio",
	Measures: []string{"fit at 30 nodes", "slope per node", "R²", "rate ratio ÷ node ratio",
		"slowest run ÷ ceiling", "fastest run ÷ ceiling"},
	Run: func(s Size) ([]float64, error) {
		cfg := fig2Rig(s, bySize(s, 700*time.Millisecond, time.Second))
		var xs, ys, fs []float64
		for _, n := range bySize(s, []int{2, 4}, []int{10, 15, 20, 25, 30}) {
			cfg.Nodes = n
			r, err := boot(cfg, measured)
			if err != nil {
				return nil, err
			}
			xs, ys = append(xs, float64(n)), append(ys, r.Rate*PaperNodeRate/cfg.NodeRate)
			fs = append(fs, r.Rate/(float64(n)*cfg.NodeRate))
		}
		icpt, slope, r2 := telemetry.LinearFit(xs, ys)
		scale := ys[len(ys)-1] / ys[0] / (xs[len(xs)-1] / xs[0])
		return []float64{icpt + 30*slope, slope, r2, scale, slices.Min(fs), slices.Max(fs)}, nil
	},
	Holds: func(_ float64, v []float64) bool { return 0.8 <= v[3] && v[3] <= 1.3 && v[4] >= 0.7 && v[5] <= 1.3 },
}, {
	ID: "E2", Section: "Fig. 2 right", Paper: 1, Unit: "R² of the cumulative curve", WallClock: true,
	Says: "the ingest rate is stable: cumulative samples over time are a straight line",
	Rule: "R² ≥ paper − 0.01; rate > 0", Measures: []string{"R²", "rate"},
	Run: func(s Size) ([]float64, error) {
		cfg := fig2Rig(s, bySize(s, 720*time.Millisecond, 2*time.Second))
		cfg.Nodes = bySize(s, 3, 10)
		res, err := boot(cfg, func(r *Rig) (Result, error) { return r.run(bySize(s, 60*time.Millisecond, 100*time.Millisecond)), nil })
		_, slope, r2 := telemetry.LinearFit(res.At, res.Acked)
		return []float64{r2, slope * PaperNodeRate / cfg.NodeRate}, err
	},
	Holds: func(p float64, v []float64) bool { return v[0] >= p-0.01 && v[1] > 0 },
}, {
	ID: "E3", Section: "§III-B", Paper: 1, Unit: "write share of the hottest server, unsalted", WallClock: true,
	Says:     "sequential row keys put every write on one RegionServer; salting spreads them over all and raises the rate dramatically",
	Rule:     "unsalted share ≥ 0.95 × paper; salted share ≤ 2.5/nodes; salted rate ≥ 2× unsalted",
	Measures: []string{"unsalted hottest share", "salted hottest share × nodes", "salted ÷ unsalted rate"},
	Run: func(s Size) ([]float64, error) {
		// At full size the nodes run at the paper's rate: at a tenth of
		// it the unsalted hottest share read 0.966, next to its bound.
		cfg := fig2Rig(s, bySize(s, 600*time.Millisecond, 2*time.Second))
		cfg.Nodes, cfg.NodeRate = bySize(s, 4, 10), bySize(s, cfg.NodeRate, PaperNodeRate)
		off, on, err := ablate(cfg, func(c *RigConfig, on bool) { c.Salted = on }, measured)
		return []float64{off.Hottest, on.Hottest * float64(cfg.Nodes), on.Rate / off.Rate}, err
	},
	Holds: func(p float64, v []float64) bool { return v[0] >= 0.95*p && v[1] <= 2.5 && v[2] >= 2 },
}, {
	ID: "E4", Section: "§III-B", Paper: 0, Unit: "RegionServers crashed behind the proxy", WallClock: true,
	Says:     "producers writing straight to the TSDs crashed RegionServers through RPC-queue overflow; the proxy prevents it",
	Rule:     "crashed behind the proxy ≤ paper; crashed without it ≥ 1",
	Measures: []string{"crashed behind the proxy", "crashed without it"},
	// Slow nodes back the queues up fast; 48 units are 48 producers with
	// work at once: the unbounded-concurrency condition.
	Run: func(s Size) ([]float64, error) {
		cfg := RigConfig{Nodes: 3, NodeRate: bySize(s, 5000, PaperNodeRate), Salted: true, Units: 48, Sensors: 100,
			Window: bySize(s, 500*time.Millisecond, 2*time.Second), overload: true}
		off, on, err := ablate(cfg, func(c *RigConfig, on bool) { c.direct = !on }, measured)
		return []float64{float64(on.Crashed), float64(off.Crashed)}, err
	},
	Holds: func(p float64, v []float64) bool { return v[0] <= p && v[1] >= 1 },
}, {
	ID: "E4b", Section: "§III-B", Paper: 1, Unit: "× calls per sample, compaction on ÷ off",
	Says: "row compaction was disabled to cut the RPC calls to HBase: it costs calls per stored sample",
	Rule: "on ÷ off ≥ 2 × paper", Measures: []string{"on ÷ off", "calls per sample off", "calls per sample on"},
	Run: func(s Size) ([]float64, error) {
		cfg := RigConfig{Nodes: bySize(s, 2, 10), Salted: true, Units: bySize(s, 3, 5), Sensors: bySize(s, 20, 50)}
		off, on, err := ablate(cfg, func(c *RigConfig, on bool) { c.compaction = on }, compactionCalls)
		perOff, perOn := float64(off.Calls)/float64(off.Delivered), float64(on.Calls)/float64(on.Delivered)
		return []float64{perOn / perOff, perOff, perOn}, err
	},
	Holds: func(p float64, v []float64) bool { return v[0] >= 2*p },
}, {
	ID: "E5a", Section: "§IV", Paper: 0.40, Unit: "uncorrected FWER, 10 healthy sensors",
	Says: "testing each sensor at α = 0.05 gives a 5 % chance of a false alarm on 1 sensor and 40 % on 10",
	Rule: "FWER at m = 10 within 10 % of paper; at m = 1 within 20 % of α", Measures: []string{"FWER m=10", "FWER m=1"},
	Run: func(s Size) ([]float64, error) {
		var v []float64
		for _, m := range []int{10, 1} {
			fams, truth := pFamilies(int64(m), bySize(s, 4000, 100000), m, 0)
			met, err := score(fdr.Uncorrected, fams, truth)
			if err != nil {
				return nil, err
			}
			v = append(v, met.FWER())
		}
		return v, nil
	},
	Holds: func(p float64, v []float64) bool {
		return 0.9*p <= v[0] && v[0] <= 1.1*p && 0.8*claimLevel <= v[1] && v[1] <= 1.2*claimLevel
	},
}, {
	ID: "E5b", Section: "§IV", Paper: claimLevel, Unit: "FDR (q), 1000 sensors, 20 % faulty at 4σ",
	Says: "Benjamini–Hochberg keeps the false discovery rate at or below q without Bonferroni's loss of power",
	Rule: "BH FDR ≤ paper; BH power > Bonferroni power", Measures: []string{"BH FDR", "BH power", "Bonferroni power"},
	Run: func(s Size) ([]float64, error) {
		fams, truth := fdrFamilies(bySize(s, 64, 400))
		bh, err := score(fdr.BH, fams, truth)
		if err != nil {
			return nil, err
		}
		bonf, err := score(fdr.Bonferroni, fams, truth)
		return []float64{bh.FDR(), bh.Power(), bonf.Power()}, err
	},
	Holds: func(p float64, v []float64) bool { return v[0] <= p && v[1] > v[2] },
}, {
	ID: "E6", Section: "§IV-A", Paper: 939000, Unit: "samples/s", WallClock: true,
	Says:     "online evaluation runs at 939,000 sensor samples per second",
	Rule:     "samples per CPU-second ≥ paper; with ≥ 0.9 of a core spare, samples per wall second ≥ paper too",
	Measures: []string{"samples per CPU-second", "samples per wall second", "cores spare"},
	// The evaluator runs on one goroutine: judged on the CPU its window
	// was granted, a window that shared its core with other work still
	// shows the evaluator's speed, and the wall rate is judged too
	// whenever a whole core was there to take.
	Run: func(s Size) ([]float64, error) {
		ev, xs, ts, err := evalLoad()
		if err != nil {
			return nil, err
		}
		const probe = 20 * time.Millisecond
		before := spareCores(probe)
		window, n, start, cpu0 := bySize(s, 500*time.Millisecond, 3*time.Second), 0, time.Now(), cpuTime()
		for ; time.Since(start) < window; n++ {
			if _, err := ev.EvaluateBatch(xs, ts); err != nil {
				return nil, err
			}
		}
		wall, cpu := time.Since(start).Seconds(), (cpuTime() - cpu0).Seconds()
		samples := float64(n * len(xs) * len(xs[0]))
		return []float64{samples / cpu, samples / wall, min(before, spareCores(probe))}, nil
	},
	Holds: func(p float64, v []float64) bool { return v[0] >= p && (v[2] < 0.9 || v[1] >= p) },
}, {
	ID: "E7", Section: "§IV-A", Paper: 1, Unit: "× speed-up over one unit at a time", WallClock: true,
	Says: "offline training fits one unit at a time; training units concurrently is the paper's ongoing work",
	Rule: "over ≥ 3 of 5 pairs run with two cores spare: serial ÷ concurrent > paper, the concurrent phase granted " +
		"> 1.25× the serial phase's CPU per wall second; with fewer such pairs, not judged",
	Measures: []string{"serial ÷ concurrent", "concurrent ÷ serial CPU per wall second", "pairs with two cores spare", "GOMAXPROCS"},
	Run: func(s Size) ([]float64, error) {
		speedup, ratio, spare, err := trainSpeedup(bySize(s, 16, 64), bySize(s, 120, 200), bySize(s, 200, 256))
		return []float64{speedup, ratio, float64(spare), float64(runtime.GOMAXPROCS(0))}, err
	},
	// Concurrency shows only where a second core is free: a busy host,
	// or one proc, grants the concurrent phase no more CPU than the
	// serial one, so such a pair shows nothing either way. Given the
	// cores, a fleet fitted one unit at a time is still granted only
	// what the serial phase is (≈ 1×) and fails, whatever its wall-time
	// noise.
	Unjudged: func(v []float64) string {
		if v[2] < 3 {
			return fmt.Sprintf("%.0f of 5 pairs had two cores spare, 3 needed", v[2])
		}
		return ""
	},
	Holds: func(p float64, v []float64) bool { return v[0] > p && v[1] > 1.25 },
}}

// fig2Rig is E1–E3's rig: CI runs 10 units × 100 sensors against 40k
// samples/s per node (≈ 3× the paper's, so a window takes under a
// second); Full runs 20 × 100 at a tenth of the paper's per-node rate.
func fig2Rig(s Size, window time.Duration) RigConfig {
	return RigConfig{NodeRate: bySize(s, 40000, PaperNodeRate/10), Salted: true,
		Units: bySize(s, 10, 20), Sensors: 100, Window: window}
}

// pFamilies draws n families of m two-sided z-test p-values from a
// seeded source: the first m1 sensors are faulty (shifted 4σ), the
// rest healthy.
func pFamilies(seed int64, n, m, m1 int) (families [][]float64, truth []bool) {
	truth = make([]bool, m)
	for i := 0; i < m1; i++ {
		truth[i] = true
	}
	rng := rand.New(rand.NewSource(seed))
	families = make([][]float64, n)
	for f := range families {
		pv := make([]float64, m)
		for i := range pv {
			z := rng.NormFloat64()
			if truth[i] {
				z += 4
			}
			pv[i] = stats.ZTestPoint(z, 0, 1, stats.TwoSided).PValue
		}
		families[f] = pv
	}
	return families, truth
}

// fdrFamilies is E5b's workload, which BenchmarkFDRCorrections times:
// n families of 1,000 sensors, 200 of them faulty.
func fdrFamilies(n int) ([][]float64, []bool) { return pFamilies(5, n, 1000, 200) }

// score applies proc at claimLevel to every family.
func score(proc fdr.Procedure, families [][]float64, truth []bool) (fdr.Metrics, error) {
	var met fdr.Metrics
	for _, pv := range families {
		res, err := fdr.Apply(proc, pv, claimLevel)
		if err != nil {
			return met, err
		}
		met.Add(fdr.Score(res.Rejected, truth))
	}
	return met, nil
}

// evalLoad is E6's workload, which BenchmarkOnlineEvalThroughput times:
// a BH evaluator for one 1,000-sensor unit and a 64-row batch to score.
func evalLoad() (ev *core.Evaluator, xs [][]float64, ts []int64, err error) {
	fleet := simdata.NewFleet(simdata.Config{Units: 1, SensorsPerUnit: 1000, Seed: 9, FaultFraction: 0})
	model, err := core.TrainUnit(0, fleet.UnitWindow(0, 0, 512))
	if err != nil {
		return nil, nil, nil, err
	}
	xs, ts = fleet.UnitWindow(0, 1000, 64), make([]int64, 64)
	for i := range ts {
		ts[i] = int64(1000 + i)
	}
	ev, err = core.NewEvaluator(model, core.EvaluatorConfig{Procedure: fdr.BH})
	return ev, xs, ts, err
}

// trainSpeedup fits the same fleet with core.TrainFleet one unit at a
// time and concurrently, in five back-to-back pairs. It returns how many
// pairs had two cores to show concurrency on — at least 1.8 spare just
// before and just after the pair — and, over those pairs if there are
// three, else over all five, the medians of serial ÷ concurrent wall
// time and of the CPU per wall second the concurrent phase was granted
// over the serial phase's (getrusage around each phase).
func trainSpeedup(units, sensors, rows int) (speedup, grantRatio float64, spare int, err error) {
	fleet := simdata.NewFleet(simdata.Config{Units: units, SensorsPerUnit: sensors, Seed: 10, FaultOnset: 1 << 40})
	src := core.WindowFunc(func(unit int) ([][]float64, error) { return fleet.UnitWindow(unit, 0, rows), nil })
	ids := make([]int, units)
	for i := range ids {
		ids[i] = i
	}
	const probe = 20 * time.Millisecond
	var all, judged [2][]float64
	for try := 0; try < 5; try++ {
		before := spareCores(probe)
		var wall, grant [2]float64
		for i, concurrent := range []bool{false, true} {
			start, cpu0 := time.Now(), cpuTime()
			if _, err := core.TrainFleet(ids, src, nil, concurrent); err != nil {
				return 0, 0, 0, err
			}
			wall[i] = time.Since(start).Seconds()
			grant[i] = (cpuTime() - cpu0).Seconds() / wall[i]
		}
		pair := [2]float64{wall[0] / wall[1], grant[1] / grant[0]}
		free := min(before, spareCores(probe)) >= 1.8
		if free {
			spare++
		}
		for i, v := range pair {
			all[i] = append(all[i], v)
			if free {
				judged[i] = append(judged[i], v)
			}
		}
	}
	if spare >= 3 {
		all = judged
	}
	for _, vs := range all {
		slices.Sort(vs)
	}
	return all[0][len(all[0])/2], all[1][len(all[1])/2], spare, nil
}

// spareCores spins one goroutine per proc for d and returns the CPU
// seconds per wall second the host granted them: GOMAXPROCS on an idle
// host, less while other work holds its cores.
func spareCores(d time.Duration) float64 {
	start, cpu0 := time.Now(), cpuTime()
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
			}
		}()
	}
	wg.Wait()
	return (cpuTime() - cpu0).Seconds() / time.Since(start).Seconds()
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const (
	rigBatch = 500 // points per submission
	// rigWarmup runs before a window opens: the region servers' token
	// buckets start full.
	rigWarmup = 100 * time.Millisecond
	// The backpressure ablation's overload: region servers with short
	// RPC queues that crash after rigCrashAt overflows, behind TSDs that
	// are not the bottleneck and give HBase no backpressure (FailFast).
	rigQueueCap, rigCrashAt, rigTSDWorkers = 8, 32, 64
)

// RigConfig is what a Fig. 2 or §III-B row varies.
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
	// At and Acked are the window's ticks: seconds elapsed, and the
	// samples the TSDs had acked by then.
	At, Acked []float64
}

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

// measured is the run E1, E3 and E4 measure.
func measured(r *Rig) (Result, error) { return r.run(r.cfg.Window), nil }

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
// the window, with a tick every `every` of the window. The producers
// stop at the window's end; a delivery still in flight then is not
// counted.
func (r *Rig) run(every time.Duration) Result {
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
	var res Result
	tick := time.NewTicker(every)
	for elapsed := time.Duration(0); elapsed < r.cfg.Window; {
		<-tick.C
		elapsed = time.Since(start)
		res.At, res.Acked = append(res.At, elapsed.Seconds()), append(res.Acked, float64(r.Deploy.PointsWritten()-base))
	}
	tick.Stop()
	cancel()
	<-done
	res.Submitted, res.Failed, res.Delivered = submitted.Load(), failed.Load(), int64(res.Acked[len(res.Acked)-1])
	res.Rate = float64(res.Delivered) / res.At[len(res.At)-1]
	for _, s := range r.Cluster.WriteShares() {
		res.Hottest = max(res.Hottest, s)
	}
	for _, rs := range r.Cluster.RegionServers() {
		if rs.Crashed() {
			res.Crashed++
		}
	}
	return res
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
func ablate(cfg RigConfig, set func(c *RigConfig, on bool), run func(*Rig) (Result, error)) (off, on Result, err error) {
	for i, res := range []*Result{&off, &on} {
		set(&cfg, i == 1)
		if *res, err = boot(cfg, run); err != nil {
			return off, on, err
		}
	}
	return off, on, nil
}

// compactionCalls is the third §III-B finding's run: one TSD writes 20
// steps of the fleet and compacts every row it wrote; Calls counts the
// rpcs that cost.
func compactionCalls(r *Rig) (Result, error) {
	var pts []tsdb.Point
	for t := int64(0); t < 20; t++ {
		for u := 0; u < r.cfg.Units; u++ {
			for s := 0; s < r.cfg.Sensors; s++ {
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
	return Result{Delivered: int64(len(pts)), Calls: calls.Value() - before}, err
}
