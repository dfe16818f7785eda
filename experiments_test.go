package repro

// Experiment shape tests: each pins the qualitative claim the paper
// makes — who wins, by roughly what factor, where behaviour changes —
// with thresholds loose enough to pass on any machine.

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// scaledRate keeps the shape tests fast: per-node ceiling of 40k
// samples/s (3× paper) so a 3-node measurement finishes in well under
// a second.
const scaledRate = 40000.0

// shapeTest skips wall-clock rate shapes under the race detector (its
// ~10× slowdown flattens the token-bucket service rates) and -short.
func shapeTest(t *testing.T) {
	if raceEnabled {
		t.Skip("throughput-shape test: wall-clock rate assertions are meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
}

// shapeRig is the shape tests' workload: 10 units × 100 sensors.
func shapeRig(nodes int, window time.Duration) RigConfig {
	return RigConfig{Nodes: nodes, NodeRate: scaledRate, Salted: true, Units: 10, Sensors: 100, Window: window}
}

// TestRigDeliversWhatWasSubmitted runs the shared rig where the shape
// tests cannot: under -race and -short, with no rate ceiling. The proxy
// has delivered exactly what its submissions returned as stored, dropped
// nothing, and the region servers' write shares sum to 1.
func TestRigDeliversWhatWasSubmitted(t *testing.T) {
	r, err := NewRig(RigConfig{Nodes: 2, Salted: true, Units: 4, Sensors: 10, Window: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := r.run(r.cfg.Window)
	r.Close()
	if res.Submitted == 0 || res.Delivered == 0 {
		t.Fatalf("nothing moved: %+v", res)
	}
	if got := r.Proxy.Delivered.Value(); got != res.Submitted {
		t.Fatalf("proxy delivered %d, producers submitted %d", got, res.Submitted)
	}
	if d := r.Proxy.Dropped.Value(); d != 0 || res.Failed != 0 {
		t.Fatalf("dropped %d points, %d batches refused", d, res.Failed)
	}
	sum := 0.0
	for _, s := range r.Cluster.WriteShares() {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("write shares sum to %v, want 1", sum)
	}
}

// TestExperimentE1LinearScaleUp pins Figure 2 (left): doubling the
// node count roughly doubles delivered throughput when keys are
// salted and the proxy is in place.
func TestExperimentE1LinearScaleUp(t *testing.T) {
	shapeTest(t)
	// Wall-clock rate shapes wobble when the host is busy (parallel
	// package tests, CI neighbours); one re-measure absorbs transient
	// contention without loosening the linear-scaling claim.
	var lastErr string
	for attempt := 0; attempt < 2; attempt++ {
		runs, _, _, err := Sweep(shapeRig(0, 700*time.Millisecond), []int{2, 4})
		if err != nil {
			t.Fatal(err)
		}
		lastErr = ""
		if ratio := runs[1].Rate / runs[0].Rate; ratio < 1.6 || ratio > 2.6 {
			lastErr = fmt.Sprintf("4-node/2-node throughput ratio = %.2f (runs: %+v), want ≈2 (linear scale-up)", ratio, runs)
			continue
		}
		// Each configuration must run near its emulated aggregate ceiling.
		for _, run := range runs {
			if ceiling := scaledRate * float64(run.Nodes); run.Rate < 0.7*ceiling || run.Rate > 1.3*ceiling {
				lastErr = fmt.Sprintf("%d nodes delivered %.0f samples/s, want ≈%.0f", run.Nodes, run.Rate, ceiling)
				break
			}
		}
		if lastErr == "" {
			return
		}
	}
	t.Fatal(lastErr)
}

// TestExperimentE2StableRate pins Figure 2 (right): the cumulative
// delivery curve is linear in time (R² ≈ 1).
func TestExperimentE2StableRate(t *testing.T) {
	shapeTest(t)
	_, slope, r2, err := StableRate(shapeRig(3, 720*time.Millisecond), 60*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.99 {
		t.Fatalf("cumulative curve R² = %.4f, want ≥ 0.99 (unstable rate)", r2)
	}
	if slope <= 0 {
		t.Fatalf("slope = %v, want positive", slope)
	}
}

// TestExperimentE3SaltingFixesHotspot pins the §III-B key finding:
// without salting one RegionServer takes ~100% of writes and
// throughput is pinned near a single node's ceiling; salting spreads
// load and multiplies throughput.
func TestExperimentE3SaltingFixesHotspot(t *testing.T) {
	shapeTest(t)
	const nodes = 4
	p, err := Salting(shapeRig(nodes, 600*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if p.Off.Hottest < 0.95 {
		t.Fatalf("unsalted hottest-node share = %.2f, want ≈1 (hotspot)", p.Off.Hottest)
	}
	if p.On.Hottest > 2.5/float64(nodes) {
		t.Fatalf("salted hottest-node share = %.2f, want ≈1/%d", p.On.Hottest, nodes)
	}
	if p.On.Rate < 2*p.Off.Rate {
		t.Fatalf("salted %.0f vs unsalted %.0f samples/s: salting must give a dramatic increase", p.On.Rate, p.Off.Rate)
	}
}

// TestExperimentE4ProxyPreventsCrashes pins the second §III-B finding:
// unbounded producers crash RegionServers via RPC-queue overflow; the
// proxy's cap on concurrent requests prevents every crash.
func TestExperimentE4ProxyPreventsCrashes(t *testing.T) {
	shapeTest(t)
	// Slow nodes back the queues up fast; 48 units are 48 producers
	// with work at once — the unbounded-concurrency condition.
	p, err := Backpressure(RigConfig{Nodes: 3, NodeRate: 5000, Units: 48, Sensors: 100, Window: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if p.Off.Crashed == 0 {
		t.Fatal("unbuffered overload crashed no RegionServers; the §III-B failure mode is not reproduced")
	}
	if p.On.Crashed != 0 {
		t.Fatalf("buffered pipeline crashed %d RegionServers; the proxy must prevent crashes", p.On.Crashed)
	}
}

// TestExperimentRowCompactionRPCCost pins the remaining §III-B
// finding: row compaction multiplies RPC calls per sample, which is
// why the paper disabled it.
func TestExperimentRowCompactionRPCCost(t *testing.T) {
	p, err := Compaction(RigConfig{Nodes: 2, Units: 3, Sensors: 20})
	if err != nil {
		t.Fatal(err)
	}
	if off, on := p.Off.CallsPerSample(), p.On.CallsPerSample(); on < 2*off {
		t.Fatalf("compaction RPC cost %.3f vs %.3f calls/sample: expected ≥2× amplification", on, off)
	}
}
