// Command fdrbench regenerates the paper's §IV results:
//
//	fdrbench -sweep       # false-alarm control across corrections & sensor counts
//	fdrbench -throughput  # online evaluation rate (paper: 939k samples/s)
//	fdrbench -train       # offline training: one unit at a time vs GOMAXPROCS at once (ongoing-work E7)
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/fdr"
	"repro/internal/simdata"
	"repro/internal/stats"
)

func main() {
	var (
		sweep      = flag.Bool("sweep", false, "false-alarm sweep across procedures")
		throughput = flag.Bool("throughput", false, "online evaluation throughput")
		train      = flag.Bool("train", false, "offline training scaling")
		trials     = flag.Int("trials", 400, "Monte-Carlo trials per cell (sweep)")
		sensors    = flag.Int("sensors", 1000, "sensors per unit")
		units      = flag.Int("units", 100, "fleet units (train)")
		seconds    = flag.Float64("seconds", 3.0, "measurement window (throughput)")
	)
	flag.Parse()
	switch {
	case *sweep:
		runSweep(*trials)
	case *throughput:
		runThroughput(*sensors, *seconds)
	case *train:
		runTraining(*units, *sensors)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runSweep reproduces the §IV false-alarm arithmetic empirically: for
// m sensors at α=0.05, uncorrected testing trips FWER = 1-(1-α)^m
// (40% at m=10), Bonferroni is over-conservative, and BH controls the
// expected false-discovery proportion while keeping power.
func runSweep(trials int) {
	const alpha = 0.05
	rng := rand.New(rand.NewSource(1))
	fmt.Println("§IV: false alarms under multiple testing (α = q = 0.05)")
	fmt.Println("20% of sensors carry a 4σ fault; the rest are healthy.")
	fmt.Printf("\n%-8s %-22s %8s %8s %8s   closed-form FWER(uncorrected)\n", "sensors", "procedure", "FWER", "FDR", "power")
	for _, m := range []int{1, 10, 100, 1000} {
		m1 := m / 5
		truth := make([]bool, m)
		for i := 0; i < m1; i++ {
			truth[i] = true
		}
		for _, proc := range []fdr.Procedure{fdr.Uncorrected, fdr.Bonferroni, fdr.Holm, fdr.BH, fdr.BY} {
			var met fdr.Metrics
			for trial := 0; trial < trials; trial++ {
				pvals := make([]float64, m)
				for i := range pvals {
					mu := 0.0
					if truth[i] {
						mu = 4
					}
					pvals[i] = stats.ZTestPoint(rng.NormFloat64()+mu, 0, 1, stats.TwoSided).PValue
				}
				res, err := fdr.Apply(proc, pvals, alpha)
				if err != nil {
					log.Fatalf("fdrbench: %v", err)
				}
				met.Add(fdr.Score(res.Rejected, truth))
			}
			closed := ""
			if proc == fdr.Uncorrected {
				closed = fmt.Sprintf("1-(1-α)^%d = %.3f", m-m1, stats.FWER(alpha, m-m1))
			}
			fmt.Printf("%-8d %-22s %8.3f %8.3f %8.3f   %s\n", m, proc, met.FWER(), met.FDR(), met.Power(), closed)
		}
		fmt.Println()
	}
	fmt.Println("paper reference: α=0.05 ⇒ 5% FWER at 1 sensor, 40% at 10 sensors; FDR controls the error proportion instead.")
}

// runThroughput measures the online evaluator's samples/second — the
// §IV-A "939,000 sensor samples per second" figure. Evaluation is one
// B×d · d×K matrix multiplication per batch plus element-wise work.
func runThroughput(sensors int, seconds float64) {
	fleet := simdata.NewFleet(simdata.Config{Units: 1, SensorsPerUnit: sensors, Seed: 9, FaultFraction: 0})
	model, err := core.TrainUnit(0, fleet.UnitWindow(0, 0, 512))
	if err != nil {
		log.Fatalf("fdrbench: %v", err)
	}
	ev, err := core.NewEvaluator(model, core.EvaluatorConfig{Procedure: fdr.BH, Level: 0.05})
	if err != nil {
		log.Fatalf("fdrbench: %v", err)
	}
	const batch = 64
	xs := fleet.UnitWindow(0, 1000, batch)
	ts := make([]int64, batch)
	for i := range ts {
		ts[i] = int64(1000 + i)
	}
	start := time.Now()
	var samples int64
	for time.Since(start).Seconds() < seconds {
		if _, err := ev.EvaluateBatch(xs, ts); err != nil {
			log.Fatalf("fdrbench: %v", err)
		}
		samples += int64(batch * sensors)
	}
	rate := float64(samples) / time.Since(start).Seconds()
	fmt.Printf("§IV-A online evaluation throughput: %d sensors/unit, K=%d retained components\n", sensors, model.K)
	fmt.Printf("  %0.f samples/s (paper: 939,000 samples/s on their cluster)\n", rate)
}

// runTraining contrasts the paper's one-unit-at-a-time batch training
// with the stated ongoing work: training up to GOMAXPROCS units at once.
func runTraining(units, sensors int) {
	fleet := simdata.NewFleet(simdata.Config{Units: units, SensorsPerUnit: sensors, Seed: 10, FaultOnset: 1 << 40})
	src := core.WindowFunc(func(unit int) ([][]float64, error) {
		return fleet.UnitWindow(unit, 0, 256), nil
	})
	ids := make([]int, units)
	for i := range ids {
		ids[i] = i
	}
	fmt.Printf("§IV-A offline training: %d units × %d sensors, covariance+SVD per unit\n", units, sensors)
	for _, concurrent := range []bool{false, true} {
		start := time.Now()
		if _, err := core.TrainFleet(ids, src, nil, concurrent); err != nil {
			log.Fatalf("fdrbench: %v", err)
		}
		mode := "serial (paper's current system)"
		if concurrent {
			mode = "concurrent (paper's ongoing work)"
		}
		fmt.Printf("  %-36s %8.2fs\n", mode, time.Since(start).Seconds())
	}
}
