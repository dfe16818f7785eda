// Command tsdbench regenerates the paper's Figure 2 and the §III-B
// engineering findings on the simulated cluster:
//
//	tsdbench -sweep                 # Fig. 2 left: throughput vs node count
//	tsdbench -series -nodes 10      # Fig. 2 right: cumulative samples vs time
//	tsdbench -ablation salting      # §III-B: salted vs unsalted keys
//	tsdbench -ablation backpressure # §III-B: proxy vs unbuffered ingestion
//	tsdbench -ablation compaction   # §III-B: row compaction RPC overhead
//
// The per-node service rate emulates the paper's commodity-node
// ceiling (~13.3k samples/s/node), accelerated by -speedup so a sweep
// finishes in seconds; printed rates are rescaled to paper-scale. The
// experiments themselves live in the root package (experiments.go);
// this command parses flags and prints.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro"
)

func main() {
	var (
		sweep    = flag.Bool("sweep", false, "run the Figure 2 (left) node sweep")
		series   = flag.Bool("series", false, "run the Figure 2 (right) stable-rate series")
		ablation = flag.String("ablation", "", "run an ablation: salting | backpressure | compaction")
		nodes    = flag.Int("nodes", 10, "node count for -series and ablations")
		rate     = flag.Float64("rate", repro.PaperNodeRate, "emulated per-node service rate (samples/s, paper scale)")
		speedup  = flag.Float64("speedup", 1, "time acceleration factor (1 = real paper-scale rates)")
		seconds  = flag.Float64("seconds", 2.0, "wall-clock measurement window per configuration")
		units    = flag.Int("units", 100, "fleet units")
		sensors  = flag.Int("sensors", 1000, "sensors per unit")
	)
	flag.Parse()
	cfg := repro.RigConfig{
		Nodes: *nodes, NodeRate: *rate * *speedup, Salted: true,
		Units: *units, Sensors: *sensors, Window: time.Duration(*seconds * float64(time.Second)),
	}
	switch {
	case *sweep:
		fmt.Println("Figure 2 (left): ingestion throughput vs storage nodes")
		fmt.Printf("emulated per-node rate %.0f samples/s (paper scale), speedup ×%g\n\n", *rate, *speedup)
		fmt.Printf("%-8s %-22s %-22s\n", "nodes", "measured samples/s", "paper-scale samples/s")
		runs, slope, r2, err := repro.Sweep(cfg, []int{10, 15, 20, 25, 30})
		check(err)
		for _, r := range runs {
			fmt.Printf("%-8d %-22.0f %-22.0f\n", r.Nodes, r.Rate, r.Rate / *speedup)
		}
		fmt.Printf("\nlinear fit: %.0f samples/s per added node (paper: ~11k), R²=%.4f\n", slope / *speedup, r2)
		fmt.Println("paper reference: 10→173k, 15→233k, 20→257k, 25→325k, 30→399k samples/s")
	case *series:
		fmt.Printf("Figure 2 (right): cumulative samples vs time, %d nodes\n\n", *nodes)
		fmt.Printf("%-12s %-16s %-16s\n", "elapsed(s)", "cumulative", "interval rate/s")
		ticks, slope, r2, err := repro.StableRate(cfg, 100*time.Millisecond)
		check(err)
		for _, t := range ticks {
			fmt.Printf("%-12.2f %-16d %-16.0f\n", t.Elapsed.Seconds(), t.Cumulative, t.Rate)
		}
		fmt.Printf("\ncumulative-curve: slope %.0f samples/s, linearity R² = %.5f (stable rate ⇒ ≈1)\n", slope / *speedup, r2)
	case *ablation == "salting":
		fmt.Println("§III-B ablation: row-key salting")
		p, err := repro.Salting(cfg)
		check(err)
		for i, r := range []repro.Result{p.Off, p.On} {
			fmt.Printf("  salted=%-5v throughput=%8.0f samples/s  hottest-server share=%.0f%%\n",
				i == 1, r.Rate / *speedup, 100*r.Hottest)
		}
		fmt.Println("  (paper: salting gave a dramatic increase by using all RegionServers)")
	case *ablation == "backpressure":
		fmt.Println("§III-B ablation: buffering reverse proxy vs unbuffered clients")
		p, err := repro.Backpressure(cfg)
		check(err)
		for i, r := range []repro.Result{p.Off, p.On} {
			fmt.Printf("  buffered=%-5v delivered=%10d  failed-batches=%6d  crashed-regionservers=%d/%d\n",
				i == 1, r.Delivered, r.Failed, r.Crashed, r.Nodes)
		}
		fmt.Println("  (paper: without the proxy, RegionServers crashed from overloaded RPC queues)")
	case *ablation == "compaction":
		fmt.Println("§III-B ablation: OpenTSDB row compaction RPC cost")
		p, err := repro.Compaction(cfg)
		check(err)
		for i, r := range []repro.Result{p.Off, p.On} {
			fmt.Printf("  compaction=%-5v  RPC calls for %d samples: %d (%.3f calls/sample)\n",
				i == 1, r.Delivered, r.Calls, r.CallsPerSample())
		}
		fmt.Println("  (paper: compaction was disabled to reduce RPC calls to HBase)")
	case *ablation != "":
		log.Fatalf("tsdbench: unknown ablation %q", *ablation)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		log.Fatalf("tsdbench: %v", err)
	}
}
