// Command harness proves the system's end-to-end contracts, one
// scenario per run: load (the admission contract at twice calibrated
// capacity), chaos (seeded faults against a running system) and cluster
// (four sentineld processes, the broker SIGKILLed mid-ingest). A
// scenario passes only if every check in its table did; the process
// otherwise exits non-zero naming the ones that failed. -out writes the
// scenario's section (seed, duration, checks, counters, pass) into a
// JSON report, keeping the other scenarios' sections.
//
//	harness -scenario load|chaos|cluster [-duration d] [-seed n] [-out report.json] [-bin sentineld]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	v1 "repro/internal/api/v1"
	"repro/internal/query"
	"repro/internal/tsdb"
	"repro/sentinel"
	"repro/sentinel/client"
)

type scenario struct {
	duration time.Duration // -duration when the flag is left at 0
	checks   []string      // every check the run makes, in report order
	run      func(cfg config, rep *report) error
}

var scenarios = map[string]scenario{
	"load":    {6 * time.Second, loadChecks, runLoad},
	"chaos":   {20 * time.Second, chaosChecks, runChaos},
	"cluster": {3 * time.Minute, clusterChecks, runCluster},
}

type config struct {
	seed     uint64
	duration time.Duration
	bin      string
}

func main() {
	name := flag.String("scenario", "", "load, chaos or cluster")
	duration := flag.Duration("duration", 0, "load: the open-loop drive, after min(duration/2, 5s) of calibration; chaos: the soak, each fault held a tenth of it; cluster: the deadline (0: the scenario's default)")
	seed := flag.Uint64("seed", 42, "seed for the simulated fleet, the fault injector and every jittered backoff")
	out := flag.String("out", "", "write the scenario's section into this JSON report")
	bin := flag.String("bin", "bin/sentineld", "cluster: the sentineld binary to launch")
	flag.Parse()
	sc, ok := scenarios[*name]
	if !ok {
		fmt.Fprintln(os.Stderr, "harness: -scenario must be load, chaos or cluster")
		os.Exit(2)
	}
	cfg := config{seed: *seed, duration: *duration, bin: *bin}
	if cfg.duration <= 0 {
		cfg.duration = sc.duration
	}
	rep := newReport(sc.checks, cfg)
	err := errors.Join(sc.run(cfg, rep), rep.verdict())
	rep.Pass = err == nil
	if *out != "" {
		err = errors.Join(err, writeSection(*out, *name, rep))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "harness: %s FAILED: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "harness: %s PASS (%d checks)\n", *name, len(rep.Checks))
}

type check struct {
	Name     string `json:"name"`
	Pass     bool   `json:"pass"`
	Observed string `json:"observed"`
}

// report is one scenario's section of the harness report.
type report struct {
	Seed     uint64         `json:"seed"`
	Duration string         `json:"duration"`
	Checks   []check        `json:"checks"`
	Counters map[string]any `json:"counters"`
	Pass     bool           `json:"pass"`
}

// newReport lists every check as not made: one the run never reaches fails.
func newReport(names []string, cfg config) *report {
	r := &report{Seed: cfg.seed, Duration: cfg.duration.String(), Counters: map[string]any{}}
	for _, n := range names {
		r.Checks = append(r.Checks, check{Name: n, Observed: "not made"})
	}
	return r
}

// check records a declared check's outcome, from the scenario's goroutine.
func (r *report) check(name string, pass bool, format string, args ...any) {
	i := slices.IndexFunc(r.Checks, func(c check) bool { return c.Name == name })
	if i < 0 {
		panic("harness: check " + strconv.Quote(name) + " is not in the scenario's table")
	}
	r.Checks[i] = check{Name: name, Pass: pass, Observed: fmt.Sprintf(format, args...)}
	fmt.Fprintf(os.Stderr, "harness: pass=%t %s: %s\n", pass, name, r.Checks[i].Observed)
}

// verdict names the checks that did not pass.
func (r *report) verdict() error {
	var failed []string
	for _, c := range r.Checks {
		if !c.Pass {
			failed = append(failed, c.Name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d checks failed: %s", len(failed), len(r.Checks), strings.Join(failed, "; "))
	}
	return nil
}

// writeSection replaces the scenario's section of the report at path.
func writeSection(path, name string, r *report) error {
	doc := map[string]json.RawMessage{}
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &doc)
	}
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%s: %w", path, err)
	}
	if doc[name], err = json.Marshal(r); err != nil {
		return err
	}
	if data, err = json.MarshalIndent(doc, "", "  "); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// waitFor polls ok every interval until it holds or ctx ends.
func waitFor(ctx context.Context, what string, every time.Duration, ok func() bool) error {
	for start := time.Now(); !ok(); {
		select {
		case <-ctx.Done():
			return fmt.Errorf("timed out waiting for %s after %s", what, time.Since(start).Round(time.Millisecond))
		case <-time.After(every):
		}
	}
	return nil
}

// orErr is a check's observed value, or err if the check could not look.
func orErr(err error, observed string) string {
	if err != nil {
		return err.Error()
	}
	return observed
}

// took is a wait's observed value: how long it took, or why it failed.
func took(start time.Time, err error) string {
	return orErr(err, "after "+time.Since(start).Round(time.Millisecond).String())
}

// timed makes check name pass if op succeeds within budget.
func (r *report) timed(name string, budget time.Duration, op func(context.Context) error) {
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	err := op(ctx)
	r.check(name, err == nil, "%s", took(start, err))
}

// serve puts sys's gateway, refusing through ctrl, behind a real listener
// with an SDK client whose retries are off: a shed is counted, not
// retried. Two idle conns per host would serialise the load workers.
func serve(sys *sentinel.System, ctrl *admission.Controller) (*client.Client, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	transport := &http.Transport{MaxIdleConns: 4096, MaxIdleConnsPerHost: 4096}
	cl, err := client.New("http://"+ln.Addr().String(), client.WithRetry(0, time.Millisecond),
		client.WithHTTPClient(&http.Client{Transport: transport, Timeout: 30 * time.Second}))
	if err != nil {
		ln.Close()
		return nil, nil, err
	}
	h, tail := sys.Gateway(0, sentinel.GatewayConfig{Admission: ctrl, AccessLog: log.New(io.Discard, "", 0)}) // no access lines at load rates
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return cl, func() { srv.Close(); tail.Close(); transport.CloseIdleConnections() }, nil
}

// ledger writes unit rows, one point per sensor, and records the (unit,
// ts, sensor) cells the gateway acked. Row i is unit i%units at base +
// i/units, so each cell has one row and a read-back can demand each.
type ledger struct {
	units, sensors int
	base           int64
	value          func(ts int64, unit, sensor int) float64
	seq            atomic.Int64
	mu             sync.Mutex
	acked          map[[3]int64]bool
}

func newLedger(units, sensors int, base int64, value func(ts int64, unit, sensor int) float64) *ledger {
	return &ledger{units: units, sensors: sensors, base: base, value: value, acked: map[[3]int64]bool{}}
}

func (l *ledger) next() int64 { return l.seq.Add(1) - 1 }

// span is the timestamps the reserved rows reach.
func (l *ledger) span() (from, to int64) { return l.base, l.base + l.seq.Load()/int64(l.units) }

// put sends row i and, once the gateway acked it, records its cells.
func (l *ledger) put(ctx context.Context, send func(context.Context, []v1.Point) (int, error), i int64) error {
	unit, ts := int(i%int64(l.units)), l.base+i/int64(l.units)
	pts := make([]v1.Point, l.sensors)
	for s := range pts {
		pts[s] = v1.Point{Metric: tsdb.MetricEnergy, Timestamp: ts, Value: l.value(ts, unit, s),
			Tags: map[string]string{"unit": strconv.Itoa(unit), "sensor": strconv.Itoa(s)}}
	}
	if _, err := send(ctx, pts); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for s := range pts {
		l.acked[[3]int64{int64(unit), ts, int64(s)}] = true
	}
	return nil
}

func (l *ledger) ackedSamples() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(len(l.acked))
}

// seriesLens counts the samples of each of a unit's series in [from, to].
type seriesLens func(ctx context.Context, unit int, from, to int64) ([]int, error)

// readBand reads [from, to] back unit by unit: the total and every series' count.
func readBand(ctx context.Context, units int, from, to int64, q seriesLens) (total int64, lens []int, err error) {
	for u := 0; u < units; u++ {
		n, err := q(ctx, u, from, to)
		if err != nil {
			return 0, nil, fmt.Errorf("read unit %d: %w", u, err)
		}
		lens = append(lens, n...)
	}
	for _, n := range lens {
		total += int64(n)
	}
	return total, lens, nil
}

// viaSDK reads through a gateway: exact series, no LTTB thinning.
func viaSDK(cl *client.Client) seriesLens {
	return func(ctx context.Context, unit int, from, to int64) ([]int, error) {
		series, err := cl.Query(ctx, client.QueryParams{Unit: strconv.Itoa(unit), From: from, To: to})
		lens := make([]int, len(series))
		for i := range series {
			lens[i] = len(series[i].Samples)
		}
		return lens, err
	}
}

// viaEngine reads through a query engine: with MaxEntries -1, storage.
func viaEngine(eng *query.Engine) seriesLens {
	return func(ctx context.Context, unit int, from, to int64) ([]int, error) {
		series, err := eng.QueryContext(ctx, tsdb.Query{Metric: tsdb.MetricEnergy,
			Tags: map[string]string{"unit": strconv.Itoa(unit)}, Start: from, End: to})
		lens := make([]int, len(series))
		for i := range series {
			lens[i] = len(series[i].Samples)
		}
		return lens, err
	}
}
