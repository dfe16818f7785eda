// Command clustersmoke is the gating multi-process failover check: it
// boots a four-process cluster from a sentineld binary (one broker,
// two stores, one detect+gateway node hosting coordination), ingests
// through the gateway with the Go SDK, SIGKILLs the broker mid-stream,
// keeps ingesting, and then proves:
//
//   - zero acked-sample loss: every sample the gateway acked with a
//     2xx is read back through the fanned-out query tier (publishes
//     replicate synchronously to every bus replica before acking, so
//     a promoted store serves the full acked prefix);
//   - failover visibility: /api/v1/cluster shows a surviving node
//     leading the partition group with a recorded promotion;
//   - the detection path: an injected level shift arrives on the SSE
//     anomaly stream.
//
// It logs two control-plane latencies: the four-process boot ("cluster
// up after …", first spawn to a ready gateway) and the time from the
// SIGKILL to the promoted leader showing on /api/v1/cluster (session
// expiry plus a membership refresh; no poll interval of its own).
//
// Exit status 0 on success; non-zero with diagnostics otherwise. Run
// via `make cluster-smoke`.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	v1 "repro/internal/api/v1"
	"repro/sentinel/client"
)

const (
	units   = 4
	sensors = 3
	warmup  = 20
	// Baseline steps before the level shift; the broker dies a third
	// of the way in.
	baseline = 40
	spikes   = 6
)

type proc struct {
	name string
	cmd  *exec.Cmd
}

func main() {
	bin := flag.String("bin", "bin/sentineld", "sentineld binary to launch")
	timeout := flag.Duration("timeout", 3*time.Minute, "overall deadline")
	flag.Parse()
	log.SetPrefix("clustersmoke: ")
	log.SetFlags(log.Ltime)

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	ports, err := freePorts(6)
	if err != nil {
		log.Fatal(err)
	}
	rpc := map[string]string{
		"broker":  fmt.Sprintf("127.0.0.1:%d", ports[0]),
		"store-1": fmt.Sprintf("127.0.0.1:%d", ports[1]),
		"store-2": fmt.Sprintf("127.0.0.1:%d", ports[2]),
		"dg":      fmt.Sprintf("127.0.0.1:%d", ports[3]),
	}
	brokerHTTP := fmt.Sprintf("127.0.0.1:%d", ports[4])
	gatewayHTTP := fmt.Sprintf("127.0.0.1:%d", ports[5])
	peers := fmt.Sprintf("broker=%s,store-1=%s,store-2=%s,dg=%s",
		rpc["broker"], rpc["store-1"], rpc["store-2"], rpc["dg"])

	common := []string{
		"-peers", peers,
		"-partitions", "4",
		"-units", strconv.Itoa(units),
		"-sensors", strconv.Itoa(sensors),
		"-stores", "2",
	}
	procs := make(map[string]*proc)
	spawn := func(name string, args ...string) *proc {
		cmd := exec.Command(*bin, append(args, common...)...)
		cmd.Stdout = prefixed(name)
		cmd.Stderr = prefixed(name)
		if err := cmd.Start(); err != nil {
			log.Fatalf("start %s: %v", name, err)
		}
		p := &proc{name: name, cmd: cmd}
		procs[name] = p
		return p
	}
	defer func() {
		for _, p := range procs {
			_ = p.cmd.Process.Signal(syscall.SIGTERM)
		}
		for _, p := range procs {
			_ = p.cmd.Wait()
		}
	}()

	bootStart := time.Now()
	// Boot order: the gateway first (it hosts the coordination service
	// everyone else's boot blocks on; it waits for the stores), then
	// the broker, which must win the initial bus election before the
	// stores join it — that makes the kill below deterministically hit
	// the leader with store followers behind it.
	spawn("dg", "-name", "dg", "-role", "detect,gateway",
		"-listen", rpc["dg"], "-http", gatewayHTTP,
		"-warmup", strconv.Itoa(warmup))
	broker := spawn("broker", "-name", "broker", "-role", "broker",
		"-listen", rpc["broker"], "-http", brokerHTTP, "-zk-node", "dg")
	if err := waitFor(ctx, "broker leads the bus election", fine, func() bool {
		body, err := httpGet("http://" + brokerHTTP + "/api/v1/metrics")
		return err == nil && strings.Contains(body, "cluster_partition_groups_led 1")
	}); err != nil {
		log.Fatal(err)
	}
	spawn("store-1", "-name", "store-1", "-role", "store",
		"-listen", rpc["store-1"], "-zk-node", "dg")
	spawn("store-2", "-name", "store-2", "-role", "store",
		"-listen", rpc["store-2"], "-zk-node", "dg")

	c, err := client.New("http://" + gatewayHTTP)
	if err != nil {
		log.Fatal(err)
	}
	if err := waitFor(ctx, "gateway ready", fine, func() bool {
		r, err := c.Ready(ctx)
		return err == nil && r.Ready
	}); err != nil {
		log.Fatal(err)
	}
	log.Printf("cluster up after %v: gateway on %s", time.Since(bootStart).Round(time.Millisecond), gatewayHTTP)

	// Tail the anomaly stream before any flag can fire.
	stream, err := c.StreamAnomalies(ctx)
	if err != nil {
		log.Fatal(err)
	}
	defer stream.Close()
	events := make(chan v1.AnomalyEvent, 1)
	go func() {
		if ev, err := stream.Next(); err == nil {
			events <- ev
		}
	}()

	// Ingest, killing the broker a third of the way in. Only samples
	// acked with a 2xx count; each step retries until acked, so the
	// acked set is exactly the full grid.
	acked := 0
	killAt := baseline / 3
	promoted := make(chan time.Duration, 1)
	for step := 0; step < baseline+spikes; step++ {
		if step == killAt {
			log.Printf("SIGKILL broker (pid %d) at step %d", broker.cmd.Process.Pid, step)
			if err := broker.cmd.Process.Kill(); err != nil {
				log.Fatalf("kill broker: %v", err)
			}
			killed := time.Now()
			_ = broker.cmd.Wait()
			delete(procs, "broker")
			go func() {
				if waitFor(ctx, "promoted leader on /api/v1/cluster", fine, func() bool {
					cm, err := c.Cluster(ctx)
					return err == nil && promotedLeader(cm)
				}) == nil {
					promoted <- time.Since(killed)
				}
			}()
		}
		val := func(u, s int) float64 { return float64(10*u + s) }
		if step >= baseline {
			val = func(u, s int) float64 { return 1e6 }
		}
		n, err := putStep(ctx, c, int64(step), val)
		if err != nil {
			log.Fatalf("step %d never acked: %v", step, err)
		}
		acked += n
	}
	log.Printf("acked %d samples across %d steps (broker killed mid-ingest)", acked, baseline+spikes)

	// Zero acked loss: the fanned-out read tier must return every
	// acked sample exactly once (duplicates collapse by timestamp).
	if err := waitFor(ctx, "all acked samples readable", coarse, func() bool {
		series, err := c.Query(ctx, client.QueryParams{
			Metric: "energy", From: 0, To: int64(baseline + spikes - 1),
		})
		if err != nil {
			return false
		}
		got := 0
		for _, s := range series {
			got += len(s.Samples)
		}
		return got == acked
	}); err != nil {
		log.Fatalf("acked-sample loss: %v", err)
	}
	log.Printf("zero acked-sample loss: %d/%d samples read back", acked, acked)

	// Failover surfaced on the cluster map: a surviving node leads the
	// partition group and records a promotion.
	select {
	case d := <-promoted:
		log.Printf("promoted leader visible on /api/v1/cluster %v after SIGKILL", d.Round(time.Millisecond))
	case <-ctx.Done():
		log.Fatal("timed out waiting for a promoted leader on /api/v1/cluster")
	}

	// The level shift must have reached the SSE stream.
	select {
	case ev := <-events:
		log.Printf("anomaly event: unit %d sensor %d z %.1f", ev.Unit, ev.Sensor, ev.Z)
	case <-time.After(60 * time.Second):
		log.Fatal("no anomaly event on the SSE stream")
	case <-ctx.Done():
		log.Fatal(ctx.Err())
	}

	fmt.Println("CLUSTER SMOKE PASS")
}

// putStep writes one fleet-wide time step, retrying transient errors
// (the broker-kill handover window) until the gateway acks it.
func putStep(ctx context.Context, c *client.Client, step int64, val func(u, s int) float64) (int, error) {
	pts := make([]v1.Point, 0, units*sensors)
	for u := 0; u < units; u++ {
		for s := 0; s < sensors; s++ {
			pts = append(pts, v1.Point{
				Metric:    "energy",
				Timestamp: step,
				Value:     val(u, s),
				Tags:      map[string]string{"unit": strconv.Itoa(u), "sensor": strconv.Itoa(s)},
			})
		}
	}
	var lastErr error
	for i := 0; i < 600; i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		n, err := c.PutPoints(ctx, pts)
		if err == nil {
			return n, nil
		}
		lastErr = err
		time.Sleep(100 * time.Millisecond)
	}
	return 0, lastErr
}

// promotedLeader reports whether a node other than the killed broker
// leads the partition group and has recorded a promotion.
func promotedLeader(cm *v1.ClusterResponse) bool {
	for _, n := range cm.Nodes {
		if n.Name != "broker" && len(n.PartitionGroupsLed) > 0 && n.Promotions > 0 {
			return true
		}
	}
	return false
}

// Poll intervals of waitFor: fine for the waits whose duration is
// logged, coarse for the read-back check.
const (
	fine   = 20 * time.Millisecond
	coarse = 250 * time.Millisecond
)

func waitFor(ctx context.Context, what string, every time.Duration, ok func() bool) error {
	for start := time.Now(); ; {
		if ok() {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("timed out waiting for %s after %s", what, time.Since(start).Round(time.Second))
		case <-time.After(every):
		}
	}
}

func freePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	liss := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range liss {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		liss = append(liss, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return string(b), err
}

// prefixed returns a writer tagging each line with the process name.
func prefixed(name string) io.Writer {
	return &linePrefixer{prefix: "[" + name + "] "}
}

type linePrefixer struct {
	prefix string
	buf    []byte
}

func (w *linePrefixer) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	for {
		i := strings.IndexByte(string(w.buf), '\n')
		if i < 0 {
			break
		}
		fmt.Fprintf(os.Stderr, "%s%s\n", w.prefix, w.buf[:i])
		w.buf = w.buf[i+1:]
	}
	return len(p), nil
}
