package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	v1 "repro/internal/api/v1"
	"repro/sentinel/client"
)

// The cluster scenario's broker dies a third of the way into ingest and
// is restarted under its own name at once, while its predecessor's zk
// session still lives. Publishes replicate to every bus replica before
// the ack, so a promoted store must serve the whole acked prefix.
const (
	clusterUnits, clusterSensors = 4, 3
	baseline, spikes             = 40, 6 // steps before and after the level shift
)

var clusterChecks = []string{
	"broker leads bus election",
	"gateway ready",
	"every step acked",
	"all acked samples read back",
	"promoted leader visible",
	"restarted broker on the map",
	"anomaly on SSE",
}

func runCluster(cfg config, rep *report) error {
	ctx, cancel := context.WithTimeout(context.Background(), cfg.duration)
	defer cancel()
	addrs, err := freeAddrs(6)
	if err != nil {
		return err
	}
	rpc := map[string]string{"broker": addrs[0], "store-1": addrs[1], "store-2": addrs[2], "dg": addrs[3]}
	brokerHTTP, gatewayHTTP := addrs[4], addrs[5]
	common := []string{"-partitions", "4", "-stores", "2", "-units", strconv.Itoa(clusterUnits), "-sensors", strconv.Itoa(clusterSensors),
		"-peers", fmt.Sprintf("broker=%s,store-1=%s,store-2=%s,dg=%s", rpc["broker"], rpc["store-1"], rpc["store-2"], rpc["dg"])}
	procs := map[string]*exec.Cmd{}
	defer func() {
		for _, p := range procs {
			_ = p.Process.Signal(syscall.SIGTERM)
		}
		for _, p := range procs {
			_ = p.Wait()
		}
	}()
	spawn := func(name, roles string, args ...string) error {
		cmd := exec.Command(cfg.bin, append(append([]string{"-name", name, "-role", roles, "-listen", rpc[name]}, args...), common...)...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		procs[name] = cmd
		return nil
	}

	// Every boot blocks on the gateway's coordination service. The broker
	// wins the bus election before the stores join: the kill hits a leader.
	boot := time.Now()
	if err := spawn("dg", "detect,gateway", "-http", gatewayHTTP, "-warmup", "20"); err != nil {
		return err
	}
	if err := spawn("broker", "broker", "-http", brokerHTTP, "-zk-node", "dg"); err != nil {
		return err
	}
	broker, err1 := client.New("http://"+brokerHTTP, client.WithRetry(0, 0)) // waitFor polls
	c, err2 := client.New("http://" + gatewayHTTP)
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	err = waitFor(ctx, "the broker to lead the bus election", 20*time.Millisecond, func() bool {
		body, err := broker.Metrics(ctx)
		return err == nil && strings.Contains(body, "cluster_partition_groups_led 1")
	})
	if rep.check("broker leads bus election", err == nil, "%s", took(boot, err)); err != nil {
		return nil
	}
	for _, store := range []string{"store-1", "store-2"} {
		if err := spawn(store, "store", "-zk-node", "dg"); err != nil {
			return err
		}
	}
	err = waitFor(ctx, "the gateway to be ready", 20*time.Millisecond, func() bool {
		r, err := c.Ready(ctx)
		return err == nil && r.Ready
	})
	rep.Counters["boot_ms"] = time.Since(boot).Milliseconds()
	if rep.check("gateway ready", err == nil, "%s", took(boot, err)); err != nil {
		return nil
	}

	// Tail the anomaly stream before any flag can fire.
	stream, err := c.StreamAnomalies(ctx)
	if err != nil {
		return err
	}
	defer stream.Close()
	events := make(chan v1.AnomalyEvent, 1)
	go func() {
		if ev, err := stream.Next(); err == nil {
			events <- ev
		}
	}()

	// Each row is retried until acked: the acked set is the full grid.
	rows := newLedger(clusterUnits, clusterSensors, 0, func(ts int64, unit, sensor int) float64 {
		if ts >= baseline {
			return 1e6
		}
		return float64(10*unit + sensor)
	})
	promoted := make(chan time.Duration, 1)
	var killed time.Time
	start := time.Now()
	var putErr error
	for range (baseline + spikes) * clusterUnits {
		i := rows.next()
		if i == baseline/3*clusterUnits {
			fmt.Fprintf(os.Stderr, "harness: SIGKILL broker at step %d\n", baseline/3)
			if err := procs["broker"].Process.Kill(); err != nil {
				return fmt.Errorf("kill broker: %w", err)
			}
			killed = time.Now()
			_ = procs["broker"].Wait()
			delete(procs, "broker")
			if err := spawn("broker", "broker", "-http", brokerHTTP, "-zk-node", "dg"); err != nil {
				return fmt.Errorf("restart broker: %w", err)
			}
			go func() {
				if waitFor(ctx, "a promoted leader", 20*time.Millisecond, func() bool {
					cm, err := c.Cluster(ctx)
					return err == nil && promotedLeader(cm)
				}) == nil {
					promoted <- time.Since(killed)
				}
			}()
		}
		if putErr = waitFor(ctx, fmt.Sprintf("row %d acked", i), 100*time.Millisecond, func() bool {
			return rows.put(ctx, c.PutPoints, i) == nil
		}); putErr != nil {
			break
		}
	}
	acked := rows.ackedSamples()
	if rep.check("every step acked", putErr == nil, "%d samples %s", acked, took(start, putErr)); putErr != nil {
		return nil
	}

	// Duplicates collapse by timestamp: exactly the acked samples return.
	var readBack int64
	from, to := rows.span()
	err = waitFor(ctx, "every acked sample to read back", 250*time.Millisecond, func() bool {
		n, _, err := readBand(ctx, clusterUnits, from, to, viaSDK(c))
		readBack = n
		return err == nil && n == acked
	})
	rep.check("all acked samples read back", err == nil, "%d/%d", readBack, acked)

	select {
	case d := <-promoted:
		rep.Counters["sigkill_to_promoted_ms"] = d.Milliseconds()
		rep.check("promoted leader visible", true, "%s after SIGKILL", d.Round(time.Millisecond))
	case <-ctx.Done():
		rep.check("promoted leader visible", false, "none by the deadline")
	}
	// By now the killed broker's session has expired (its candidate led
	// until then). The restarted one serves and is on the map: its
	// membership record is its own session's.
	restartCtx, cancelRestart := context.WithTimeout(ctx, 10*time.Second)
	defer cancelRestart()
	err = waitFor(restartCtx, "the restarted broker on the map", 20*time.Millisecond, func() bool {
		if _, err := broker.Metrics(restartCtx); err != nil {
			return false
		}
		cm, err := c.Cluster(restartCtx)
		return err == nil && slices.ContainsFunc(cm.Nodes, func(n v1.ClusterNode) bool { return n.Name == "broker" })
	})
	rep.check("restarted broker on the map", err == nil, "%s from SIGKILL", took(killed, err))
	evCtx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	select {
	case ev := <-events:
		rep.check("anomaly on SSE", true, "unit %d sensor %d z %.1f", ev.Unit, ev.Sensor, ev.Z)
	case <-evCtx.Done():
		rep.check("anomaly on SSE", false, "none within a minute")
	}
	return nil
}

// promotedLeader: a node other than the killed broker leads.
func promotedLeader(cm *v1.ClusterResponse) bool {
	return slices.ContainsFunc(cm.Nodes, func(n v1.ClusterNode) bool {
		return n.Name != "broker" && len(n.PartitionGroupsLed) > 0
	})
}

func freeAddrs(n int) ([]string, error) {
	var addrs []string
	for range n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}
