package sentinel

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"net"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	v1 "repro/internal/api/v1"
	"repro/sentinel/client"
)

// fourNodes is the standard cluster topology: a broker, two stores, and
// a combined detect+gateway node hosting the coordination service.
var fourNodes = map[string][]Role{
	"broker":  {RoleBroker},
	"store-1": {RoleStore},
	"store-2": {RoleStore},
	"dg":      {RoleDetect, RoleGateway},
}

// startTestCluster boots the given topology (see bootTestCluster) and
// closes it when the test ends.
func startTestCluster(t *testing.T, roles map[string][]Role) map[string]*Node {
	t.Helper()
	nodes, err := bootTestCluster(roles)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	return nodes
}

// bootTestCluster boots the given topology (which must include the
// "dg" and "broker" nodes of fourNodes) over loopback TCP. Listeners
// are pre-bound so the peer map is known before any node starts; nodes
// boot concurrently because each blocks on the others (everyone needs
// dg's coordination service, gateways wait for both stores). On failure
// it closes whatever did boot.
func bootTestCluster(roles map[string][]Role) (nodes map[string]*Node, err error) {
	peers := make(map[string]string)
	listeners := make(map[string]net.Listener)
	for name := range roles {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners {
				l.Close()
			}
			return nil, err
		}
		listeners[name] = lis
		peers[name] = lis.Addr().String()
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs []error
	)
	nodes = make(map[string]*Node)
	defer func() {
		wg.Wait()
		if err = errors.Join(errs...); err != nil {
			for _, n := range nodes {
				n.Close()
			}
			nodes = nil
		}
	}()
	start := func(name string) {
		n, err := StartNode(NodeConfig{
			Name:            name,
			Roles:           roles[name],
			Listener:        listeners[name],
			Peers:           peers,
			ZKNode:          "dg",
			Partitions:      4,
			Units:           4,
			SensorsPerUnit:  3,
			StorageNodes:    2,
			StorageWriters:  2,
			DetectorWorkers: 2,
			ExpectStores:    2,
			DetectorParams:  map[string]float64{"warmup": 20},
			BootTimeout:     60 * time.Second,
		})
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			errs = append(errs, fmt.Errorf("boot %s: %w", name, err))
			return
		}
		nodes[name] = n
	}
	// The gateway boots concurrently: it hosts the coordination
	// service (which every other node's boot blocks on) but itself
	// waits for both stores to register.
	wg.Add(1)
	go func() { defer wg.Done(); start("dg") }()
	// The broker boots next and must win the initial bus election
	// before the stores join it, so the failover phase deterministically
	// kills a leader with store followers behind it.
	start("broker")
	mu.Lock()
	broker := nodes["broker"]
	mu.Unlock()
	if broker == nil {
		return nil, nil // errs holds why
	}
	for start := time.Now(); !broker.BusSvc.IsLeader(0); time.Sleep(time.Millisecond) {
		if time.Since(start) > 30*time.Second {
			mu.Lock()
			errs = append(errs, errors.New("broker never won the initial bus election"))
			mu.Unlock()
			return nil, nil
		}
	}
	for name := range roles {
		if name == "dg" || name == "broker" {
			continue
		}
		wg.Add(1)
		go func(name string) { defer wg.Done(); start(name) }(name)
	}
	return nodes, nil
}

// The fleet shape startTestCluster's nodes agree on.
const clusterUnits, clusterSensors = 4, 3

// putStep writes one fleet-wide time step through a gateway, retrying
// transient failures (a bus leadership handover in flight), and
// returns how many samples the gateway acked.
func putStep(t *testing.T, c *client.Client, step int64, val func(u, s int) float64) int {
	t.Helper()
	pts := make([]v1.Point, 0, clusterUnits*clusterSensors)
	for u := 0; u < clusterUnits; u++ {
		for s := 0; s < clusterSensors; s++ {
			pts = append(pts, v1.Point{
				Metric:    "energy",
				Timestamp: step,
				Value:     val(u, s),
				Tags:      map[string]string{"unit": strconv.Itoa(u), "sensor": strconv.Itoa(s)},
			})
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		n, err := c.PutPoints(context.Background(), pts)
		if err == nil {
			return n
		}
		if time.Now().After(deadline) {
			t.Fatalf("put step %d: %v", step, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// waitEnergySamples polls the gateway's query tier until the energy
// series over [0, to] hold exactly want samples, and returns them.
func waitEnergySamples(t *testing.T, c *client.Client, to int64, want int) []v1.Series {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		series, err := c.Query(context.Background(), client.QueryParams{Metric: "energy", From: 0, To: to})
		got := 0
		if err == nil {
			for _, s := range series {
				got += len(s.Samples)
			}
			if got == want {
				return series
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("waiting for %d samples through ts %d: have %d (err %v)", want, to, got, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// TestClusterEndToEnd drives the existing e2e flow through a
// four-process-shaped cluster (in-process here; cmd/harness -scenario
// cluster runs the same topology as real OS processes): SDK ingest through the
// gateway onto the replicated bus, storage writers on both store
// nodes, streaming detection on the detect node writing flags back
// over rpc, scatter-gather reads merging both store groups, the SSE
// anomaly stream, and the membership map — then kills the broker and
// checks a store is promoted and ingest/query still work.
func TestClusterEndToEnd(t *testing.T) {
	nodes := startTestCluster(t, fourNodes)
	dg := nodes["dg"]
	ts := httptest.NewServer(dg.Handler())
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const (
		units, sensors = clusterUnits, clusterSensors
		warm           = 30 // past the detectors' shortened warmup
		spikes         = 10
	)

	put := func(step int64, val func(u, s int) float64) int { return putStep(t, c, step, val) }
	waitSamples := func(to int64, want int) { waitEnergySamples(t, c, to, want) }

	// Subscribe the SSE tail before detection can fire so no flag is
	// missed.
	streamCtx, stopStream := context.WithCancel(ctx)
	defer stopStream()
	stream, err := c.StreamAnomalies(streamCtx)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	events := make(chan v1.AnomalyEvent, 1)
	go func() {
		ev, err := stream.Next()
		if err == nil {
			events <- ev
		}
	}()

	// Baseline, then a gross level shift every detector must flag.
	acked := 0
	for step := int64(0); step < warm; step++ {
		acked += put(step, func(u, s int) float64 { return float64(10*u + s) })
	}
	for step := int64(warm); step < warm+spikes; step++ {
		acked += put(step, func(u, s int) float64 { return 1e6 })
	}
	if want := units * sensors * (warm + spikes); acked != want {
		t.Fatalf("acked %d samples, want %d", acked, want)
	}
	waitSamples(warm+spikes-1, acked)

	// The detect node must flag the shift: the flag arrives on the SSE
	// stream (published to the anomaly feed) and in storage (written
	// over rpc into the store tier, readable through the query engine).
	select {
	case ev := <-events:
		if ev.Z == 0 {
			t.Fatalf("flat anomaly event: %+v", ev)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("no anomaly event on the SSE stream (pool evaluated %d samples, wrote %d flags)",
			dg.Pool.SamplesEvaluated.Value(), dg.Pool.AnomaliesWritten.Value())
	}
	flagDeadline := time.Now().Add(60 * time.Second)
	for {
		series, err := c.Query(ctx, client.QueryParams{Metric: "anomaly", From: 0, To: warm + spikes})
		if err == nil && len(series) > 0 {
			break
		}
		if time.Now().After(flagDeadline) {
			t.Fatalf("no anomaly flags in storage: %v", err)
		}
		time.Sleep(200 * time.Millisecond)
	}

	// The membership map shows all four nodes, the store TSD routes
	// (two stores × two TSDs), and the broker as the one bus
	// partition-group leader: records are written at boot and
	// leadership is read from the election, so the first read is
	// complete.
	leaders := func(cm *v1.ClusterResponse) (names []string) {
		for _, n := range cm.Nodes {
			if len(n.PartitionGroupsLed) > 0 {
				names = append(names, n.Name)
			}
		}
		return names
	}
	cm, err := c.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tsds := 0
	for _, n := range cm.Nodes {
		tsds += len(n.TSDs)
	}
	if len(cm.Nodes) != 4 || tsds != 4 || !slices.Equal(leaders(cm), []string{"broker"}) {
		t.Fatalf("cluster map %+v: want 4 nodes, 4 TSDs, the broker leading", cm)
	}

	// Kill the broker. A store replica must be promoted (it holds every
	// acked record — publishes replicate synchronously before acking)
	// and ingest, storage and reads must keep working. The map names the
	// new leader as soon as the broker's candidacy is gone.
	nodes["broker"].Close()
	if cm, err = c.Cluster(ctx); err != nil {
		t.Fatal(err)
	}
	led := leaders(cm)
	if len(led) != 1 || !strings.HasPrefix(led[0], "store-") {
		t.Fatalf("map after the broker closed: leaders %q, want one store", led)
	}
	after := 0
	for step := int64(warm + spikes); step < warm+spikes+10; step++ {
		after += put(step, func(u, s int) float64 { return float64(10*u + s) })
	}
	waitSamples(warm+spikes+9, acked+after)
	if n := nodes[led[0]].BusSvc.Promotions.Value(); n != 1 {
		t.Fatalf("%s leads after %d promotions, want 1", led[0], n)
	}
}

// TestMembershipRecordsWrittenOnce: a node writes its membership
// record at boot and never again — no ticker rewrites it — so with no
// change of bus leader every record's version stands still.
func TestMembershipRecordsWrittenOnce(t *testing.T) {
	nodes := startTestCluster(t, fourNodes)
	zkc := nodes["dg"].zkc
	versions := func() map[string]int {
		out := make(map[string]int)
		for name := range nodes {
			_, st, err := zkc.Get(clusterNodesPath + "/" + name)
			if err != nil {
				t.Fatalf("%s's record: %v", name, err)
			}
			out[name] = st.Version
		}
		return out
	}
	before := versions()
	time.Sleep(3200 * time.Millisecond)
	if !nodes["broker"].BusSvc.IsLeader(0) {
		t.Fatal("the broker lost the bus election")
	}
	if after := versions(); !maps.Equal(before, after) {
		t.Fatalf("membership record versions moved with no change of leader: %v → %v", before, after)
	}
}

// TestTakenOverRecordOutlivesPredecessor: a node that boots under the
// name of a predecessor whose zk session still lives takes the
// membership record over, and stays listed with its TSD routes once the
// predecessor's session closes.
func TestTakenOverRecordOutlivesPredecessor(t *testing.T) {
	nodes := startTestCluster(t, fourNodes)
	dg := nodes["dg"]
	pred := dg.zkSrv.NewSession()
	defer pred.Close()
	if err := pred.Create(clusterNodesPath+"/store-3", []byte(`{"name":"store-3","roles":["store"]}`), true); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := map[string]string{"store-3": lis.Addr().String()}
	for name, n := range nodes {
		peers[name] = n.Addr()
	}
	n, err := StartNode(NodeConfig{Name: "store-3", Roles: []Role{RoleStore}, Listener: lis, Peers: peers, ZKNode: "dg",
		Partitions: 4, Units: clusterUnits, SensorsPerUnit: clusterSensors})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	pred.Close()
	cm, err := dg.ClusterStatus()
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(cm.Nodes, func(r v1.ClusterNode) bool { return r.Name == "store-3" })
	if i < 0 || len(cm.Nodes[i].TSDs) != 2 {
		t.Fatalf("store-3 after its predecessor's session closed: %+v", cm.Nodes)
	}
}

// TestClusterMapUnreadableIs503: a node that cannot read the
// coordination service says so — 503 unavailable — instead of serving
// an empty map.
func TestClusterMapUnreadableIs503(t *testing.T) {
	nodes := startTestCluster(t, fourNodes)
	store := nodes["store-1"]
	store.zkRemote.Close()
	rec := do(store.Handler(), "GET", "/api/v1/cluster", "", "")
	var env v1.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); rec.Code != 503 || err != nil || env.Error == nil || env.Error.Code != v1.CodeUnavailable {
		t.Fatalf("GET /api/v1/cluster with the zk client closed = %d %s, want 503 unavailable", rec.Code, rec.Body)
	}
}

// TestNodeAccessLog: a gateway node writes its access lines to
// NodeConfig.AccessLog, so one started with a discarding logger leaves
// the process logger alone (and one started without still uses it).
func TestNodeAccessLog(t *testing.T) {
	var std bytes.Buffer
	log.SetOutput(&std)
	defer log.SetOutput(os.Stderr)
	for _, tc := range []struct {
		logger *log.Logger
		lines  int
	}{{log.New(io.Discard, "", 0), 0}, {nil, 1}} {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n, err := StartNode(NodeConfig{
			Name:     "solo",
			Roles:    []Role{RoleBroker, RoleStore, RoleDetect, RoleGateway},
			Listener: lis,
			Peers:    map[string]string{"solo": lis.Addr().String()},
			Units:    2, SensorsPerUnit: 2,
			GatewayConfig: GatewayConfig{AccessLog: tc.logger},
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		n.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		n.Close()
		if rec.Code != 200 {
			t.Fatalf("GET /healthz = %d", rec.Code)
		}
		if got := strings.Count(std.String(), "access method=GET path=/healthz"); got != tc.lines {
			t.Fatalf("AccessLog %v: process logger got %d access lines, want %d:\n%s", tc.logger != nil, got, tc.lines, std.String())
		}
	}
}

// TestBootCloseCyclesLeaveNothing boots and closes the four-node
// assembly 40 times in a row — what a set-up loop timing a millisecond
// boot does — and checks the cycles leave nothing behind: no watch
// armed on the coordination server once a cycle is closed, goroutines
// back near the baseline, and the loop done in seconds (a boot that
// polls the membership path pays a poll interval every cycle).
func TestBootCloseCyclesLeaveNothing(t *testing.T) {
	const cycles = 40
	runtime.GC()
	base := runtime.NumGoroutine()
	start := time.Now()
	for i := 0; i < cycles; i++ {
		nodes, err := bootTestCluster(fourNodes)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		coord := nodes["dg"].zkSrv
		// Teardown in the benchmark's order: the coordination host first.
		for _, name := range []string{"dg", "store-2", "store-1", "broker"} {
			nodes[name].Close()
		}
		if n := coord.Watches(); n != 0 {
			t.Fatalf("cycle %d: %d watches still armed on the coordination server", i, n)
		}
	}
	elapsed := time.Since(start)
	t.Logf("%d boot/close cycles in %v", cycles, elapsed)
	if elapsed > cycles*100*time.Millisecond {
		t.Fatalf("%d boot/close cycles took %v", cycles, elapsed)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base+5; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after %d cycles, %d before:\n%s",
				runtime.NumGoroutine(), cycles, base, buf[:runtime.Stack(buf, true)])
		}
	}
}
