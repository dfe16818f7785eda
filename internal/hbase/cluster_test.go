package hbase

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// splits returns n-1 split keys giving n regions over single-byte
// prefixes, mirroring the TSDB's salt-based pre-split.
func byteSplits(n int) [][]byte {
	var out [][]byte
	for i := 1; i < n; i++ {
		out = append(out, []byte{byte(i * 256 / n)})
	}
	return out
}

func TestClusterBootAndTableCreation(t *testing.T) {
	c := newTestCluster(t, Config{RegionServers: 3})
	if err := c.CreateTable(byteSplits(6)); err != nil {
		t.Fatal(err)
	}
	m, err := c.ActiveMaster()
	if err != nil {
		t.Fatal(err)
	}
	regions := m.Regions()
	if len(regions) != 6 {
		t.Fatalf("regions = %d, want 6", len(regions))
	}
	// Ranges must tile the key space: first open start, last open end.
	if regions[0].Start != nil || regions[len(regions)-1].End != nil {
		t.Fatal("boundary regions must be open-ended")
	}
	for i := 1; i < len(regions); i++ {
		if string(regions[i].Start) != string(regions[i-1].End) {
			t.Fatal("regions must tile the key space")
		}
	}
	// Round-robin assignment over 3 servers.
	byServer := map[string]int{}
	for _, ri := range regions {
		byServer[ri.Server]++
	}
	if len(byServer) != 3 {
		t.Fatalf("regions on %d servers, want 3", len(byServer))
	}
	for s, n := range byServer {
		if n != 2 {
			t.Fatalf("server %s has %d regions, want 2", s, n)
		}
	}
}

func TestPutScanRoundTrip(t *testing.T) {
	c := newTestCluster(t, Config{RegionServers: 3})
	if err := c.CreateTable(byteSplits(4)); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(ClientConfig{})
	var cells []Cell
	for i := 0; i < 200; i++ {
		cells = append(cells, Cell{
			Row:   []byte{byte(i), byte(i >> 8), 'r'},
			Qual:  []byte{0, 1},
			Value: []byte(fmt.Sprintf("v%d", i)),
		})
	}
	if err := cl.Put(cells); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("scan = %d cells, want 200", len(got))
	}
	// Sorted by row.
	for i := 1; i < len(got); i++ {
		if got[i].Less(got[i-1]) {
			t.Fatal("scan output not sorted")
		}
	}
	// Ranged scan.
	got, err = cl.Scan([]byte{10}, []byte{20}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, cc := range got {
		if cc.Row[0] < 10 || cc.Row[0] >= 20 {
			t.Fatalf("ranged scan leaked row %v", cc.Row)
		}
	}
	if c.TotalCellsWritten() != 200 {
		t.Fatalf("TotalCellsWritten = %d", c.TotalCellsWritten())
	}
}

func TestPutEmptyAndMissingTable(t *testing.T) {
	c := newTestCluster(t, Config{RegionServers: 1})
	cl := c.NewClient(ClientConfig{})
	if err := cl.Put(nil); err != nil {
		t.Fatal("empty put must succeed")
	}
	if err := cl.Put([]Cell{cell("k", "q", "v")}); err == nil {
		t.Fatal("put without a table must fail")
	}
}

func TestRegionServerCrashRecovery(t *testing.T) {
	c := newTestCluster(t, Config{RegionServers: 3})
	if err := c.CreateTable(byteSplits(3)); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(ClientConfig{})
	var cells []Cell
	for i := 0; i < 90; i++ {
		cells = append(cells, Cell{Row: []byte{byte(i * 3)}, Qual: []byte{byte(i)}, Value: []byte("v")})
	}
	if err := cl.Put(cells); err != nil {
		t.Fatal(err)
	}
	// Kill a server holding at least one region (none were flushed, so
	// recovery must come from the WAL).
	m, err := c.ActiveMaster()
	if err != nil {
		t.Fatal(err)
	}
	victim := m.Regions()[0].Server
	if err := c.KillRegionServer(victim); err != nil {
		t.Fatal(err)
	}
	// Scans retry until the master reassigns; all 90 cells must survive.
	got, err := cl.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 90 {
		t.Fatalf("scan after crash = %d cells, want 90 (WAL replay lost data)", len(got))
	}
	// The victim must no longer own anything.
	deadline := time.Now().Add(2 * time.Second)
	for {
		owns := 0
		for _, ri := range m.Regions() {
			if ri.Server == victim {
				owns++
			}
		}
		if owns == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim %s still owns %d regions", victim, owns)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCrashRecoveryWithFlushedData(t *testing.T) {
	c := newTestCluster(t, Config{RegionServers: 2, FlushThresholdBytes: 64})
	if err := c.CreateTable(nil); err != nil { // single region
		t.Fatal(err)
	}
	cl := c.NewClient(ClientConfig{})
	// Write enough to force flushes, then a little more (unflushed tail
	// lives in WAL only).
	for i := 0; i < 30; i++ {
		if err := cl.Put([]Cell{cell(fmt.Sprintf("row-%03d", i), "q", "0123456789")}); err != nil {
			t.Fatal(err)
		}
	}
	m, _ := c.ActiveMaster()
	victim := m.Regions()[0].Server
	if err := c.KillRegionServer(victim); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Fatalf("recovered %d cells, want 30 (storefile+WAL merge broken)", len(got))
	}
}

func TestManualSplitRedistributesData(t *testing.T) {
	c := newTestCluster(t, Config{RegionServers: 2})
	if err := c.CreateTable(nil); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(ClientConfig{})
	var cells []Cell
	for i := 0; i < 100; i++ {
		cells = append(cells, Cell{Row: []byte{byte(i * 2)}, Qual: []byte("q"), Value: []byte("v")})
	}
	if err := cl.Put(cells); err != nil {
		t.Fatal(err)
	}
	m, _ := c.ActiveMaster()
	parent := m.Regions()[0]
	if err := m.Split(parent.ID, []byte{100}); err != nil {
		t.Fatal(err)
	}
	regions := m.Regions()
	if len(regions) != 2 {
		t.Fatalf("regions after split = %d", len(regions))
	}
	if string(regions[0].End) != string([]byte{100}) || string(regions[1].Start) != string([]byte{100}) {
		t.Fatalf("split boundaries wrong: %+v", regions)
	}
	got, err := cl.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("scan after split = %d cells, want 100", len(got))
	}
	// Splitting at a key outside the range must fail.
	if err := m.Split(regions[0].ID, []byte{200}); err == nil {
		t.Fatal("split outside range must fail")
	}
	if err := m.Split(9999, []byte{1}); err == nil {
		t.Fatal("split of unknown region must fail")
	}
}

func TestMasterFailover(t *testing.T) {
	c := newTestCluster(t, Config{RegionServers: 2})
	if err := c.CreateTable(byteSplits(2)); err != nil {
		t.Fatal(err)
	}
	active, err := c.ActiveMaster()
	if err != nil {
		t.Fatal(err)
	}
	// Kill the active master's session; the backup must take over and
	// keep serving the region map.
	active.sess.Close()
	deadline := time.Now().Add(2 * time.Second)
	var next *Master
	for {
		next, err = c.ActiveMaster()
		if err == nil && next.name != active.name {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("backup master never took over")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cl := c.NewClient(ClientConfig{})
	if err := cl.Put([]Cell{cell("k", "q", "v")}); err != nil {
		t.Fatalf("put after failover: %v", err)
	}
	// The promoted master must have rebuilt the region map from zk.
	if got := len(next.Regions()); got != 2 {
		t.Fatalf("promoted master sees %d regions, want 2", got)
	}
}

func TestQueueOverflowCrashesServer(t *testing.T) {
	c := newTestCluster(t, Config{
		RegionServers:   1,
		RSQueueCap:      4,
		RSWorkers:       1,
		CrashOnOverflow: 8,
		// Slow service so the queue actually backs up.
		ServiceRatePerRS: 500,
	})
	if err := c.CreateTable(nil); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(ClientConfig{FailFast: true, MaxRetries: 1})
	rs := c.RegionServers()[0]
	// Hammer with concurrent unbuffered writers until the server dies.
	done := make(chan struct{})
	for w := 0; w < 16; w++ {
		go func(w int) {
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				var cells []Cell
				for j := 0; j < 100; j++ {
					cells = append(cells, Cell{Row: []byte{byte(w), byte(i), byte(j)}, Qual: []byte("q"), Value: []byte("v")})
				}
				_ = cl.Put(cells)
			}
		}(w)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !rs.Crashed() {
		if time.Now().After(deadline) {
			close(done)
			t.Fatal("region server never crashed under unbuffered overload")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(done)
	_, overflows := rs.RPCStats()
	if overflows < 8 {
		t.Fatalf("overflows = %d, want ≥ 8", overflows)
	}
}

func TestScaleOutAddsServers(t *testing.T) {
	c := newTestCluster(t, Config{RegionServers: 2})
	rs, err := c.AddRegionServer()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Name() != "rs-3" {
		t.Fatalf("new server = %s", rs.Name())
	}
	// A table created now spreads over all three.
	if err := c.CreateTable(byteSplits(6)); err != nil {
		t.Fatal(err)
	}
	m, _ := c.ActiveMaster()
	byServer := map[string]int{}
	for _, ri := range m.Regions() {
		byServer[ri.Server]++
	}
	if len(byServer) != 3 {
		t.Fatalf("regions on %d servers, want 3", len(byServer))
	}
}

func TestClientFailFastSurfacesOverflow(t *testing.T) {
	c := newTestCluster(t, Config{RegionServers: 1, RSQueueCap: 1, RSWorkers: 1, ServiceRatePerRS: 100})
	if err := c.CreateTable(nil); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(ClientConfig{FailFast: true})
	// Keep the single slow worker saturated from the background…
	stop := make(chan struct{})
	defer close(stop)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = cl.Put([]Cell{cell(fmt.Sprintf("bg%d-%d", w, i), "q", "v")})
			}
		}(w)
	}
	// …so a foreground put soon hits a full queue and fails fast.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := cl.Put([]Cell{cell("fg", "q", "v")}); err != nil {
			return // backpressure surfaced
		}
	}
	t.Fatal("fail-fast client never surfaced backpressure")
}

func TestUnknownRegionServerKill(t *testing.T) {
	c := newTestCluster(t, Config{RegionServers: 1})
	if err := c.KillRegionServer("rs-99"); err == nil {
		t.Fatal("killing unknown server must fail")
	}
}

func TestWriteSharesAccounting(t *testing.T) {
	c := newTestCluster(t, Config{RegionServers: 2})
	if err := c.CreateTable(byteSplits(2)); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(ClientConfig{})
	var cells []Cell
	for i := 0; i < 256; i += 2 {
		cells = append(cells, Cell{Row: []byte{byte(i)}, Qual: []byte("q"), Value: []byte("v")})
	}
	if err := cl.Put(cells); err != nil {
		t.Fatal(err)
	}
	shares := c.WriteShares()
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if total < 0.99 || total > 1.01 {
		t.Fatalf("shares sum to %v", total)
	}
}

func TestErrorsAreSentinels(t *testing.T) {
	err := fmt.Errorf("wrap: %w", ErrWrongRegion)
	if !errors.Is(err, ErrWrongRegion) {
		t.Fatal("sentinel wrapping broken")
	}
}

// TestShutdownRaceUnderLoad is the regression for the synchronous
// fabric's "send on closed channel" panic (rpc.go's old Call): region
// servers are crashed and the whole cluster stopped while concurrent
// clients are mid-enqueue. Run with -race; any panic or race fails.
func TestShutdownRaceUnderLoad(t *testing.T) {
	c, err := NewCluster(Config{RegionServers: 3, RSQueueCap: 4, RSWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(byteSplits(6)); err != nil {
		t.Fatal(err)
	}
	// Tight retry budget so writers fail fast once the cluster is gone
	// instead of spinning through the full failover budget.
	cl := c.NewClient(ClientConfig{FailFast: true, MaxRetries: 2, RetryBackoff: time.Millisecond})
	stop := make(chan struct{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = cl.Put([]Cell{cell(fmt.Sprintf("w%d-%d", w, i), "q", "v")})
			}
		}(w)
	}
	go func() {
		defer close(done)
		// Crash servers one by one under load, then stop the cluster
		// while the writers are still hammering it.
		for _, rs := range c.RegionServers() {
			time.Sleep(2 * time.Millisecond)
			_ = c.KillRegionServer(rs.Name())
		}
		c.Stop()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cluster stop deadlocked under concurrent load")
	}
	close(stop)
	wg.Wait()
	// The fabric must reject, not panic: a post-stop put fails cleanly.
	if err := cl.Put([]Cell{cell("after", "q", "v")}); err == nil {
		t.Fatal("put after cluster stop must fail")
	}
}

// TestPutRejectsOversizedCell: a qualifier or value the packed entry
// header cannot express is refused outright — not truncated, not
// retried — and nothing of its batch is stored.
func TestPutRejectsOversizedCell(t *testing.T) {
	c := newTestCluster(t, Config{RegionServers: 1})
	if err := c.CreateTable(nil); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(ClientConfig{})
	for name, big := range map[string]Cell{
		"row":       {Row: make([]byte, maxRowLen+1), Qual: []byte("q"), Value: []byte("v")},
		"qualifier": {Row: []byte("r"), Qual: make([]byte, maxQualLen+1), Value: []byte("v")},
		"value":     {Row: []byte("r"), Qual: []byte("q"), Value: make([]byte, maxValueLen+1)},
	} {
		err := cl.Put([]Cell{cell("ok", "q", "v"), big})
		if !errors.Is(err, ErrCellTooLarge) || errors.Is(err, ErrRetriesExhausted) {
			t.Fatalf("put with an oversized %s = %v, want ErrCellTooLarge at once", name, err)
		}
	}
	if got, err := cl.Scan(nil, nil, 0); err != nil || len(got) != 0 {
		t.Fatalf("scan after rejected puts = %v, %v; want nothing stored", got, err)
	}
	if c.WALBytes() != 0 || c.MemstoreBytes() != 0 {
		t.Fatalf("rejected puts left %d WAL bytes, %d memstore bytes", c.WALBytes(), c.MemstoreBytes())
	}
	at := Cell{Row: []byte("r"), Qual: make([]byte, maxQualLen), Value: make([]byte, maxValueLen)}
	if err := cl.Put([]Cell{at}); err != nil {
		t.Fatalf("put at the limits: %v", err)
	}
	got, err := cl.Scan(nil, nil, 0)
	if err != nil || len(got) != 1 || len(got[0].Qual) != maxQualLen || len(got[0].Value) != maxValueLen {
		t.Fatalf("scan of the cell at the limits = %d cells, %v", len(got), err)
	}
}

// TestFailoverReplaysPackedWAL: what a server logged as byte records —
// multi-cell batches spanning rows under one sequence, overwrites,
// delete markers shadowing flushed cells — is what its regions hold
// after it dies, and again after the server that replayed it dies.
func TestFailoverReplaysPackedWAL(t *testing.T) {
	c := newTestCluster(t, Config{RegionServers: 3, FlushThresholdBytes: -1})
	if err := c.CreateTable(byteSplits(2)); err != nil {
		t.Fatal(err)
	}
	m, err := c.ActiveMaster()
	if err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(ClientConfig{})
	rng := rand.New(rand.NewSource(5))
	ref := make(map[[2]string]string)
	rows := []string{"\x01a", "\x01b", "\x20c", "\x90d", "\x90e", "\xf0f"} // both regions
	write := func(steps int) {
		for step := 0; step < steps; step++ {
			batch := make([]Cell, 1+rng.Intn(6))
			for i := range batch {
				batch[i] = cell(rows[rng.Intn(len(rows))], fmt.Sprintf("q%d", rng.Intn(8)), fmt.Sprintf("v%d.%d", step, i))
			}
			if rng.Intn(3) == 0 {
				if err := cl.Delete(batch); err != nil {
					t.Fatal(err)
				}
				for _, c := range batch {
					delete(ref, [2]string{string(c.Row), string(c.Qual)})
				}
				continue
			}
			if err := cl.Put(batch); err != nil {
				t.Fatal(err)
			}
			for _, c := range batch { // within a batch the later cell wins
				ref[[2]string{string(c.Row), string(c.Qual)}] = string(c.Value)
			}
		}
	}
	check := func(stage string) {
		t.Helper()
		got, err := cl.Scan(nil, nil, 0) // retries until the master reassigns
		if err != nil {
			t.Fatal(err)
		}
		if got, want := render(got), render(modelScan(ref, "", "", 0)); got != want {
			t.Fatalf("%s:\n got %q\nwant %q", stage, got, want)
		}
	}
	write(60)
	for _, ri := range m.Regions() { // later deletes must shadow these files
		if _, err := c.net.Call(context.Background(), rsAddr(ri.Server), "flush", &FlushRequest{Region: ri.ID}); err != nil {
			t.Fatal(err)
		}
	}
	write(120)
	check("before any crash")
	for _, stage := range []string{"after the first failover", "after failing over the replayed log"} {
		if c.WALBytes() == 0 {
			t.Fatalf("%s: nothing in the WAL to replay", stage)
		}
		if err := c.KillRegionServer(m.Regions()[0].Server); err != nil {
			t.Fatal(err)
		}
		check(stage)
		write(40)
		check(stage + ", then written to")
	}
}
