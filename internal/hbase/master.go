package hbase

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"repro/internal/rpc"
	"repro/internal/zk"
)

// ErrNotActive is returned by a standby master.
var ErrNotActive = errors.New("hbase: master not active")

// ErrNoServers means no live region server can take an assignment.
var ErrNoServers = errors.New("hbase: no live region servers")

// regionsZKPath is where the region map is published (source of truth
// shared by the active master and its backup).
const regionsZKPath = "/hbase/regions"

// Master is an HMaster candidate: it campaigns for leadership through
// ZooKeeper, and while active it owns region assignment, splits and
// crash recovery.
type Master struct {
	name string
	clu  *Cluster
	sess *zk.Session
	elec *zk.Election

	mu      sync.Mutex
	regions map[int]*RegionInfo
	nextID  int
	cursor  int // round-robin assignment cursor

	// recMu serialises assignment changes: reconcile passes (monitor vs
	// RPC handler), table creation, splits and rebalancing. A reconcile
	// pass judges liveness from one membership snapshot; a region moved
	// onto a server that joined after that snapshot would otherwise read
	// as orphaned and be reassigned away from its live owner.
	recMu sync.Mutex

	stopCh chan struct{}
	doneCh chan struct{}
}

// masterAddr returns a master's RPC address.
func masterAddr(name string) string { return "master/" + name }

// startMaster joins the election and starts the monitoring loop.
func startMaster(name string, clu *Cluster) (*Master, error) {
	m := &Master{
		name:    name,
		clu:     clu,
		sess:    clu.zks.NewSession(),
		regions: make(map[int]*RegionInfo),
		stopCh:  make(chan struct{}),
		doneCh:  make(chan struct{}),
	}
	if err := zk.EnsurePath(m.sess, regionsZKPath); err != nil {
		return nil, err
	}
	if err := zk.EnsurePath(m.sess, "/hbase/rs"); err != nil {
		return nil, err
	}
	elec, err := zk.JoinElection(m.sess, "/hbase/master-election", name)
	if err != nil {
		return nil, err
	}
	m.elec = elec
	if _, err := clu.net.Register(masterAddr(name), m.handle, rpc.ServerConfig{QueueCap: 1024, Workers: 4}); err != nil {
		return nil, err
	}
	go m.monitor()
	return m, nil
}

// Name returns the master's name.
func (m *Master) Name() string { return m.name }

// IsActive reports whether this master currently leads.
func (m *Master) IsActive() bool {
	lead, err := m.elec.IsLeader()
	return err == nil && lead
}

// stop terminates the monitor loop.
func (m *Master) stop() {
	select {
	case <-m.stopCh:
	default:
		close(m.stopCh)
	}
	<-m.doneCh
	m.sess.Close()
}

// monitor watches region-server membership while active, reconciling
// assignments when servers die. A standby wakes when leadership
// changes hands.
func (m *Master) monitor() {
	defer close(m.doneCh)
	for {
		select {
		case <-m.stopCh:
			return
		default:
		}
		if m.IsActive() {
			m.loadStateFromZK()
			m.reconcile()
			ch, err := m.sess.WatchChildren("/hbase/rs")
			if err != nil {
				return // session closed
			}
			select {
			case <-ch:
				continue
			case <-m.stopCh:
				return
			}
		}
		// Standby: wait for the election to change.
		ch, err := m.elec.WatchLeadership()
		if err != nil {
			return
		}
		select {
		case <-ch:
			continue
		case <-m.stopCh:
			return
		}
	}
}

// loadStateFromZK hydrates the region map from the shared namespace
// (no-op for the master that wrote it; essential for a promoted
// backup).
func (m *Master) loadStateFromZK() {
	kids, err := m.sess.Children(regionsZKPath)
	if err != nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, kid := range kids {
		id, err := strconv.Atoi(kid)
		if err != nil {
			continue
		}
		if _, ok := m.regions[id]; ok {
			continue
		}
		data, _, err := m.sess.Get(regionsZKPath + "/" + kid)
		if err != nil {
			continue
		}
		var ri RegionInfo
		if json.Unmarshal(data, &ri) == nil {
			m.regions[id] = &ri
			if id >= m.nextID {
				m.nextID = id + 1
			}
		}
	}
}

// publishLocked writes one region's info to ZooKeeper.
func (m *Master) publishLocked(ri *RegionInfo) error {
	data, err := json.Marshal(ri)
	if err != nil {
		return err
	}
	p := regionsZKPath + "/" + strconv.Itoa(ri.ID)
	if ok, _ := m.sess.Exists(p); ok {
		return m.sess.Set(p, data, -1)
	}
	return m.sess.Create(p, data, false)
}

// unpublishLocked removes a region from ZooKeeper (after a split).
func (m *Master) unpublishLocked(id int) {
	_ = m.sess.Delete(regionsZKPath + "/" + strconv.Itoa(id))
}

// liveServers returns the registered (live) region server names, sorted.
func (m *Master) liveServers() []string {
	kids, err := m.sess.Children("/hbase/rs")
	if err != nil {
		return nil
	}
	sort.Strings(kids)
	return kids
}

// pickServerLocked round-robins over live servers.
func (m *Master) pickServerLocked(live []string) (string, error) {
	if len(live) == 0 {
		return "", ErrNoServers
	}
	s := live[m.cursor%len(live)]
	m.cursor++
	return s, nil
}

// reconcile reassigns regions whose server is no longer live, replaying
// the dead server's WAL into the new assignments (the §III-B crash
// recovery path). Passes are serialised: the monitor goroutine and the
// RPC "reconcile" handler both call in, and interleaved passes would
// double-assign the same orphans.
func (m *Master) reconcile() {
	m.recMu.Lock()
	defer m.recMu.Unlock()
	live := m.liveServers()
	liveSet := make(map[string]bool, len(live))
	for _, s := range live {
		liveSet[s] = true
	}
	// Snapshot the orphan's owner under the lock — assignRegion mutates
	// Server concurrently with other masters' RPCs.
	type orphan struct {
		ri   *RegionInfo
		prev string
	}
	m.mu.Lock()
	var orphans []orphan
	for _, ri := range m.regions {
		if ri.Server != "" && !liveSet[ri.Server] {
			orphans = append(orphans, orphan{ri: ri, prev: ri.Server})
		}
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].ri.ID < orphans[j].ri.ID })
	m.mu.Unlock()

	deadServers := make(map[string]bool)
	for _, o := range orphans {
		deadServers[o.prev] = true
		if err := m.assignRegion(o.ri, live, o.prev); err != nil {
			// Leave it orphaned; the next membership event retries.
			continue
		}
	}
	for dead, ok := range deadServers {
		if !ok {
			continue
		}
		// Drop the recovered WAL only if nothing still points at the
		// dead server.
		m.mu.Lock()
		stillOwns := false
		for _, ri := range m.regions {
			if ri.Server == dead {
				stillOwns = true
				break
			}
		}
		m.mu.Unlock()
		if !stillOwns {
			m.clu.wal.Drop(dead)
		}
	}
}

// assignRegion opens ri on a live server, replaying the previous
// owner's WAL when there was one.
func (m *Master) assignRegion(ri *RegionInfo, live []string, prevOwner string) error {
	replay, err := m.clu.wal.EntriesFor(prevOwner, ri.ID, 0) // no owner has no log
	if err != nil {
		return err
	}
	m.mu.Lock()
	target, err := m.pickServerLocked(live)
	info := *ri // snapshot: Server is mutated under mu by concurrent assigns
	m.mu.Unlock()
	if err != nil {
		return err
	}
	req := &OpenRequest{Info: info, Replay: replay}
	if _, err := m.clu.net.Call(context.Background(), rsAddr(target), "open", req); err != nil {
		return fmt.Errorf("hbase: open region %d on %s: %w", ri.ID, target, err)
	}
	m.mu.Lock()
	ri.Server = target
	err = m.publishLocked(ri)
	m.mu.Unlock()
	return err
}

// CreateTable lays out the key space into len(splitKeys)+1 regions and
// assigns them round-robin — the paper's manual pre-split ("HBase
// regions were manually split to ensure each region handled an equal
// proportion of the writes").
func (m *Master) CreateTable(splitKeys [][]byte) error {
	if !m.IsActive() {
		return ErrNotActive
	}
	m.recMu.Lock()
	defer m.recMu.Unlock()
	sorted := make([][]byte, len(splitKeys))
	copy(sorted, splitKeys)
	sort.Slice(sorted, func(i, j int) bool { return string(sorted[i]) < string(sorted[j]) })
	live := m.liveServers()
	if len(live) == 0 {
		return ErrNoServers
	}
	bounds := make([][]byte, 0, len(sorted)+2)
	bounds = append(bounds, nil)
	bounds = append(bounds, sorted...)
	bounds = append(bounds, nil)
	for i := 0; i+1 < len(bounds); i++ {
		m.mu.Lock()
		ri := &RegionInfo{ID: m.nextID, Start: bounds[i], End: bounds[i+1]}
		m.nextID++
		m.regions[ri.ID] = ri
		m.mu.Unlock()
		if err := m.assignRegion(ri, live, ""); err != nil {
			return err
		}
	}
	return nil
}

// Regions returns a snapshot of the region map sorted by start key.
func (m *Master) Regions() []RegionInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]RegionInfo, 0, len(m.regions))
	for _, ri := range m.regions {
		out = append(out, *ri)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if len(a.Start) == 0 {
			return len(b.Start) != 0
		}
		if len(b.Start) == 0 {
			return false
		}
		return string(a.Start) < string(b.Start)
	})
	return out
}

// Split divides a region at splitKey: the parent is flushed and closed,
// its data rewritten into two children, and both are assigned.
func (m *Master) Split(regionID int, splitKey []byte) error {
	if !m.IsActive() {
		return ErrNotActive
	}
	m.recMu.Lock()
	defer m.recMu.Unlock()
	m.mu.Lock()
	parent, ok := m.regions[regionID]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("hbase: split: unknown region %d", regionID)
	}
	p := *parent
	m.mu.Unlock()
	if !p.Contains(splitKey) {
		return fmt.Errorf("hbase: split key outside region %d range", regionID)
	}
	// Flush & close the parent on its server.
	if p.Server != "" {
		if _, err := m.clu.net.Call(context.Background(), rsAddr(p.Server), "close", &CloseRequest{Region: p.ID}); err != nil && !errors.Is(err, ErrWrongRegion) {
			return fmt.Errorf("hbase: split close: %w", err)
		}
	}
	// Read the parent's flushed data and rewrite into children.
	parentRegion, _, err := openRegion(p, m.clu.dfs)
	if err != nil {
		return err
	}
	live := m.liveServers()
	m.mu.Lock()
	left := &RegionInfo{ID: m.nextID, Start: p.Start, End: splitKey}
	right := &RegionInfo{ID: m.nextID + 1, Start: splitKey, End: p.End}
	m.nextID += 2
	m.mu.Unlock()

	for _, child := range []*RegionInfo{left, right} {
		if err := m.seedRegion(child, parentRegion); err != nil {
			return err
		}
	}
	for _, child := range []*RegionInfo{left, right} {
		if err := m.assignRegion(child, live, ""); err != nil {
			return err
		}
	}
	m.mu.Lock()
	m.regions[left.ID] = left
	m.regions[right.ID] = right
	delete(m.regions, p.ID)
	m.unpublishLocked(p.ID)
	m.mu.Unlock()
	// Remove the parent's files.
	for _, f := range m.clu.dfs.ListFiles(p.dir()) {
		_ = m.clu.dfs.DeleteFile(f)
	}
	return nil
}

// seedRegion writes the cells of parent that belong to ri as its first
// store file.
func (m *Master) seedRegion(ri *RegionInfo, parent *region) error {
	r := newRegion(*ri)
	r.put(parent.scan(ri.Start, ri.End, 0, nil), 1)
	_, err := r.flush(m.clu.dfs) // nothing to flush writes nothing
	return err
}

// handle serves the master's RPC surface (used by clients).
func (m *Master) handle(_ context.Context, method string, payload any) (any, error) {
	switch method {
	case "regions":
		if !m.IsActive() {
			return nil, ErrNotActive
		}
		m.loadStateFromZK()
		return m.Regions(), nil
	case "reconcile":
		if !m.IsActive() {
			return nil, ErrNotActive
		}
		m.reconcile()
		return nil, nil
	default:
		return nil, fmt.Errorf("hbase: master %s: unknown method %q", m.name, method)
	}
}
