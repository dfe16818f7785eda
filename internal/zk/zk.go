// Package zk is a miniature ZooKeeper: a hierarchical namespace of
// znodes with ephemeral nodes, sequential nodes, one-shot watches and
// sessions, plus the leader-election recipe built on top.
//
// The simulated HBase deployment uses it the way the paper's real one
// does: RegionServers register ephemeral liveness nodes, the HMaster
// and its backup race for a leader lock, and region assignment state
// is published for clients. Watches fire asynchronously on buffered
// channels; like real ZooKeeper they are one-shot and must be re-armed.
// A watch belongs to the session that armed it: closing the session
// drops every watch it still holds, fired or not.
//
// Processes that do not host the server reach it through a Service
// (service.go) with a RemoteClient. A remote watch is one parked rpc:
// the client sends the state it last read, the service arms the
// session's own watch and answers when that state has moved — at once
// if it already has, otherwise when the watch fires. Nothing polls, and
// no event between the read and the park is missed.
package zk

import (
	"errors"
	"fmt"
	"path"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Errors mirroring ZooKeeper's error codes.
var (
	ErrNoNode        = errors.New("zk: no such znode")
	ErrNodeExists    = errors.New("zk: znode already exists")
	ErrNotEmpty      = errors.New("zk: znode has children")
	ErrNoParent      = errors.New("zk: parent znode missing")
	ErrSessionClosed = errors.New("zk: session closed")
	ErrBadVersion    = errors.New("zk: version mismatch")
)

// EventType classifies watch events.
type EventType int

// Watch event kinds.
const (
	EventCreated EventType = iota
	EventDeleted
	EventDataChanged
	EventChildrenChanged
	// EventNotWatching ends a remote watch the client could no longer
	// keep armed (the service was unreachable); like every wake-up, the
	// caller re-checks what it was waiting for.
	EventNotWatching
)

// String implements fmt.Stringer.
func (e EventType) String() string {
	switch e {
	case EventCreated:
		return "created"
	case EventDeleted:
		return "deleted"
	case EventDataChanged:
		return "dataChanged"
	case EventChildrenChanged:
		return "childrenChanged"
	case EventNotWatching:
		return "notWatching"
	default:
		return fmt.Sprintf("EventType(%d)", int(e))
	}
}

// Event is delivered to watchers.
type Event struct {
	Type EventType
	Path string
}

// Stat describes a znode.
type Stat struct {
	Version   int
	Ephemeral bool
	Owner     int64 // owning session id for ephemerals
	// Czxid stamps the znode's creation: a path deleted and created
	// again gets a new one, so (Czxid, Version) names one state even
	// across a delete and re-create.
	Czxid int64
	// Cversion counts changes to the znode's child list.
	Cversion int
}

// znode is one tree entry.
type znode struct {
	data     []byte
	version  int
	cversion int
	czxid    int64
	owner    int64 // session id when ephemeral, else 0
	seq      int   // sequential-child counter
}

// stat renders n's Stat.
func (n *znode) stat() Stat {
	return Stat{Version: n.version, Ephemeral: n.owner != 0, Owner: n.owner, Czxid: n.czxid, Cversion: n.cversion}
}

// Server is the coordination service. All methods are safe for
// concurrent use.
type Server struct {
	mu          sync.Mutex
	nodes       map[string]*znode
	sessions    map[int64]bool
	nextSession int64
	zxid        int64 // last creation stamp handed out
	dataWatch   map[string][]*watch
	childWatch  map[string][]*watch
}

// watch is one armed one-shot watch, owned by the session that armed
// it.
type watch struct {
	owner    int64
	path     string
	children bool
	ch       chan Event
}

// NewServer returns a server with just the root znode "/".
func NewServer() *Server {
	return &Server{
		nodes:      map[string]*znode{"/": {}},
		sessions:   make(map[int64]bool),
		dataWatch:  make(map[string][]*watch),
		childWatch: make(map[string][]*watch),
	}
}

// Watches returns how many one-shot watches are armed and not yet
// fired, across every session.
func (s *Server) Watches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, ws := range s.dataWatch {
		n += len(ws)
	}
	for _, ws := range s.childWatch {
		n += len(ws)
	}
	return n
}

// Session is a client handle. Ephemeral znodes created through it are
// removed when it closes, firing watches — the liveness mechanism.
type Session struct {
	srv  *Server
	id   int64
	once sync.Once
	done chan struct{} // closed when the session ends
}

// NewSession opens a session.
func (s *Server) NewSession() *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSession++
	id := s.nextSession
	s.sessions[id] = true
	return &Session{srv: s, id: id, done: make(chan struct{})}
}

// ID returns the session identifier.
func (c *Session) ID() int64 { return c.id }

// Close expires the session, deleting its ephemeral znodes and dropping
// the watches it armed.
func (c *Session) Close() {
	c.once.Do(func() {
		close(c.done)
		c.srv.expire(c.id)
	})
}

func (c *Session) check() error {
	select {
	case <-c.done:
		return ErrSessionClosed
	default:
		return nil
	}
}

// expire removes a session, its ephemerals and its watches.
func (s *Server) expire(id int64) {
	s.mu.Lock()
	var doomed []string
	for p, n := range s.nodes {
		if n.owner == id {
			doomed = append(doomed, p)
		}
	}
	// Delete deepest-first so parents empty out.
	sort.Slice(doomed, func(i, j int) bool { return len(doomed[i]) > len(doomed[j]) })
	var events []func()
	for _, p := range doomed {
		events = append(events, s.deleteLocked(p)...)
	}
	delete(s.sessions, id)
	dropOwned(s.dataWatch, id)
	dropOwned(s.childWatch, id)
	s.mu.Unlock()
	for _, fire := range events {
		fire()
	}
}

// normalize cleans a path; "" and "/" both mean the root.
func normalize(p string) string {
	if p == "" {
		return "/"
	}
	p = path.Clean("/" + strings.TrimPrefix(p, "/"))
	return p
}

// parent returns the parent path of p ("/a/b" → "/a").
func parent(p string) string {
	d := path.Dir(p)
	return d
}

// Create makes a znode at p with data. The parent must exist.
func (c *Session) Create(p string, data []byte, ephemeral bool) error {
	if err := c.check(); err != nil {
		return err
	}
	p = normalize(p)
	c.srv.mu.Lock()
	if _, ok := c.srv.nodes[p]; ok {
		c.srv.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNodeExists, p)
	}
	par := parent(p)
	pn, ok := c.srv.nodes[par]
	if !ok {
		c.srv.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoParent, par)
	}
	events := c.srv.createLocked(p, pn, data, ephemeral, c.id)
	c.srv.mu.Unlock()
	for _, fire := range events {
		fire()
	}
	return nil
}

// CreateSequential makes a znode named prefix + zero-padded counter
// (per parent), returning the created path. Used by the election
// recipe.
func (c *Session) CreateSequential(prefix string, data []byte, ephemeral bool) (string, error) {
	if err := c.check(); err != nil {
		return "", err
	}
	prefix = normalize(prefix)
	par := parent(prefix)
	c.srv.mu.Lock()
	pn, ok := c.srv.nodes[par]
	if !ok {
		c.srv.mu.Unlock()
		return "", fmt.Errorf("%w: %s", ErrNoParent, par)
	}
	pn.seq++
	p := fmt.Sprintf("%s%010d", prefix, pn.seq)
	events := c.srv.createLocked(p, pn, data, ephemeral, c.id)
	c.srv.mu.Unlock()
	for _, fire := range events {
		fire()
	}
	return p, nil
}

// createLocked adds the znode p under its parent pn, stamps it, and
// returns the watch firings to run after unlocking.
func (s *Server) createLocked(p string, pn *znode, data []byte, ephemeral bool, session int64) []func() {
	s.zxid++
	n := &znode{data: append([]byte(nil), data...), czxid: s.zxid}
	if ephemeral {
		n.owner = session
	}
	s.nodes[p] = n
	pn.cversion++
	events := s.fireLocked(p, EventCreated)
	return append(events, s.fireChildrenLocked(parent(p))...)
}

// Get returns the data and stat of the znode at p.
func (c *Session) Get(p string) ([]byte, Stat, error) {
	if err := c.check(); err != nil {
		return nil, Stat{}, err
	}
	p = normalize(p)
	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	n, ok := c.srv.nodes[p]
	if !ok {
		return nil, Stat{}, fmt.Errorf("%w: %s", ErrNoNode, p)
	}
	return append([]byte(nil), n.data...), n.stat(), nil
}

// Set replaces the data at p, bumping the version. version >= 0
// requires a match (compare-and-set); -1 skips the check.
func (c *Session) Set(p string, data []byte, version int) error {
	if err := c.check(); err != nil {
		return err
	}
	p = normalize(p)
	c.srv.mu.Lock()
	n, ok := c.srv.nodes[p]
	if !ok {
		c.srv.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoNode, p)
	}
	if version >= 0 && version != n.version {
		c.srv.mu.Unlock()
		return fmt.Errorf("%w: %s have %d want %d", ErrBadVersion, p, n.version, version)
	}
	n.data = append([]byte(nil), data...)
	n.version++
	events := c.srv.fireLocked(p, EventDataChanged)
	c.srv.mu.Unlock()
	for _, fire := range events {
		fire()
	}
	return nil
}

// Delete removes the znode at p, which must have no children.
func (c *Session) Delete(p string) error {
	if err := c.check(); err != nil {
		return err
	}
	p = normalize(p)
	c.srv.mu.Lock()
	if _, ok := c.srv.nodes[p]; !ok {
		c.srv.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoNode, p)
	}
	for q := range c.srv.nodes {
		if parent(q) == p && q != "/" {
			c.srv.mu.Unlock()
			return fmt.Errorf("%w: %s", ErrNotEmpty, p)
		}
	}
	events := c.srv.deleteLocked(p)
	c.srv.mu.Unlock()
	for _, fire := range events {
		fire()
	}
	return nil
}

// deleteLocked removes p and returns the watch firings to run after
// unlocking.
func (s *Server) deleteLocked(p string) []func() {
	delete(s.nodes, p)
	par := parent(p)
	if pn, ok := s.nodes[par]; ok {
		pn.cversion++
	}
	events := s.fireLocked(p, EventDeleted)
	return append(events, s.fireChildrenLocked(par)...)
}

// Exists reports whether p exists.
func (c *Session) Exists(p string) (bool, error) {
	if err := c.check(); err != nil {
		return false, err
	}
	p = normalize(p)
	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	_, ok := c.srv.nodes[p]
	return ok, nil
}

// Children returns the sorted child names (not full paths) of p.
func (c *Session) Children(p string) ([]string, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	p = normalize(p)
	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	if _, ok := c.srv.nodes[p]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoNode, p)
	}
	var kids []string
	for q := range c.srv.nodes {
		if q != "/" && parent(q) == p {
			kids = append(kids, path.Base(q))
		}
	}
	sort.Strings(kids)
	return kids, nil
}

// Watch arms a one-shot watch on p's lifecycle and data. The event is
// delivered on the returned buffered channel.
func (c *Session) Watch(p string) (<-chan Event, error) {
	w, _, err := c.arm(p, false, nil)
	if err != nil {
		return nil, err
	}
	return w.ch, nil
}

// WatchChildren arms a one-shot watch for membership changes under p.
func (c *Session) WatchChildren(p string) (<-chan Event, error) {
	w, _, err := c.arm(p, true, nil)
	if err != nil {
		return nil, err
	}
	return w.ch, nil
}

// nodeState is what a conditional watch compares: whether the znode
// exists, which incarnation it is, and its data version (a data watch)
// or child-list version (a children watch).
type nodeState struct {
	exists  bool
	czxid   int64
	version int
}

// arm registers a one-shot watch on p owned by c. With want set, p is
// first compared with it under the same lock: if p has moved on, no
// watch is armed and the event describing the move is returned instead.
func (c *Session) arm(p string, children bool, want *nodeState) (*watch, Event, error) {
	p = normalize(p)
	s := c.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.sessions[c.id] {
		return nil, Event{}, ErrSessionClosed
	}
	if want != nil {
		if ev, moved := s.movedLocked(p, children, *want); moved {
			return nil, ev, nil
		}
	}
	w := &watch{owner: c.id, path: p, children: children, ch: make(chan Event, 1)}
	table := s.table(children)
	table[p] = append(table[p], w)
	return w, Event{}, nil
}

// movedLocked compares p with want and, when they differ, returns the
// event a watch armed in state want would have fired first.
func (s *Server) movedLocked(p string, children bool, want nodeState) (Event, bool) {
	var cur nodeState
	if n, ok := s.nodes[p]; ok {
		cur = nodeState{exists: true, czxid: n.czxid, version: n.version}
		if children {
			cur.version = n.cversion
		}
	}
	if cur == want {
		return Event{}, false
	}
	t := EventDataChanged
	switch {
	case want.exists && cur.czxid != want.czxid: // gone, or gone and back
		t = EventDeleted
	case !want.exists:
		t = EventCreated
	case children:
		t = EventChildrenChanged
	}
	return Event{Type: t, Path: p}, true
}

// disarm drops w if it has not fired.
func (s *Server) disarm(w *watch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	table := s.table(w.children)
	ws := slices.DeleteFunc(table[w.path], func(x *watch) bool { return x == w })
	if len(ws) == 0 {
		delete(table, w.path)
	} else {
		table[w.path] = ws
	}
}

// dropOwned removes every watch in table that session armed.
func dropOwned(table map[string][]*watch, session int64) {
	for p, ws := range table {
		ws = slices.DeleteFunc(ws, func(w *watch) bool { return w.owner == session })
		if len(ws) == 0 {
			delete(table, p)
		} else {
			table[p] = ws
		}
	}
}

// table returns the data or the children watch table.
func (s *Server) table(children bool) map[string][]*watch {
	if children {
		return s.childWatch
	}
	return s.dataWatch
}

// fireLocked collects the data/lifecycle watch deliveries for p.
func (s *Server) fireLocked(p string, t EventType) []func() {
	return fire(s.dataWatch, p, t)
}

// fireChildrenLocked collects child-watch deliveries for p.
func (s *Server) fireChildrenLocked(p string) []func() {
	return fire(s.childWatch, p, EventChildrenChanged)
}

// fire takes p's watches out of table and returns their delivery. A
// watch is in one table slot until it fires or is dropped, so its
// one-slot channel never blocks the send.
func fire(table map[string][]*watch, p string, t EventType) []func() {
	ws := table[p]
	delete(table, p)
	if len(ws) == 0 {
		return nil
	}
	ev := Event{Type: t, Path: p}
	return []func(){func() {
		for _, w := range ws {
			w.ch <- ev
		}
	}}
}
