package zk

// service.go exposes a Server over the rpc fabric so processes that do
// not host the coordination service can still create sessions,
// ephemerals and elections. Liveness is keepalive-based: a remote
// session that goes silent past the TTL is expired server-side exactly
// like a closed local session — its ephemerals vanish and elections
// fail over. That is what turns a SIGKILLed node into a leadership
// change for everyone else.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/rpc"
)

// DefaultSessionTTL is how long a remote session may go silent before
// the service expires it.
const DefaultSessionTTL = 3 * time.Second

// zkOp is the single request DTO for every zk rpc method.
type zkOp struct {
	Session int64
	Path    string
	Data    []byte
	Flag    bool // ephemeral for create/createseq
	Version int  // compare-and-set for set
}

// zkResult is the single response DTO for every zk rpc method.
type zkResult struct {
	Session  int64
	Path     string
	Data     []byte
	Version  int
	Eph      bool
	Owner    int64
	OK       bool
	Children []string
}

// AppendWire implements rpc.WireEncoder: the fields in declaration
// order.
func (o *zkOp) AppendWire(b []byte) ([]byte, error) {
	b = rpc.AppendInt(b, o.Session)
	b = rpc.AppendString(b, o.Path)
	b = rpc.AppendBytes(b, o.Data)
	b = rpc.AppendBool(b, o.Flag)
	return rpc.AppendInt(b, int64(o.Version)), nil
}

func decodeZKOp(r *rpc.WireReader) *zkOp {
	return &zkOp{
		Session: r.Int(),
		Path:    r.Str(),
		Data:    r.Bytes(),
		Flag:    r.Bool(),
		Version: int(r.Int()),
	}
}

// AppendWire implements rpc.WireEncoder: the fields in declaration
// order.
func (z *zkResult) AppendWire(b []byte) ([]byte, error) {
	b = rpc.AppendInt(b, z.Session)
	b = rpc.AppendString(b, z.Path)
	b = rpc.AppendBytes(b, z.Data)
	b = rpc.AppendInt(b, int64(z.Version))
	b = rpc.AppendBool(b, z.Eph)
	b = rpc.AppendInt(b, z.Owner)
	b = rpc.AppendBool(b, z.OK)
	return rpc.AppendStrings(b, z.Children), nil
}

func decodeZKResult(r *rpc.WireReader) *zkResult {
	return &zkResult{
		Session:  r.Int(),
		Path:     r.Str(),
		Data:     r.Bytes(),
		Version:  int(r.Int()),
		Eph:      r.Bool(),
		Owner:    r.Int(),
		OK:       r.Bool(),
		Children: r.Strings(),
	}
}

func init() {
	rpc.RegisterWireType(rpc.TagZKOp, decodeZKOp)
	rpc.RegisterWireType(rpc.TagZKResult, decodeZKResult)
	rpc.RegisterWireError(ErrNoNode, ErrNodeExists, ErrNotEmpty,
		ErrNoParent, ErrSessionClosed, ErrBadVersion)
}

// Service serves a *Server's session API over rpc.
type Service struct {
	srv *Server
	ttl time.Duration

	mu       sync.Mutex
	sessions map[int64]*liveSession
	stopped  bool
	stop     chan struct{}
}

// liveSession is one remote session plus its liveness clock.
type liveSession struct {
	sess     *Session
	lastSeen time.Time
}

// NewService wraps srv; remote sessions silent longer than ttl are
// expired (ttl <= 0 uses DefaultSessionTTL). Stop the reaper with
// Close.
func NewService(srv *Server, ttl time.Duration) *Service {
	if ttl <= 0 {
		ttl = DefaultSessionTTL
	}
	s := &Service{
		srv:      srv,
		ttl:      ttl,
		sessions: make(map[int64]*liveSession),
		stop:     make(chan struct{}),
	}
	go s.reap()
	return s
}

// Register installs the service on n at addr with cfg.
func (s *Service) Register(n *rpc.Network, addr string, cfg rpc.ServerConfig) error {
	_, err := n.Register(addr, s.Handle, cfg)
	return err
}

// Close stops the reaper and expires every remote session.
func (s *Service) Close() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	close(s.stop)
	sessions := s.sessions
	s.sessions = make(map[int64]*liveSession)
	s.mu.Unlock()
	for _, ls := range sessions {
		ls.sess.Close()
	}
}

// reap expires sessions that missed their keepalives.
func (s *Service) reap() {
	tick := time.NewTicker(s.ttl / 3)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-tick.C:
			var doomed []*liveSession
			s.mu.Lock()
			for id, ls := range s.sessions {
				if now.Sub(ls.lastSeen) > s.ttl {
					doomed = append(doomed, ls)
					delete(s.sessions, id)
				}
			}
			s.mu.Unlock()
			for _, ls := range doomed {
				ls.sess.Close()
			}
		}
	}
}

// session resolves an op's session handle, touching its liveness.
func (s *Service) session(id int64) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: session %d expired", ErrSessionClosed, id)
	}
	ls.lastSeen = time.Now()
	return ls.sess, nil
}

// Handle is the rpc.Handler for the service.
func (s *Service) Handle(ctx context.Context, method string, payload any) (any, error) {
	if method == "connect" {
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			return nil, ErrSessionClosed
		}
		sess := s.srv.NewSession()
		s.sessions[sess.ID()] = &liveSession{sess: sess, lastSeen: time.Now()}
		s.mu.Unlock()
		return &zkResult{Session: sess.ID()}, nil
	}
	op, ok := payload.(*zkOp)
	if !ok {
		return nil, fmt.Errorf("zk: %s: bad payload %T", method, payload)
	}
	if method == "close" {
		s.mu.Lock()
		ls, ok := s.sessions[op.Session]
		delete(s.sessions, op.Session)
		s.mu.Unlock()
		if ok {
			ls.sess.Close()
		}
		return &zkResult{}, nil
	}
	sess, err := s.session(op.Session)
	if err != nil {
		return nil, err
	}
	switch method {
	case "ping":
		return &zkResult{}, nil
	case "create":
		return &zkResult{}, sess.Create(op.Path, op.Data, op.Flag)
	case "createseq":
		p, err := sess.CreateSequential(op.Path, op.Data, op.Flag)
		return &zkResult{Path: p}, err
	case "get":
		data, stat, err := sess.Get(op.Path)
		return &zkResult{Data: data, Version: stat.Version, Eph: stat.Ephemeral, Owner: stat.Owner}, err
	case "set":
		return &zkResult{}, sess.Set(op.Path, op.Data, op.Version)
	case "delete":
		return &zkResult{}, sess.Delete(op.Path)
	case "exists":
		ok, err := sess.Exists(op.Path)
		return &zkResult{OK: ok}, err
	case "children":
		kids, err := sess.Children(op.Path)
		return &zkResult{Children: kids}, err
	default:
		return nil, fmt.Errorf("zk: unknown method %q", method)
	}
}

// RemoteConfig tunes a RemoteClient.
type RemoteConfig struct {
	// CallTimeout bounds each rpc (default 2s).
	CallTimeout time.Duration
	// KeepAlive is the ping interval (default DefaultSessionTTL/3).
	KeepAlive time.Duration
	// PollInterval paces watch emulation (default 100ms).
	PollInterval time.Duration
}

func (c *RemoteConfig) defaults() {
	if c.CallTimeout <= 0 {
		c.CallTimeout = 2 * time.Second
	}
	if c.KeepAlive <= 0 {
		c.KeepAlive = DefaultSessionTTL / 3
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 100 * time.Millisecond
	}
}

// RemoteClient is a Client whose session lives behind a Service,
// reached over the rpc fabric (in-process or routed across TCP). A
// background keepalive holds the session open; watches are emulated by
// polling, preserving zk's one-shot watch semantics.
type RemoteClient struct {
	net  *rpc.Network
	addr string
	cfg  RemoteConfig
	id   int64

	mu     sync.Mutex
	closed bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

var _ Client = (*RemoteClient)(nil)

// Connect opens a remote session against the Service at addr on net.
func Connect(ctx context.Context, net *rpc.Network, addr string, cfg RemoteConfig) (*RemoteClient, error) {
	cfg.defaults()
	c := &RemoteClient{net: net, addr: addr, cfg: cfg, stop: make(chan struct{})}
	res, err := c.call(ctx, "connect", nil)
	if err != nil {
		return nil, fmt.Errorf("zk: connect %s: %w", addr, err)
	}
	c.id = res.Session
	c.wg.Add(1)
	go c.keepalive()
	return c, nil
}

// ID returns the remote session identifier.
func (c *RemoteClient) ID() int64 { return c.id }

// call issues one rpc with the configured timeout.
func (c *RemoteClient) call(ctx context.Context, method string, op *zkOp) (*zkResult, error) {
	cctx, cancel := context.WithTimeout(ctx, c.cfg.CallTimeout)
	defer cancel()
	var payload any
	if op != nil {
		payload = op
	}
	v, err := c.net.Call(cctx, c.addr, method, payload)
	if err != nil {
		return nil, err
	}
	res, ok := v.(*zkResult)
	if !ok {
		return nil, fmt.Errorf("zk: %s: bad result %T", method, v)
	}
	return res, nil
}

func (c *RemoteClient) op(method string, op *zkOp) (*zkResult, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, ErrSessionClosed
	}
	op.Session = c.id
	return c.call(context.Background(), method, op)
}

func (c *RemoteClient) keepalive() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.KeepAlive)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			// Transient failures are fine as long as one ping lands
			// within the TTL; a dead service expires us regardless.
			_, _ = c.call(context.Background(), "ping", &zkOp{Session: c.id})
		}
	}
}

// Create implements Client.
func (c *RemoteClient) Create(p string, data []byte, ephemeral bool) error {
	_, err := c.op("create", &zkOp{Path: p, Data: data, Flag: ephemeral})
	return err
}

// CreateSequential implements Client.
func (c *RemoteClient) CreateSequential(prefix string, data []byte, ephemeral bool) (string, error) {
	res, err := c.op("createseq", &zkOp{Path: prefix, Data: data, Flag: ephemeral})
	if err != nil {
		return "", err
	}
	return res.Path, nil
}

// Get implements Client.
func (c *RemoteClient) Get(p string) ([]byte, Stat, error) {
	res, err := c.op("get", &zkOp{Path: p})
	if err != nil {
		return nil, Stat{}, err
	}
	return res.Data, Stat{Version: res.Version, Ephemeral: res.Eph, Owner: res.Owner}, nil
}

// Set implements Client.
func (c *RemoteClient) Set(p string, data []byte, version int) error {
	_, err := c.op("set", &zkOp{Path: p, Data: data, Version: version})
	return err
}

// Delete implements Client.
func (c *RemoteClient) Delete(p string) error {
	_, err := c.op("delete", &zkOp{Path: p})
	return err
}

// Exists implements Client.
func (c *RemoteClient) Exists(p string) (bool, error) {
	res, err := c.op("exists", &zkOp{Path: p})
	if err != nil {
		return false, err
	}
	return res.OK, nil
}

// Children implements Client.
func (c *RemoteClient) Children(p string) ([]string, error) {
	res, err := c.op("children", &zkOp{Path: p})
	if err != nil {
		return nil, err
	}
	return res.Children, nil
}

// Watch implements Client by polling p's existence and version until
// one change fires the one-shot event.
func (c *RemoteClient) Watch(p string) (<-chan Event, error) {
	existed, version, err := c.snapshot(p)
	if err != nil {
		return nil, err
	}
	ch := make(chan Event, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrSessionClosed
	}
	c.wg.Add(1)
	c.mu.Unlock()
	go c.pollWatch(p, ch, func() (Event, bool) {
		now, v, err := c.snapshot(p)
		switch {
		case err != nil:
			return Event{}, false
		case existed && !now:
			return Event{Type: EventDeleted, Path: p}, true
		case !existed && now:
			return Event{Type: EventCreated, Path: p}, true
		case existed && v != version:
			return Event{Type: EventDataChanged, Path: p}, true
		}
		return Event{}, false
	})
	return ch, nil
}

// WatchChildren implements Client by polling p's child set.
func (c *RemoteClient) WatchChildren(p string) (<-chan Event, error) {
	before, err := c.Children(p)
	if err != nil {
		return nil, err
	}
	ch := make(chan Event, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrSessionClosed
	}
	c.wg.Add(1)
	c.mu.Unlock()
	go c.pollWatch(p, ch, func() (Event, bool) {
		now, err := c.Children(p)
		if err != nil {
			if errors.Is(err, ErrNoNode) {
				return Event{Type: EventDeleted, Path: p}, true
			}
			return Event{}, false
		}
		if !sameStrings(before, now) {
			return Event{Type: EventChildrenChanged, Path: p}, true
		}
		return Event{}, false
	})
	return ch, nil
}

// snapshot captures (exists, version) for data-watch comparison.
func (c *RemoteClient) snapshot(p string) (bool, int, error) {
	res, err := c.op("get", &zkOp{Path: p})
	if err != nil {
		if errors.Is(err, ErrNoNode) {
			return false, 0, nil
		}
		return false, 0, err
	}
	return true, res.Version, nil
}

// pollWatch runs one emulated one-shot watch until check fires or the
// client closes.
func (c *RemoteClient) pollWatch(p string, ch chan Event, check func() (Event, bool)) {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.PollInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			if ev, fire := check(); fire {
				ch <- ev
				return
			}
		}
	}
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Close expires the remote session and stops the keepalive and all
// emulated watches.
func (c *RemoteClient) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stop)
	c.mu.Unlock()
	_, _ = c.call(context.Background(), "close", &zkOp{Session: c.id})
	c.wg.Wait()
}
