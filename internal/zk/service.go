package zk

// service.go exposes a Server over the rpc fabric so processes that do
// not host the coordination service can still create sessions,
// ephemerals and elections. Liveness is keepalive-based: a remote
// session that goes silent past the TTL is expired server-side exactly
// like a closed local session — its ephemerals vanish and elections
// fail over. That is what turns a SIGKILLed node into a leadership
// change for everyone else.
//
// Watches are pushed, not polled. RemoteClient.Watch reads the znode's
// Stat once, then issues one conditional call — "watch" or
// "watchchildren" — carrying that state (exists, Czxid, and Version or
// Cversion). The service arms the session's own one-shot watch and
// compares under the same lock: a znode that has moved on (even
// deleted and re-created, or a child added and removed) answers at
// once; otherwise the call parks as an rpc.Deferred, holding no worker,
// until the watch fires, the session or the service closes, or the
// call's budget (RemoteConfig.CallTimeout) runs out, and disarms on
// every way out. On budget expiry the client re-issues the call with
// the same expected state, so no event between the read and any park is
// missed; a quiet watch costs one call per budget. A wake-up may be
// spurious — a transport error fires the watch as EventNotWatching —
// and every caller re-checks after waking, as with any zk watch.

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
	Flag    bool  // ephemeral for create/createseq; exists for watch*
	Version int   // compare-and-set for set; Version/Cversion for watch*
	Czxid   int64 // watch*: the expected incarnation
}

// zkResult is the single response DTO for every zk rpc method.
type zkResult struct {
	Session  int64
	Path     string
	Data     []byte
	Version  int
	Eph      bool
	Owner    int64
	OK       bool // exists; watch*: the watch fired
	Children []string
	Czxid    int64
	Cversion int
	Event    int // watch*: the EventType that fired
}

// AppendWire implements rpc.WireEncoder: the fields in declaration
// order.
func (o *zkOp) AppendWire(b []byte) ([]byte, error) {
	b = rpc.AppendInt(b, o.Session)
	b = rpc.AppendString(b, o.Path)
	b = rpc.AppendBytes(b, o.Data)
	b = rpc.AppendBool(b, o.Flag)
	b = rpc.AppendInt(b, int64(o.Version))
	return rpc.AppendInt(b, o.Czxid), nil
}

func decodeZKOp(r *rpc.WireReader) *zkOp {
	return &zkOp{
		Session: r.Int(),
		Path:    r.Str(),
		Data:    r.Bytes(),
		Flag:    r.Bool(),
		Version: int(r.Int()),
		Czxid:   r.Int(),
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
	b = rpc.AppendStrings(b, z.Children)
	b = rpc.AppendInt(b, z.Czxid)
	b = rpc.AppendInt(b, int64(z.Cversion))
	return rpc.AppendInt(b, int64(z.Event)), nil
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
		Czxid:    r.Int(),
		Cversion: int(r.Int()),
		Event:    int(r.Int()),
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
	parks    sync.WaitGroup // parked watch calls
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

// Close stops the reaper, expires every remote session and answers
// every parked watch call at once (the transport serving them waits for
// in-flight calls when it closes).
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
	s.parks.Wait()
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
		return &zkResult{Data: data, Version: stat.Version, Eph: stat.Ephemeral, Owner: stat.Owner,
			Czxid: stat.Czxid, Cversion: stat.Cversion}, err
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
	case "watch", "watchchildren":
		return s.watch(ctx, sess, method == "watchchildren", op)
	default:
		return nil, fmt.Errorf("zk: unknown method %q", method)
	}
}

// watch serves one conditional watch call: arm sess's watch on op.Path
// unless the znode has already moved from the state op carries (then
// answer at once), else park until the watch fires, the session or the
// service closes, or ctx — the call's budget — ends. A park that ends
// any way but firing disarms its watch before it answers.
func (s *Service) watch(ctx context.Context, sess *Session, children bool, op *zkOp) (any, error) {
	w, ev, err := sess.arm(op.Path, children, &nodeState{exists: op.Flag, czxid: op.Czxid, version: op.Version})
	if err != nil {
		return nil, err
	}
	if w == nil {
		return &zkResult{OK: true, Event: int(ev.Type)}, nil
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		s.srv.disarm(w)
		return nil, ErrSessionClosed
	}
	s.parks.Add(1)
	s.mu.Unlock()
	return rpc.Deferred(func(reply func(any, error)) {
		go func() {
			defer s.parks.Done()
			var res any
			err := ErrSessionClosed
			select {
			case ev := <-w.ch:
				reply(&zkResult{OK: true, Event: int(ev.Type)}, nil)
				return
			case <-ctx.Done():
				res, err = &zkResult{}, nil // nothing changed: the client asks again
			case <-sess.done:
			case <-s.stop:
			}
			s.srv.disarm(w)
			reply(res, err)
		}()
	}), nil
}

// RemoteConfig tunes a RemoteClient.
type RemoteConfig struct {
	// CallTimeout bounds each rpc (default 2s), and so how long one
	// parked watch call waits before the client re-issues it.
	CallTimeout time.Duration
	// KeepAlive is the ping interval (default DefaultSessionTTL/3).
	KeepAlive time.Duration
}

func (c *RemoteConfig) defaults() {
	if c.CallTimeout <= 0 {
		c.CallTimeout = 2 * time.Second
	}
	if c.KeepAlive <= 0 {
		c.KeepAlive = DefaultSessionTTL / 3
	}
}

// RemoteClient is a Client whose session lives behind a Service,
// reached over the rpc fabric (in-process or routed across TCP). A
// background keepalive holds the session open; each watch is one parked
// conditional call (see the file comment), preserving zk's one-shot
// watch semantics.
type RemoteClient struct {
	net  *rpc.Network
	addr string
	cfg  RemoteConfig
	id   int64

	// ctx ends with Close, releasing the keepalive and every parked
	// watch call at once.
	ctx    context.Context
	cancel context.CancelFunc
	mu     sync.Mutex // orders wg.Add after a ctx check against Close
	wg     sync.WaitGroup
}

var _ Client = (*RemoteClient)(nil)

// Connect opens a remote session against the Service at addr on net.
func Connect(ctx context.Context, net *rpc.Network, addr string, cfg RemoteConfig) (*RemoteClient, error) {
	cfg.defaults()
	c := &RemoteClient{net: net, addr: addr, cfg: cfg}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	res, err := c.call(ctx, "connect", nil)
	if err != nil {
		c.cancel()
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
	if c.ctx.Err() != nil {
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
		case <-c.ctx.Done():
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
	return res.Data, Stat{Version: res.Version, Ephemeral: res.Eph, Owner: res.Owner,
		Czxid: res.Czxid, Cversion: res.Cversion}, nil
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

// Watch implements Client: one conditional call parked on the service
// until p is created, deleted or changed (see the file comment).
func (c *RemoteClient) Watch(p string) (<-chan Event, error) {
	return c.watch("watch", p)
}

// WatchChildren implements Client: one conditional call parked on the
// service until p's child list changes.
func (c *RemoteClient) WatchChildren(p string) (<-chan Event, error) {
	return c.watch("watchchildren", p)
}

// watch reads p's Stat — the state the watch is relative to — and keeps
// one conditional call against it in flight until it answers.
func (c *RemoteClient) watch(method, p string) (<-chan Event, error) {
	op := &zkOp{Path: p}
	_, st, err := c.Get(p)
	switch {
	case err == nil:
		op.Flag, op.Czxid, op.Version = true, st.Czxid, st.Version
		if method == "watchchildren" {
			op.Version = st.Cversion
		}
	case method == "watchchildren" || !errors.Is(err, ErrNoNode):
		return nil, err
	}
	op.Session = c.id
	ch := make(chan Event, 1)
	c.mu.Lock()
	if c.ctx.Err() != nil {
		c.mu.Unlock()
		return nil, ErrSessionClosed
	}
	c.wg.Add(1)
	c.mu.Unlock()
	go c.park(method, op, ch)
	return ch, nil
}

// park issues op until the service answers that the watch fired,
// re-issuing it with the same expected state whenever a call's budget
// runs out. Any other failure fires the watch as EventNotWatching; a
// closed client's watches never fire.
func (c *RemoteClient) park(method string, op *zkOp, ch chan<- Event) {
	defer c.wg.Done()
	for {
		res, err := c.call(c.ctx, method, op)
		switch {
		case c.ctx.Err() != nil:
			return
		case err == nil && res.OK:
			ch <- Event{Type: EventType(res.Event), Path: op.Path}
			return
		case err == nil, errors.Is(err, context.DeadlineExceeded):
			// The budget ran out with nothing changed: ask again.
		default:
			ch <- Event{Type: EventNotWatching, Path: op.Path}
			return
		}
	}
}

// Close expires the remote session and stops the keepalive and every
// parked watch.
func (c *RemoteClient) Close() {
	c.mu.Lock()
	if c.ctx.Err() != nil {
		c.mu.Unlock()
		return
	}
	c.cancel()
	c.mu.Unlock()
	_, _ = c.call(context.Background(), "close", &zkOp{Session: c.id})
	c.wg.Wait()
}
