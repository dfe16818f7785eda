package rpc

// transport.go bridges the in-process fabric across real processes:
// a Network can serve its registered addresses over a TCP listener
// (gob-framed request/response with pipelining) and route outbound
// calls whose address is not registered locally to peer endpoints.
//
// The bridge keeps Go/Call semantics intact — callers still receive a
// Future, deadlines propagate (as a relative budget, so clock skew
// between nodes cannot widen them), and sentinel errors survive the
// wire: a registered error (ErrQueueOverflow, bus fencing errors, …)
// decoded on the caller's side matches errors.Is against the same
// sentinel it matched on the server, so failover and retry logic works
// unchanged whether a backend is a goroutine or another process.
//
// Routing is longest-prefix: AddRoute("store-1/", ep) forwards a call
// to "store-1/tsd/tsd-1" to ep as "tsd/tsd-1" (a prefix ending in "/"
// is stripped, namespacing the remote node's address space), while
// AddRoute("zk", ep) forwards "zk" verbatim. Locally registered
// servers always win over routes, and routes apply to local callers
// only: a request received over TCP is never forwarded again.

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"
)

// ErrPeerUnreachable wraps dial/connection failures to a routed peer.
// It unwraps to ErrServerDown so existing failover paths (the query
// engine, the proxy) treat an unreachable process like a crashed
// in-process server.
var ErrPeerUnreachable = fmt.Errorf("%w: peer unreachable", ErrServerDown)

// wireRequest is one framed call.
type wireRequest struct {
	ID       uint64
	Addr     string
	Method   string
	BudgetMS int64 // remaining deadline budget; 0 = none
	Payload  any
}

// wireResponse resolves one framed call.
type wireResponse struct {
	ID      uint64
	Payload any
	ErrCode string // the matched sentinel's Error() text, "" when none
	ErrMsg  string // the full error text, "" on success
}

func init() {
	gob.Register(wireRequest{})
	gob.Register(wireResponse{})
	// Base payload types any handler may return as bare values.
	gob.Register(0)
	gob.Register(int64(0))
	gob.Register("")
	gob.Register(true)
	gob.Register([]byte(nil))
	gob.Register([]string(nil))
	gob.Register(map[string]string(nil))
	RegisterWireError(ErrUnknownAddr, ErrQueueOverflow, ErrServerDown,
		ErrServerStopped, ErrServerDraining, ErrNetworkClosed)
}

// wireErrors maps a sentinel's Error() text back to the sentinel, so
// decoded errors stay errors.Is-matchable across processes.
var (
	wireErrMu sync.RWMutex
	wireErrs  = map[string]error{}
)

// RegisterWireError makes errs survive the TCP bridge: a server-side
// error matching one of them (via errors.Is) decodes on the caller's
// side as an error that still matches it. Call from init; later
// registrations are safe but racing in-flight decodes see the old set.
func RegisterWireError(errs ...error) {
	wireErrMu.Lock()
	defer wireErrMu.Unlock()
	for _, e := range errs {
		wireErrs[e.Error()] = e
	}
}

// encodeWireError splits err into (code, message) for the wire.
func encodeWireError(err error) (code, msg string) {
	wireErrMu.RLock()
	defer wireErrMu.RUnlock()
	for c, sentinel := range wireErrs {
		if errors.Is(err, sentinel) {
			return c, err.Error()
		}
	}
	return "", err.Error()
}

// decodeWireError rebuilds a caller-side error from (code, message).
func decodeWireError(code, msg string) error {
	if code != "" {
		wireErrMu.RLock()
		sentinel, ok := wireErrs[code]
		wireErrMu.RUnlock()
		if ok {
			if msg == code {
				return sentinel
			}
			return &remoteError{msg: msg, base: sentinel}
		}
	}
	return &remoteError{msg: msg}
}

// remoteError is a decoded server-side error: the original text, plus
// the sentinel it matched (if registered) for errors.Is.
type remoteError struct {
	msg  string
	base error
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.base }

// route forwards calls for one address prefix to a peer endpoint.
type route struct {
	prefix   string
	strip    bool // prefix ends in "/": forward addr minus prefix
	endpoint string
}

// AddRoute forwards calls to addresses starting with prefix to the
// TCP endpoint of another Network served with ServeTCP. A prefix
// ending in "/" is stripped from the forwarded address (namespacing);
// any other prefix forwards the address verbatim. Locally registered
// servers take precedence over routes; among routes the longest
// matching prefix wins. Re-adding a prefix replaces its endpoint.
func (n *Network) AddRoute(prefix, endpoint string) {
	n.routeMu.Lock()
	defer n.routeMu.Unlock()
	for i := range n.routes {
		if n.routes[i].prefix == prefix {
			n.routes[i].endpoint = endpoint
			return
		}
	}
	n.routes = append(n.routes, route{
		prefix:   prefix,
		strip:    strings.HasSuffix(prefix, "/"),
		endpoint: endpoint,
	})
}

// lookupRoute resolves addr against the route table.
func (n *Network) lookupRoute(addr string) (fwdAddr, endpoint string, ok bool) {
	n.routeMu.RLock()
	defer n.routeMu.RUnlock()
	best := -1
	for i := range n.routes {
		if strings.HasPrefix(addr, n.routes[i].prefix) {
			if best < 0 || len(n.routes[i].prefix) > len(n.routes[best].prefix) {
				best = i
			}
		}
	}
	if best < 0 {
		return "", "", false
	}
	fwdAddr = addr
	if n.routes[best].strip {
		fwdAddr = strings.TrimPrefix(addr, n.routes[best].prefix)
	}
	return fwdAddr, n.routes[best].endpoint, true
}

// goRemote issues a routed call through the peer connection pool.
func (n *Network) goRemote(ctx context.Context, addr, fwdAddr, endpoint, method string, payload any) *Future {
	p, err := n.peer(endpoint)
	if err != nil {
		return resolved(fmt.Errorf("%w: %s via %s: %v", ErrPeerUnreachable, addr, endpoint, err))
	}
	var budget int64
	if dl, ok := ctx.Deadline(); ok {
		budget = time.Until(dl).Milliseconds()
		if budget <= 0 {
			return resolved(context.DeadlineExceeded)
		}
	}
	return p.send(fwdAddr, method, budget, payload)
}

// peer returns (dialing on demand) the pooled connection to endpoint.
func (n *Network) peer(endpoint string) (*peerConn, error) {
	n.routeMu.Lock()
	if n.peers == nil {
		n.peers = make(map[string]*peerConn)
	}
	if p, ok := n.peers[endpoint]; ok && !p.dead() {
		n.routeMu.Unlock()
		return p, nil
	}
	n.routeMu.Unlock()
	// Dial outside the lock; losers of a racing dial are closed.
	conn, err := net.DialTimeout("tcp", endpoint, 3*time.Second)
	if err != nil {
		return nil, err
	}
	p := newPeerConn(conn)
	n.routeMu.Lock()
	if cur, ok := n.peers[endpoint]; ok && !cur.dead() {
		n.routeMu.Unlock()
		p.close(errors.New("rpc: duplicate dial"))
		return cur, nil
	}
	n.peers[endpoint] = p
	n.routeMu.Unlock()
	return p, nil
}

// ClosePeers tears down every pooled outbound connection. Subsequent
// routed calls redial.
func (n *Network) ClosePeers() {
	n.routeMu.Lock()
	peers := n.peers
	n.peers = nil
	n.routeMu.Unlock()
	for _, p := range peers {
		p.close(ErrNetworkClosed)
	}
}

// peerConn is one multiplexed client connection: many in-flight
// requests share it, matched back to futures by request id.
type peerConn struct {
	conn net.Conn

	encMu sync.Mutex // guards enc
	enc   *gob.Encoder

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*Future
	closed  bool
}

func newPeerConn(conn net.Conn) *peerConn {
	p := &peerConn{
		conn:    conn,
		enc:     gob.NewEncoder(conn),
		pending: make(map[uint64]*Future),
	}
	go p.readLoop()
	return p
}

func (p *peerConn) dead() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// send frames one request and registers its future.
func (p *peerConn) send(addr, method string, budgetMS int64, payload any) *Future {
	fut := newFuture()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		fut.resolve(nil, fmt.Errorf("%w: connection closed", ErrPeerUnreachable))
		return fut
	}
	p.nextID++
	id := p.nextID
	p.pending[id] = fut
	p.mu.Unlock()

	req := wireRequest{ID: id, Addr: addr, Method: method, BudgetMS: budgetMS, Payload: payload}
	p.encMu.Lock()
	err := p.enc.Encode(&req)
	p.encMu.Unlock()
	if err != nil {
		p.mu.Lock()
		delete(p.pending, id)
		p.mu.Unlock()
		// An encode error poisons the gob stream state; drop the conn.
		p.close(err)
		fut.resolve(nil, fmt.Errorf("%w: send: %v", ErrPeerUnreachable, err))
	}
	return fut
}

// readLoop resolves responses until the connection dies, then fails
// every pending future.
func (p *peerConn) readLoop() {
	dec := gob.NewDecoder(p.conn)
	for {
		var resp wireResponse
		if err := dec.Decode(&resp); err != nil {
			p.close(err)
			return
		}
		p.mu.Lock()
		fut, ok := p.pending[resp.ID]
		delete(p.pending, resp.ID)
		p.mu.Unlock()
		if !ok {
			continue
		}
		if resp.ErrMsg != "" {
			fut.resolve(nil, decodeWireError(resp.ErrCode, resp.ErrMsg))
		} else {
			fut.resolve(resp.Payload, nil)
		}
	}
}

// close fails all pending calls and closes the socket. Idempotent.
func (p *peerConn) close(cause error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	pending := p.pending
	p.pending = nil
	p.mu.Unlock()
	_ = p.conn.Close()
	for _, fut := range pending {
		fut.resolve(nil, fmt.Errorf("%w: %v", ErrPeerUnreachable, cause))
	}
}

// Transport serves a Network's registered addresses to remote callers.
type Transport struct {
	lis     net.Listener
	net     *Network
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
	serveWG sync.WaitGroup
}

// ServeTCP exposes n's registered servers on lis: every decoded
// request is dispatched as n.Go would (queues, worker pools and fault
// injection all apply, exactly as for in-process callers) and its
// response framed back — except that an address with no server
// registered here fails with ErrUnknownAddr instead of following n's
// routes: one hop per call. Serving continues until Close.
func ServeTCP(n *Network, lis net.Listener) *Transport {
	t := &Transport{lis: lis, net: n, conns: make(map[net.Conn]struct{})}
	t.serveWG.Add(1)
	go t.acceptLoop()
	return t
}

// Addr returns the listener address (useful with ":0" listeners).
func (t *Transport) Addr() net.Addr { return t.lis.Addr() }

func (t *Transport) acceptLoop() {
	defer t.serveWG.Done()
	for {
		conn, err := t.lis.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		t.serveWG.Add(1)
		go t.serveConn(conn)
	}
}

func (t *Transport) serveConn(conn net.Conn) {
	defer t.serveWG.Done()
	defer func() {
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
		_ = conn.Close()
	}()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	var encMu sync.Mutex
	var calls sync.WaitGroup
	defer calls.Wait()
	for {
		var req wireRequest
		if err := dec.Decode(&req); err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				// A malformed frame poisons the stream; drop the conn
				// and let the peer redial.
				return
			}
			return
		}
		calls.Add(1)
		go func(req wireRequest) {
			defer calls.Done()
			ctx := context.Background()
			var cancel context.CancelFunc = func() {}
			if req.BudgetMS > 0 {
				ctx, cancel = context.WithTimeout(ctx, time.Duration(req.BudgetMS)*time.Millisecond)
			}
			// Local servers only: a frame is served here or not at all.
			v, err := t.net.dispatch(ctx, req.Addr, req.Method, req.Payload, false).Wait(ctx)
			cancel()
			resp := wireResponse{ID: req.ID, Payload: v}
			if err != nil {
				resp.Payload = nil
				resp.ErrCode, resp.ErrMsg = encodeWireError(err)
				if resp.ErrMsg == "" {
					resp.ErrMsg = "unknown error"
				}
			}
			encMu.Lock()
			encErr := enc.Encode(&resp)
			encMu.Unlock()
			if encErr != nil {
				// Undeliverable (conn gone or unregistered payload
				// type): close so the peer fails fast and redials. The
				// gob stream is not recoverable after a failed Encode.
				_ = conn.Close()
			}
		}(req)
	}
}

// Close stops accepting, closes every live connection and waits for
// in-flight handlers to finish framing.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	_ = t.lis.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	t.serveWG.Wait()
}
