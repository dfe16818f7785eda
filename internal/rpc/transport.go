package rpc

// transport.go bridges the in-process fabric across real processes:
// a Network can serve its registered addresses over a TCP listener
// (length-prefixed binary frames with pipelining — wire.go is the
// codec) and route outbound calls whose address is not registered
// locally to peer endpoints.
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
//
// Serving model: one goroutine per connection reads and decodes
// frames and dispatches each request as n.Go would, with a completion
// hook on the call's future; no goroutine waits on a request in
// flight. Whoever resolves the call — the server's pool worker, a
// Deferred's reply, or the dispatch itself on an early failure — runs
// the hook, which frames the reply. A request carrying a budget is
// also answered when the budget runs out first (context.AfterFunc),
// with context.DeadlineExceeded, exactly as a wait on that deadline
// would have been; whichever comes first replies, once. Close waits
// for every in-flight reply.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrPeerUnreachable wraps dial/connection failures to a routed peer.
// It unwraps to ErrServerDown so existing failover paths (the query
// engine, the proxy) treat an unreachable process like a crashed
// in-process server.
var ErrPeerUnreachable = fmt.Errorf("%w: peer unreachable", ErrServerDown)

func init() {
	// context.DeadlineExceeded crosses too: a budget that ran out on the
	// server reads on the caller's side exactly as its own deadline would,
	// whichever of the two timers fires first.
	RegisterWireError(ErrUnknownAddr, ErrQueueOverflow, ErrServerDown,
		ErrServerStopped, ErrServerDraining, ErrNetworkClosed,
		ErrWireType, ErrFrameTooLarge, ErrWireCorrupt, context.DeadlineExceeded)
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

// goRemote issues a routed call through the peer connection pool; fut
// carries its outcome.
func (n *Network) goRemote(ctx context.Context, fut *Future, addr, fwdAddr, endpoint, method string, payload any) *Future {
	p, err := n.peer(endpoint)
	if err != nil {
		return fut.fail(fmt.Errorf("%w: %s via %s: %v", ErrPeerUnreachable, addr, endpoint, err))
	}
	var budget int64
	if dl, ok := ctx.Deadline(); ok {
		budget = time.Until(dl).Milliseconds()
		if budget <= 0 {
			return fut.fail(context.DeadlineExceeded)
		}
	}
	return p.send(fut, fwdAddr, method, budget, payload)
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

// frameWriter serialises frames onto one connection. A frame is encoded
// whole into buf before any of it is written, so a payload that cannot
// be encoded never reaches the socket and fails only its own call.
type frameWriter struct {
	mu   sync.Mutex
	conn net.Conn
	buf  []byte
}

// flush writes frame — what an append function made of fw.buf, with its
// error — and keeps the buffer for the next one. encErr is the
// encoding's failure (nothing was written); ioErr the socket's. Callers
// hold mu.
func (fw *frameWriter) flush(frame []byte, encErr error) (_, ioErr error) {
	if encErr == nil {
		_, ioErr = fw.conn.Write(frame)
	}
	if cap(frame) <= maxKeptBuffer {
		fw.buf = frame[:0]
	} else {
		fw.buf = nil
	}
	return encErr, ioErr
}

func (fw *frameWriter) writeRequest(q *request) (encErr, ioErr error) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.flush(appendRequest(fw.buf[:0], q))
}

func (fw *frameWriter) writeResponse(p *response) (encErr, ioErr error) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.flush(appendResponse(fw.buf[:0], p))
}

// frameReader reads frames off one connection into a buffer it reuses:
// the body next returns is valid until the following call, and the
// decoders copy out everything they keep.
type frameReader struct {
	r   *bufio.Reader
	buf []byte
}

func newFrameReader(conn net.Conn) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(conn, 64<<10)}
}

func (fr *frameReader) next() ([]byte, error) {
	if cap(fr.buf) > maxKeptBuffer {
		fr.buf = nil
	}
	body, err := readFrame(fr.r, fr.buf)
	fr.buf = body
	return body, err
}

// peerConn is one multiplexed client connection: many in-flight
// requests share it, matched back to futures by request id.
type peerConn struct {
	conn net.Conn
	w    frameWriter

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*Future
	closed  bool
}

func newPeerConn(conn net.Conn) *peerConn {
	p := &peerConn{
		conn:    conn,
		w:       frameWriter{conn: conn},
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
func (p *peerConn) send(fut *Future, addr, method string, budgetMS int64, payload any) *Future {
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

	encErr, ioErr := p.w.writeRequest(&request{id: id, addr: addr, method: method, budgetMS: budgetMS, payload: payload})
	switch {
	case encErr != nil:
		// Nothing was written: the call fails, the connection and every
		// other call on it carry on.
		p.take(id)
		fut.resolve(nil, fmt.Errorf("rpc: %s %s: %w", addr, method, encErr))
	case ioErr != nil:
		p.take(id)
		p.close(ioErr)
		fut.resolve(nil, fmt.Errorf("%w: send: %v", ErrPeerUnreachable, ioErr))
	}
	return fut
}

// take removes and returns the pending future for id, nil if none.
func (p *peerConn) take(id uint64) *Future {
	p.mu.Lock()
	defer p.mu.Unlock()
	fut := p.pending[id]
	delete(p.pending, id)
	return fut
}

// readLoop resolves responses until the connection dies, then fails
// every pending future.
func (p *peerConn) readLoop() {
	fr := newFrameReader(p.conn)
	for {
		body, err := fr.next()
		if err != nil {
			p.close(err)
			return
		}
		resp, headerOK, err := decodeResponse(body)
		if !headerOK {
			// Not even the call id can be trusted: the stream is not
			// speaking this protocol.
			p.close(err)
			return
		}
		fut := p.take(resp.id)
		switch {
		case fut == nil:
		case err != nil:
			fut.resolve(nil, fmt.Errorf("rpc: decode response: %w", err))
		case resp.errMsg != "":
			fut.resolve(nil, decodeWireError(resp.errCode, resp.errMsg))
		default:
			fut.resolve(resp.payload, nil)
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
	fr := newFrameReader(conn)
	fw := &frameWriter{conn: conn}
	var calls sync.WaitGroup
	defer calls.Wait()
	for {
		body, err := fr.next()
		if err != nil {
			// EOF, a closed socket, or an oversize announcement: either
			// way this connection is done and the peer redials.
			return
		}
		req, headerOK, err := decodeRequest(body)
		if !headerOK {
			return
		}
		if err != nil {
			// The envelope parsed, the payload did not: the length prefix
			// kept the stream in step, so answer this call and carry on.
			fw.reply(req.id, nil, fmt.Errorf("rpc: decode request: %w", err))
			continue
		}
		calls.Add(1)
		in := &inbound{fw: fw, id: req.id, calls: &calls}
		ctx := context.Background()
		if req.budgetMS > 0 {
			ctx, in.cancel = context.WithTimeout(ctx, time.Duration(req.budgetMS)*time.Millisecond)
			in.stop = context.AfterFunc(ctx, in.expire)
		}
		// Local servers only: a frame is served here or not at all.
		t.net.dispatch(ctx, req.addr, req.method, req.payload, false, in.resolved)
	}
}

// inbound is one request received on a connection. It holds no
// goroutine while the call is in flight: the call's future runs
// resolved on whatever goroutine resolves it, and a budgeted call's
// deadline runs expire. The first of the two frames the reply.
type inbound struct {
	fw       *frameWriter
	id       uint64
	calls    *sync.WaitGroup
	answered atomic.Bool
	// cancel and stop release a budgeted call's timer and its deadline
	// hook; nil without a budget.
	cancel context.CancelFunc
	stop   func() bool
}

// resolved is the call's completion hook.
func (in *inbound) resolved(v any, err error) {
	if in.stop != nil {
		in.stop()
		in.cancel()
	}
	in.answer(v, err)
}

// expire answers a budgeted call whose deadline came first, as Wait on
// that deadline would have; the call may still complete server-side.
func (in *inbound) expire() {
	in.cancel()
	in.answer(nil, context.DeadlineExceeded)
}

func (in *inbound) answer(v any, err error) {
	if !in.answered.CompareAndSwap(false, true) {
		return
	}
	in.fw.reply(in.id, v, err)
	in.calls.Done()
}

// reply frames one call's outcome. A result that cannot be encoded
// (unregistered type, over the frame cap) is answered as that error; a
// socket failure closes the connection so the peer fails fast and
// redials.
func (fw *frameWriter) reply(id uint64, v any, err error) {
	resp := response{id: id, payload: v}
	if err != nil {
		resp.payload = nil
		resp.errCode, resp.errMsg = encodeWireError(err)
		if resp.errMsg == "" {
			resp.errMsg = "unknown error"
		}
	}
	encErr, ioErr := fw.writeResponse(&resp)
	if encErr != nil {
		resp.payload = nil
		resp.errCode, resp.errMsg = encodeWireError(fmt.Errorf("rpc: encode response: %w", encErr))
		_, ioErr = fw.writeResponse(&resp)
	}
	if ioErr != nil {
		_ = fw.conn.Close()
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
