// Package rpc is the in-process transport connecting the simulated
// cluster's nodes: ZooKeeper, HDFS namenode/datanodes, the HBase
// master and region servers, and the OpenTSDB daemons all expose
// handlers on a shared Network and call each other through it.
//
// The transport models the properties the paper's findings hinge on:
//
//   - Bounded RPC queues. Every server has a finite inbound queue; a
//     call arriving at a full queue fails with ErrQueueOverflow, and a
//     server that overflows too often crashes (ErrServerDown) — the
//     exact failure mode §III-B reports for HBase RegionServers before
//     the buffering reverse proxy was added.
//   - Deadline-bounded, pipelined messaging. Call(ctx, …) honours
//     context cancellation end to end, and Go(ctx, …) returns a Future
//     so callers overlap many in-flight requests instead of blocking
//     one round trip at a time — the shape that lets the storage tier
//     absorb the paper's 120k writes/sec.
//   - Configurable per-call latency, so experiments can model network
//     round trips without real sockets.
//
// Handlers run on a bounded worker pool per server, mirroring an RPC
// handler thread pool. The caller's context is threaded into the
// handler, so a deadline set at the proxy propagates through a TSD
// into its HBase client calls. A handler that must wait for data — a
// long-poll — returns a Deferred instead of blocking: its worker goes
// back to the queue, and the call stays in flight (Drain waits for it)
// until the reply function is called.
//
// # The wire format
//
// In one process payloads pass by reference and nothing is encoded.
// Between processes (transport.go: ServeTCP on one side, AddRoute on the
// other) every call is two frames on a pipelined TCP connection, written
// and read by the one codec in wire.go — there is no second encoding and
// no fallback.
//
// A frame is a 4-byte little-endian body length, then the body:
//
//	request:  id uvarint | addr string | method string | budget-ms varint | payload
//	response: id uvarint | error code string | error message string | payload
//
// Integers are uvarints, or zigzag varints where they can be negative;
// a string or byte slice is a uvarint length and its bytes; a float is
// its eight IEEE-754 bytes, little-endian (NaN payloads, -0 and ±Inf
// cross unchanged); a slice is a uvarint count and its elements. The
// budget is the caller's remaining deadline in milliseconds (0 = none);
// the error code is the Error() text of the sentinel registered with
// RegisterWireError that the server-side error matched, so errors.Is
// still holds on the caller's side (context.DeadlineExceeded is one: a
// budget that ran out on the server reads as the caller's own deadline).
//
// The payload is a tagged value: one tag byte, then the body that tag
// defines (AppendValue / DecodeValue are the same encoding outside a
// frame).
//
//	 0 nil        3 string    6 []string             9 float64
//	 1 int        4 bool      7 map[string]string
//	 2 int64      5 []byte    8 uint64
//	16 *bus.busOp        19 *zk.zkOp            22 core.Anomaly
//	17 *bus.busResult    20 *zk.zkResult        23 *tsdb.PutBatch
//	18 bus.Record        21 *ingest.UnitBatch   24 *tsdb.QueryRequest
//	                                            25 *tsdb.QueryResponse
//
// Tags 16 and up are structs. Each implements WireEncoder (AppendWire:
// append the fields, in declaration order) and a decoder over WireReader
// next to its definition, and is registered with RegisterWireType where
// its package initialises (bus, zk) or in sentinel.RegisterWireTypes
// (the application payloads); the Tag constants in wire.go are the one
// table, so two types cannot claim a tag. A nil and an empty slice
// encode alike and decode as nil; a nil map stays nil. A payload of any
// other type fails its own call with ErrWireType — the frame is encoded
// whole before any byte is written, so a payload that cannot be encoded,
// or a frame over the cap, never reaches the socket and never costs the
// calls sharing the connection anything.
//
// Frame cap: a body is at most MaxFrame (16 MiB). The encoder refuses to
// build a larger one (ErrFrameTooLarge, that call only); a reader that
// sees a larger length announced drops the connection without reading
// it. Decoding is bounds-checked against the frame: every length and
// count is compared with the bytes that remain before anything is
// allocated for it (ErrWireCorrupt), so a lying field can cost no more
// memory than the frame that carried it. A request whose envelope parses
// but whose payload does not is answered with the error; the length
// prefix keeps the stream in step.
//
// Ownership of bytes: a connection reads every frame into one buffer it
// reuses, so decoders copy what they keep — WireReader's Str and Bytes
// return copies, and only View aliases the frame (for comparing or
// looking up, as tsdb's intern table does). In the other direction,
// EncodeValue hands its caller a fresh slice that this package never
// writes again: the clustered bus stores those bytes in its logs and
// forwards them verbatim, and whoever holds them reads, never writes.
//
// # Shutdown protocol
//
// Servers move through running → draining → stopped. Drain (and the
// stop underlying Remove/Close) first flips the state under a write
// lock — enqueuers hold the read lock while sending, so once the flip
// lands no sender can be mid-send — then flushes queued calls and
// joins the workers. New enqueues are rejected with ErrServerDraining
// or ErrServerStopped instead of racing a channel close; the
// "send on closed channel" crash of the synchronous fabric is
// impossible by construction. Crash remains the abrupt variant:
// queued and in-flight calls fail with ErrServerDown.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// Errors surfaced by the transport.
var (
	ErrUnknownAddr    = errors.New("rpc: unknown address")
	ErrQueueOverflow  = errors.New("rpc: inbound queue overflow")
	ErrServerDown     = errors.New("rpc: server down")
	ErrServerStopped  = errors.New("rpc: server stopped")
	ErrServerDraining = errors.New("rpc: server draining")
	ErrNetworkClosed  = errors.New("rpc: network closed")
)

// Handler processes one request. The context carries the caller's
// deadline and cancellation; handlers that issue further RPCs should
// pass it along. Implementations must be safe for concurrent use (the
// worker pool invokes them in parallel).
type Handler func(ctx context.Context, method string, payload any) (any, error)

// Deferred is what a handler returns (with a nil error) when the call
// will be answered later — a long-poll waiting for data — and must not
// hold one of the server's pool workers meanwhile. The worker invokes
// it once with the call's reply function and moves on to the next
// queued call; the Deferred must return promptly (start a goroutine or
// register a waiter) and arrange for reply to be called exactly once.
// Until then the call stays in the server's in-flight accounting, so
// Drain waits for it, and ctx stays live.
type Deferred func(reply func(v any, err error))

// ServerConfig bounds a server's inbound processing.
type ServerConfig struct {
	// QueueCap is the inbound queue capacity (default 256).
	QueueCap int
	// Workers is the handler pool size (default 4).
	Workers int
	// CrashOnOverflow, when > 0, crashes the server after that many
	// cumulative queue overflows — the RegionServer failure mode from
	// §III-B. Zero disables crashing.
	CrashOnOverflow int64
	// OnCrash, when set, runs (once, on its own goroutine) after the
	// server crashes, letting the owning node drop liveness leases.
	OnCrash func()
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	return c
}

// result is one call's outcome.
type result struct {
	value any
	err   error
}

// Future is the handle for an asynchronous call issued with Go. It is
// resolved exactly once; any number of goroutines may wait on it.
type Future struct {
	done chan struct{}
	once sync.Once
	res  result
}

func newFuture() *Future {
	return &Future{done: make(chan struct{})}
}

// resolved returns a future already carrying err (enqueue-time
// failures).
func resolved(err error) *Future {
	f := newFuture()
	f.resolve(nil, err)
	return f
}

// resolve completes the future and reports whether this call was the
// one that did.
func (f *Future) resolve(v any, err error) (first bool) {
	f.once.Do(func() {
		f.res = result{value: v, err: err}
		close(f.done)
		first = true
	})
	return first
}

// Done returns a channel closed when the call completes.
func (f *Future) Done() <-chan struct{} { return f.done }

// Result blocks until the call completes and returns its outcome.
func (f *Future) Result() (any, error) {
	<-f.done
	return f.res.value, f.res.err
}

// Wait blocks until the call completes or ctx is done, whichever comes
// first. On early cancellation the call keeps executing server-side;
// only the wait is abandoned. A call that has already completed is
// reported as completed even if ctx has expired since — a caller
// collecting several futures under one deadline must not lose the
// answers that arrived in time.
func (f *Future) Wait(ctx context.Context) (any, error) {
	select {
	case <-f.done:
		return f.res.value, f.res.err
	default:
	}
	select {
	case <-f.done:
		return f.res.value, f.res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// call is one queued request.
type call struct {
	ctx     context.Context
	method  string
	payload any
	fut     *Future
}

// serverState is the Drain/Close lifecycle.
type serverState int32

const (
	stateRunning serverState = iota
	stateDraining
	stateStopped
)

// Server is one addressable node on the Network.
type Server struct {
	addr    string
	cfg     ServerConfig
	handler Handler

	// mu guards state against enqueue: senders hold the read lock
	// across the (state check, channel send) pair, so a state flip
	// under the write lock proves no sender is mid-send. This is what
	// makes closing the queue safe.
	mu    sync.RWMutex
	state serverState

	queue    chan *call
	crashed  atomic.Bool
	workers  sync.WaitGroup // handler pool
	inflight sync.WaitGroup // queued + executing calls

	// drainMu/drainIdle share one idle-waiter goroutine across
	// concurrent or retried Drain calls, so a drain that times out
	// against a wedged server doesn't leak a goroutine per attempt.
	drainMu   sync.Mutex
	drainIdle chan struct{}

	// Telemetry.
	Handled   telemetry.Counter
	Overflows telemetry.Counter
	Depth     telemetry.Gauge
}

// Addr returns the server's network address.
func (s *Server) Addr() string { return s.addr }

// Crashed reports whether the server has crashed (queue-overflow or
// injected).
func (s *Server) Crashed() bool { return s.crashed.Load() }

// enqueue admits one call, failing fast on overflow or shutdown.
func (s *Server) enqueue(c *call) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.crashed.Load() {
		return fmt.Errorf("%w: %s", ErrServerDown, s.addr)
	}
	switch s.state {
	case stateDraining:
		return fmt.Errorf("%w: %s", ErrServerDraining, s.addr)
	case stateStopped:
		return fmt.Errorf("%w: %s", ErrServerStopped, s.addr)
	}
	// Count the call before the send: a worker may dequeue (and Done)
	// the instant it lands in the channel.
	s.inflight.Add(1)
	select {
	case s.queue <- c:
		s.Depth.Inc()
		return nil
	default:
		s.inflight.Done()
		s.Overflows.Inc()
		if t := s.cfg.CrashOnOverflow; t > 0 && s.Overflows.Value() >= t {
			s.Crash()
		}
		return fmt.Errorf("%w: %s", ErrQueueOverflow, s.addr)
	}
}

// Crash marks the server dead immediately, as failure injection.
// Queued calls fail with ErrServerDown.
func (s *Server) Crash() {
	if s.crashed.CompareAndSwap(false, true) {
		s.rejectQueued()
		if s.cfg.OnCrash != nil {
			go s.cfg.OnCrash()
		}
	}
}

// rejectQueued fails queued calls after a crash. Workers racing on the
// same queue reject concurrently (they check crashed before handling).
func (s *Server) rejectQueued() {
	for {
		select {
		case c, ok := <-s.queue:
			if !ok {
				return // already stopped and flushed
			}
			s.Depth.Dec()
			c.fut.resolve(nil, fmt.Errorf("%w: %s", ErrServerDown, s.addr))
			s.inflight.Done()
		default:
			return
		}
	}
}

// Drain gracefully quiesces the server: new enqueues are rejected with
// ErrServerDraining while queued and executing calls run to
// completion. It returns nil once the server is idle, or ctx.Err() if
// the deadline expires first (the server stays draining).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.state == stateRunning {
		s.state = stateDraining
	}
	s.mu.Unlock()
	s.drainMu.Lock()
	idle := s.drainIdle
	if idle == nil {
		idle = make(chan struct{})
		s.drainIdle = idle
		go func() {
			s.inflight.Wait()
			s.drainMu.Lock()
			s.drainIdle = nil
			s.drainMu.Unlock()
			close(idle)
		}()
	}
	s.drainMu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// stop ends the server: no new enqueues, queued calls are still
// handled (flushed) by the workers, then the pool exits. Safe to call
// multiple times and concurrently with enqueuers — the write lock
// serialises against in-progress sends, so the channel close below
// can never race a sender.
func (s *Server) stop() {
	s.mu.Lock()
	if s.state == stateStopped {
		s.mu.Unlock()
		return
	}
	s.state = stateStopped
	s.mu.Unlock()
	close(s.queue)
	s.workers.Wait()
}

// serve runs one worker: dequeue, handle, resolve.
func (s *Server) serve() {
	defer s.workers.Done()
	for c := range s.queue {
		s.Depth.Dec()
		if s.crashed.Load() {
			c.fut.resolve(nil, fmt.Errorf("%w: %s", ErrServerDown, s.addr))
			s.inflight.Done()
			continue
		}
		if err := c.ctx.Err(); err != nil {
			// The caller's deadline expired while the call sat queued;
			// don't burn handler time on it.
			c.fut.resolve(nil, err)
			s.inflight.Done()
			continue
		}
		v, err := s.handler(c.ctx, c.method, c.payload)
		s.Handled.Inc()
		if d, ok := v.(Deferred); ok && err == nil {
			d(func(v any, err error) {
				if c.fut.resolve(v, err) {
					s.inflight.Done()
				}
			})
			continue
		}
		c.fut.resolve(v, err)
		s.inflight.Done()
	}
}

// Network connects servers by address. It is safe for concurrent use.
type Network struct {
	mu      sync.RWMutex
	servers map[string]*Server
	latency time.Duration
	clk     clock.Clock
	closed  bool

	// faults, when set, is consulted on every outgoing call (op
	// "rpc/<addr>/<method>"). Nil when chaos is off: one atomic load.
	faults atomic.Pointer[faultinject.Injector]

	// routeMu guards the TCP bridge state (see transport.go): the
	// outbound prefix routes and the pooled peer connections.
	routeMu sync.RWMutex
	routes  []route
	peers   map[string]*peerConn

	// Calls counts every Call/Go attempt, including failures.
	Calls telemetry.Counter
}

// SetFaults installs (or, with nil, removes) a fault injector consulted
// on every outgoing call, with operations named "rpc/<addr>/<method>".
func (n *Network) SetFaults(f *faultinject.Injector) {
	n.faults.Store(f)
}

// NewNetwork returns a network with the given per-call latency (0 for
// none). A nil clk defaults to the real clock.
func NewNetwork(latency time.Duration, clk clock.Clock) *Network {
	if clk == nil {
		clk = clock.Real{}
	}
	return &Network{servers: make(map[string]*Server), latency: latency, clk: clk}
}

// Register creates and starts a server at addr. Registering an existing
// address replaces the old server (which is crashed and stopped).
func (n *Network) Register(addr string, handler Handler, cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{addr: addr, cfg: cfg, handler: handler, queue: make(chan *call, cfg.QueueCap)}
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.serve()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		s.stop()
		return nil, ErrNetworkClosed
	}
	if old, ok := n.servers[addr]; ok {
		old.Crash()
		go old.stop()
	}
	n.servers[addr] = s
	return s, nil
}

// Lookup returns the server at addr, if any.
func (n *Network) Lookup(addr string) (*Server, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	s, ok := n.servers[addr]
	return s, ok
}

// Remove deregisters the server at addr and shuts it down gracefully:
// queued calls are flushed, new ones rejected.
func (n *Network) Remove(addr string) {
	n.mu.Lock()
	s, ok := n.servers[addr]
	if ok {
		delete(n.servers, addr)
	}
	n.mu.Unlock()
	if ok {
		s.stop()
	}
}

// Addrs returns the registered addresses (unordered).
func (n *Network) Addrs() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.servers))
	for a := range n.servers {
		out = append(out, a)
	}
	return out
}

// Drain quiesces every server (see Server.Drain); the network stays
// open for lookups but servers reject new work until stopped.
func (n *Network) Drain(ctx context.Context) error {
	n.mu.RLock()
	servers := make([]*Server, 0, len(n.servers))
	for _, s := range n.servers {
		servers = append(servers, s)
	}
	n.mu.RUnlock()
	for _, s := range servers {
		if err := s.Drain(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Close shuts every server down gracefully — queued calls are flushed,
// not dropped — and fails subsequent Call/Go/Register with
// ErrNetworkClosed.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	servers := make([]*Server, 0, len(n.servers))
	for _, s := range n.servers {
		servers = append(servers, s)
	}
	n.servers = make(map[string]*Server)
	n.mu.Unlock()
	for _, s := range servers {
		s.stop()
	}
	n.ClosePeers()
}

// Call sends a request to addr and blocks until the response, the
// context's deadline, or its cancellation. A full destination queue
// fails with ErrQueueOverflow immediately (fail-fast, like an RPC
// rejection) and counts toward the server's crash threshold.
func (n *Network) Call(ctx context.Context, addr, method string, payload any) (any, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return n.Go(ctx, addr, method, payload).Wait(ctx)
}

// Go issues a request asynchronously and returns its Future — the
// pipelining primitive. Enqueue failures (unknown address, overflow,
// server down, closed network, expired context) resolve the future
// immediately; it never blocks on the destination.
func (n *Network) Go(ctx context.Context, addr, method string, payload any) *Future {
	return n.dispatch(ctx, addr, method, payload, true)
}

// dispatch is Go; forward says whether an address with no local server
// may leave along a route. A request that arrived over the wire may
// not (Transport.serveConn): the sender's route already chose this
// process, and forwarding it again — a node routes its own name to its
// own listener — would loop until the deadline.
func (n *Network) dispatch(ctx context.Context, addr, method string, payload any, forward bool) *Future {
	n.Calls.Inc()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return resolved(err)
	}
	n.mu.RLock()
	if n.closed {
		n.mu.RUnlock()
		return resolved(ErrNetworkClosed)
	}
	s, ok := n.servers[addr]
	lat := n.latency
	n.mu.RUnlock()
	if !ok && forward {
		// Not served here: forward along a configured route, so remote
		// processes look like locally registered servers to callers.
		if fwdAddr, endpoint, rok := n.lookupRoute(addr); rok {
			if f := n.faults.Load(); f.Active() > 0 {
				if d := f.Decide("rpc/" + addr + "/" + method); !d.Zero() && d.Err != nil {
					return resolved(d.Err)
				}
			}
			return n.goRemote(ctx, addr, fwdAddr, endpoint, method, payload)
		}
	}
	if !ok {
		return resolved(fmt.Errorf("%w: %s", ErrUnknownAddr, addr))
	}
	c := &call{ctx: ctx, method: method, payload: payload, fut: newFuture()}
	if f := n.faults.Load(); f.Active() > 0 {
		if d := f.Decide("rpc/" + addr + "/" + method); !d.Zero() {
			return n.faultedGo(ctx, f, d, s, c, lat)
		}
	}
	if lat > 0 {
		// Model the wire delay off the caller's goroutine so Go stays
		// non-blocking; the future resolves after delay + service.
		go func() {
			n.clk.Sleep(lat)
			if err := s.enqueue(c); err != nil {
				c.fut.resolve(nil, err)
			}
		}()
		return c.fut
	}
	if err := s.enqueue(c); err != nil {
		return resolved(err)
	}
	return c.fut
}

// faultedGo carries out an injected fault decision on an outgoing call
// off the caller's goroutine, keeping Go non-blocking.
func (n *Network) faultedGo(ctx context.Context, f *faultinject.Injector, d faultinject.Decision, s *Server, c *call, lat time.Duration) *Future {
	go func() {
		if errors.Is(d.Err, faultinject.ErrDropped) {
			// A dropped call models a lost packet: it never resolves on
			// its own, the caller only observes its own ctx. Without a
			// cancellable ctx there is nothing to wait on, so fail fast
			// rather than leak the goroutine.
			if ctx.Done() == nil {
				c.fut.resolve(nil, faultinject.ErrDropped)
				return
			}
			<-ctx.Done()
			c.fut.resolve(nil, ctx.Err())
			return
		}
		// Apply blocks for latency/stall and then surfaces the injected
		// error, if any; otherwise the call proceeds normally, delayed.
		if err := f.Apply(ctx, d); err != nil {
			c.fut.resolve(nil, err)
			return
		}
		if lat > 0 {
			n.clk.Sleep(lat)
		}
		if err := s.enqueue(c); err != nil {
			c.fut.resolve(nil, err)
		}
	}()
	return c.fut
}
