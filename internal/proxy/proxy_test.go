package proxy

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/rpc"
	"repro/internal/tsdb"
)

// fakeTSDs registers n handlers that count points, optionally failing.
func fakeTSDs(t *testing.T, n int, fail func(addr string) error) (*rpc.Network, []string, *atomic.Int64, map[string]*atomic.Int64) {
	t.Helper()
	net := rpc.NewNetwork(0, nil)
	t.Cleanup(net.Close)
	total := &atomic.Int64{}
	per := make(map[string]*atomic.Int64)
	var addrs []string
	for i := 0; i < n; i++ {
		addr := "tsd/fake-" + string(rune('a'+i))
		cnt := &atomic.Int64{}
		per[addr] = cnt
		addrCopy := addr
		_, err := net.Register(addr, func(_ context.Context, method string, payload any) (any, error) {
			if fail != nil {
				if err := fail(addrCopy); err != nil {
					return nil, err
				}
			}
			pts := payload.(*tsdb.PutBatch).Points
			cnt.Add(int64(len(pts)))
			total.Add(int64(len(pts)))
			return nil, nil
		}, rpc.ServerConfig{QueueCap: 64, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
	}
	return net, addrs, total, per
}

func somePoints(n int) []tsdb.Point {
	pts := make([]tsdb.Point, n)
	for i := range pts {
		pts[i] = tsdb.EnergyPoint(1, i, int64(i), float64(i))
	}
	return pts
}

func TestSubmitDeliversAll(t *testing.T) {
	net, addrs, total, _ := fakeTSDs(t, 2, nil)
	p, err := New(net, addrs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := p.Submit(somePoints(50)); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	if total.Load() != 500 {
		t.Fatalf("delivered %d points, want 500", total.Load())
	}
	if p.Accepted.Value() != 500 || p.Delivered.Value() != 500 || p.Dropped.Value() != 0 {
		t.Fatalf("counters: acc=%d del=%d drop=%d", p.Accepted.Value(), p.Delivered.Value(), p.Dropped.Value())
	}
}

func TestRoundRobinSpreadsLoad(t *testing.T) {
	net, addrs, _, per := fakeTSDs(t, 4, nil)
	p, err := New(net, addrs, Config{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := p.Submit(somePoints(10)); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	for addr, cnt := range per {
		if cnt.Load() == 0 {
			t.Fatalf("backend %s got no traffic", addr)
		}
	}
}

func TestRetryFailsOverToHealthyBackend(t *testing.T) {
	var net *rpc.Network
	fail := func(addr string) error {
		if addr == "tsd/fake-a" {
			return errors.New("backend down")
		}
		return nil
	}
	net, addrs, total, per := fakeTSDs(t, 2, fail)
	_ = net
	p, err := New(net, addrs, Config{MaxInFlight: 1, MaxRetries: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := p.Submit(somePoints(5)); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	if total.Load() != 40 {
		t.Fatalf("delivered %d, want 40 (retries must fail over)", total.Load())
	}
	if per["tsd/fake-a"].Load() != 0 {
		t.Fatal("failing backend must not have accepted points")
	}
	if p.Retries.Value() == 0 {
		t.Fatal("retries not counted")
	}
}

func TestDropsAfterRetryBudget(t *testing.T) {
	net, addrs, _, _ := fakeTSDs(t, 2, func(string) error { return errors.New("all down") })
	p, err := New(net, addrs, Config{MaxInFlight: 1, MaxRetries: 2, RetryBackoff: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(somePoints(7)); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if p.Dropped.Value() != 7 {
		t.Fatalf("Dropped = %d, want 7", p.Dropped.Value())
	}
	if p.Delivered.Value() != 0 {
		t.Fatal("nothing should be delivered")
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	net, addrs, _, _ := fakeTSDs(t, 1, nil)
	p, err := New(net, addrs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	if err := p.Submit(somePoints(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestEmptySubmitIsNoop(t *testing.T) {
	net, addrs, _, _ := fakeTSDs(t, 1, nil)
	p, err := New(net, addrs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Submit(nil); err != nil {
		t.Fatal(err)
	}
	if p.Accepted.Value() != 0 {
		t.Fatal("empty submit must not count")
	}
}

func TestNoBackends(t *testing.T) {
	net := rpc.NewNetwork(0, nil)
	defer net.Close()
	if _, err := New(net, nil, Config{}); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("err = %v", err)
	}
}

func TestFlushWaitsForDelivery(t *testing.T) {
	slow := make(chan struct{})
	net := rpc.NewNetwork(0, nil)
	defer net.Close()
	var got atomic.Int64
	_, err := net.Register("tsd/slow", func(_ context.Context, method string, payload any) (any, error) {
		<-slow
		got.Add(int64(len(payload.(*tsdb.PutBatch).Points)))
		return nil, nil
	}, rpc.ServerConfig{QueueCap: 16, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(net, []string{"tsd/slow"}, Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(somePoints(3)); err != nil {
		t.Fatal(err)
	}
	flushed := make(chan struct{})
	go func() {
		p.Flush()
		close(flushed)
	}()
	select {
	case <-flushed:
		t.Fatal("Flush returned before delivery")
	case <-time.After(20 * time.Millisecond):
	}
	close(slow)
	select {
	case <-flushed:
	case <-time.After(2 * time.Second):
		t.Fatal("Flush never returned")
	}
	if got.Load() != 3 {
		t.Fatal("batch not delivered")
	}
	p.Close()
}

func TestBufferBackpressureBlocksProducer(t *testing.T) {
	block := make(chan struct{})
	net := rpc.NewNetwork(0, nil)
	defer net.Close()
	_, err := net.Register("tsd/stuck", func(context.Context, string, any) (any, error) {
		<-block
		return nil, nil
	}, rpc.ServerConfig{QueueCap: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(net, []string{"tsd/stuck"}, Config{MaxInFlight: 1, BufferBatches: 1})
	if err != nil {
		t.Fatal(err)
	}
	// First batch occupies the sender; second fills the buffer; third
	// must block the producer.
	if err := p.Submit(somePoints(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(somePoints(1)); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan struct{})
	go func() {
		_ = p.Submit(somePoints(1))
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("third submit should have blocked (no backpressure)")
	case <-time.After(30 * time.Millisecond):
	}
	close(block)
	select {
	case <-blocked:
	case <-time.After(2 * time.Second):
		t.Fatal("producer never unblocked")
	}
	p.Close()
	if got := p.Backends(); len(got) != 1 || got[0] != "tsd/stuck" {
		t.Fatalf("Backends = %v", got)
	}
}

// TestSubmitContextDeadlineOnFullBuffer: a producer blocked on a full
// buffer is released by its deadline instead of hanging.
func TestSubmitContextDeadlineOnFullBuffer(t *testing.T) {
	net := rpc.NewNetwork(0, nil)
	t.Cleanup(net.Close)
	gate := make(chan struct{})
	_, err := net.Register("tsd/gated", func(context.Context, string, any) (any, error) {
		<-gate
		return nil, nil
	}, rpc.ServerConfig{QueueCap: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(net, []string{"tsd/gated"}, Config{MaxInFlight: 1, BufferBatches: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(gate); p.Close() }()
	// First submit ends up with the (wedged) sender; the second then
	// fills the 1-slot buffer for good — the sender can never free it.
	if err := p.Submit(somePoints(5)); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(somePoints(5)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.SubmitContext(ctx, somePoints(5)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestCloseWakesBlockedProducer: Close must release producers stuck on
// a full buffer with ErrClosed — the shutdown race the old proxy had.
func TestCloseWakesBlockedProducer(t *testing.T) {
	net := rpc.NewNetwork(0, nil)
	t.Cleanup(net.Close)
	gate := make(chan struct{})
	_, err := net.Register("tsd/gated", func(context.Context, string, any) (any, error) {
		<-gate
		return nil, nil
	}, rpc.ServerConfig{QueueCap: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(net, []string{"tsd/gated"}, Config{MaxInFlight: 1, BufferBatches: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(somePoints(5)); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 8)
	for i := 0; i < 4; i++ {
		go func() { blocked <- p.Submit(somePoints(5)) }()
	}
	time.Sleep(10 * time.Millisecond) // let them pile onto the buffer
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(gate) // unstick the TSD so Close can flush
	}()
	p.Close()
	// All producers resolved: either delivered before the close landed
	// or cleanly rejected — never deadlocked, never panicked.
	for i := 0; i < 4; i++ {
		select {
		case err := <-blocked:
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Fatalf("unexpected submit error: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("producer still blocked after Close")
		}
	}
	if err := p.Submit(somePoints(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit: %v", err)
	}
}

// TestDrainWaitsForDeliveries: Drain returns once the buffer empties,
// and honours its context while deliveries are stuck.
func TestDrainWaitsForDeliveries(t *testing.T) {
	net, addrs, total, _ := fakeTSDs(t, 1, nil)
	p, err := New(net, addrs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 8; i++ {
		if err := p.Submit(somePoints(10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if total.Load() != 80 {
		t.Fatalf("delivered %d, want 80", total.Load())
	}
}

// TestDeliveryTimeoutPropagates: a DeliveryTimeout shorter than the
// TSD's service time abandons the attempt and eventually drops.
func TestDeliveryTimeoutPropagates(t *testing.T) {
	net := rpc.NewNetwork(0, nil)
	t.Cleanup(net.Close)
	gate := make(chan struct{})
	defer close(gate)
	_, err := net.Register("tsd/stuck2", func(context.Context, string, any) (any, error) {
		<-gate
		return nil, nil
	}, rpc.ServerConfig{QueueCap: 64, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(net, []string{"tsd/stuck2"}, Config{
		MaxInFlight: 1, MaxRetries: 1, DeliveryTimeout: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(somePoints(3)); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for p.Dropped.Value() == 0 {
		select {
		case <-deadline:
			t.Fatal("delivery timeout never dropped the batch")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestPermanentErrorIsNotRetried: a batch the TSDs refuse as malformed
// is dropped at once — in the retry-forever setting too — without
// wedging a sender, without a retry, and without opening the circuit
// of a backend whose only fault was answering.
func TestPermanentErrorIsNotRetried(t *testing.T) {
	net := rpc.NewNetwork(0, nil)
	t.Cleanup(net.Close)
	var delivered atomic.Int64
	addrs := []string{"tsd/a", "tsd/b"}
	for _, addr := range addrs {
		_, err := net.Register(addr, func(_ context.Context, _ string, payload any) (any, error) {
			pts := payload.(*tsdb.PutBatch).Points
			for i := range pts {
				if err := pts[i].Validate(); err != nil {
					return nil, err
				}
			}
			delivered.Add(int64(len(pts)))
			return nil, nil
		}, rpc.ServerConfig{QueueCap: 64, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
	}
	breakers := resilience.NewGroup(resilience.BreakerConfig{FailureThreshold: 2})
	p, err := New(net, addrs, Config{MaxInFlight: 1, MaxRetries: -1, Breakers: breakers})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	poison := somePoints(3)
	poison[1].Tags = nil
	for i := 0; i < 4; i++ { // enough to trip both breakers twice over, were they charged
		if err := p.Submit(poison); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if err := p.Submit(somePoints(5)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("the poison batches never ended: %v (retries %d)", err, p.Retries.Value())
	}
	if p.Dropped.Value() != 12 || p.Delivered.Value() != 30 || delivered.Load() != 30 {
		t.Fatalf("dropped %d delivered %d (backends saw %d), want 12 / 30 / 30", p.Dropped.Value(), p.Delivered.Value(), delivered.Load())
	}
	if p.Retries.Value() != 0 {
		t.Fatalf("Retries = %d, want 0", p.Retries.Value())
	}
	if breakers.Opens.Value() != 0 {
		t.Fatalf("a permanent error opened %d circuits", breakers.Opens.Value())
	}
}
