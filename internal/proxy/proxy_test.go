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

// TestDropsAfterRetryBudget: a batch every backend fails is not
// dropped once the attempts run out. It comes back to the submitter
// with an error resilience.Transient accepts, so the caller keeps it
// and waits the outage out; only a refused batch counts as Dropped.
func TestDropsAfterRetryBudget(t *testing.T) {
	net, addrs, _, _ := fakeTSDs(t, 2, func(string) error { return errors.New("all down") })
	p, err := New(net, addrs, Config{MaxInFlight: 1, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	err = p.Submit(somePoints(7))
	if !resilience.Transient(err) {
		t.Fatalf("err = %v, want one resilience.Transient accepts", err)
	}
	if p.Dropped.Value() != 0 || p.Delivered.Value() != 0 || p.Retries.Value() != 2 {
		t.Fatalf("dropped %d delivered %d retries %d, want 0 / 0 / 2", p.Dropped.Value(), p.Delivered.Value(), p.Retries.Value())
	}
}

// TestAllBreakersOpenIsTransient: with every backend's circuit open the
// proxy calls no backend and answers with an error resilience.Transient
// accepts, so a storage writer parks instead of giving the batch up.
func TestAllBreakersOpenIsTransient(t *testing.T) {
	net, addrs, total, _ := fakeTSDs(t, 2, nil)
	breakers := resilience.NewGroup(resilience.BreakerConfig{FailureThreshold: 1, Cooldown: time.Hour})
	for _, addr := range addrs {
		breakers.For(addr).Failure()
	}
	p, err := New(net, addrs, Config{MaxRetries: 1, Breakers: breakers})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	err = p.Submit(somePoints(4))
	if !resilience.Transient(err) || !errors.Is(err, resilience.ErrUnavailable) {
		t.Fatalf("err = %v, want resilience.ErrUnavailable (transient)", err)
	}
	if total.Load() != 0 || p.Dropped.Value() != 0 {
		t.Fatalf("backends saw %d points, dropped %d; want 0 / 0", total.Load(), p.Dropped.Value())
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

// gatedTSD registers one backend that signals entered on every call
// and answers once gate is closed.
func gatedTSD(t *testing.T, addr string) (net *rpc.Network, entered chan struct{}, gate chan struct{}) {
	t.Helper()
	net = rpc.NewNetwork(0, nil)
	t.Cleanup(net.Close)
	entered, gate = make(chan struct{}, 16), make(chan struct{})
	_, err := net.Register(addr, func(context.Context, string, any) (any, error) {
		entered <- struct{}{}
		<-gate
		return nil, nil
	}, rpc.ServerConfig{QueueCap: 16, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return net, entered, gate
}

// submitAsync runs Submit on its own goroutine; its result arrives on
// the returned channel.
func submitAsync(p *Proxy, n int) chan error {
	res := make(chan error, 1)
	go func() { res <- p.Submit(somePoints(n)) }()
	return res
}

func TestFlushWaitsForDelivery(t *testing.T) {
	net, entered, gate := gatedTSD(t, "tsd/slow")
	p, err := New(net, []string{"tsd/slow"}, Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	submitted := submitAsync(p, 3)
	<-entered // the delivery is in progress
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
	close(gate)
	select {
	case <-flushed:
	case <-time.After(2 * time.Second):
		t.Fatal("Flush never returned")
	}
	if err := <-submitted; err != nil || p.Delivered.Value() != 3 {
		t.Fatalf("submit = %v, delivered %d; want nil, 3", err, p.Delivered.Value())
	}
}

// TestBufferBackpressureBlocksProducer: with MaxInFlight 1 held by a
// delivery the TSD has not answered, a second Submit waits for the slot.
func TestBufferBackpressureBlocksProducer(t *testing.T) {
	net, entered, gate := gatedTSD(t, "tsd/stuck")
	p, err := New(net, []string{"tsd/stuck"}, Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	first := submitAsync(p, 1)
	<-entered
	second := submitAsync(p, 1)
	select {
	case <-second:
		t.Fatal("second submit should have blocked (no backpressure)")
	case <-time.After(30 * time.Millisecond):
	}
	if d := p.QueueDepth.Value(); d != 2 {
		t.Fatalf("QueueDepth = %d, want 2 (one delivering, one waiting)", d)
	}
	close(gate)
	for _, res := range []chan error{first, second} {
		select {
		case err := <-res:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("producer never unblocked")
		}
	}
	if p.Delivered.Value() != 2 || p.QueueDepth.Value() != 0 {
		t.Fatalf("delivered %d, queue depth %d; want 2, 0", p.Delivered.Value(), p.QueueDepth.Value())
	}
}

// TestSubmitContextDeadlineOnFullBuffer: a producer waiting for a slot
// is released by its deadline instead of hanging.
func TestSubmitContextDeadlineOnFullBuffer(t *testing.T) {
	net, entered, gate := gatedTSD(t, "tsd/gated")
	p, err := New(net, []string{"tsd/gated"}, Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(gate); p.Close() }()
	submitAsync(p, 5) // holds the only slot on the wedged TSD
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.SubmitContext(ctx, somePoints(5)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestCloseWakesBlockedProducer: Close must release producers waiting
// for a slot with ErrClosed, and wait for the delivery in progress.
func TestCloseWakesBlockedProducer(t *testing.T) {
	net, entered, gate := gatedTSD(t, "tsd/gated")
	p, err := New(net, []string{"tsd/gated"}, Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	first := submitAsync(p, 5)
	<-entered
	blocked := make([]chan error, 4)
	for i := range blocked {
		blocked[i] = submitAsync(p, 5)
	}
	for p.QueueDepth.Value() < 5 { // all four queue for the slot
		time.Sleep(time.Millisecond)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(gate) // unstick the TSD so Close can finish
	}()
	p.Close()
	if err := <-first; err != nil {
		t.Fatalf("the delivery in progress at Close: %v", err)
	}
	// Every producer resolved: delivered before the close landed or
	// cleanly rejected — never deadlocked, never panicked.
	for _, res := range blocked {
		select {
		case err := <-res:
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

// TestDeliveryTimeoutPropagates: the submitter's deadline reaches the
// TSD handler, and a TSD slower than it ends the submission with the
// deadline's error — nothing dropped.
func TestDeliveryTimeoutPropagates(t *testing.T) {
	net := rpc.NewNetwork(0, nil)
	t.Cleanup(net.Close)
	gate := make(chan struct{})
	defer close(gate)
	sawDeadline := make(chan bool, 1)
	_, err := net.Register("tsd/stuck2", func(ctx context.Context, _ string, _ any) (any, error) {
		_, ok := ctx.Deadline()
		sawDeadline <- ok
		<-gate
		return nil, nil
	}, rpc.ServerConfig{QueueCap: 64, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(net, []string{"tsd/stuck2"}, Config{MaxInFlight: 1, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := p.SubmitContext(ctx, somePoints(3)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if !<-sawDeadline {
		t.Fatal("the TSD handler's context carried no deadline")
	}
	if p.Dropped.Value() != 0 || p.Delivered.Value() != 0 {
		t.Fatalf("dropped %d delivered %d, want 0 / 0", p.Dropped.Value(), p.Delivered.Value())
	}
}

// TestPermanentErrorIsNotRetried: a batch the TSDs refuse as malformed
// is dropped at once — in the retry-forever setting too — and handed
// back as refused, without a retry and without opening the circuit of
// a backend whose only fault was answering.
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
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 4; i++ { // enough to trip both breakers twice over, were they charged
		if err := p.SubmitContext(ctx, poison); !errors.Is(err, tsdb.ErrBadPoint) {
			t.Fatalf("poison submit = %v, want tsdb.ErrBadPoint (retries %d)", err, p.Retries.Value())
		}
	}
	for i := 0; i < 6; i++ {
		if err := p.SubmitContext(ctx, somePoints(5)); err != nil {
			t.Fatal(err)
		}
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
