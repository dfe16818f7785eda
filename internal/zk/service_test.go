package zk

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/rpc"
)

// startService wires a Server + Service onto a fresh rpc network.
func startService(t *testing.T, ttl time.Duration) (*rpc.Network, *Server, *Service) {
	t.Helper()
	net := rpc.NewNetwork(0, nil)
	srv := NewServer()
	svc := NewService(srv, ttl)
	if err := svc.Register(net, "zk", rpc.ServerConfig{}); err != nil {
		t.Fatalf("register: %v", err)
	}
	t.Cleanup(func() { svc.Close(); net.Close() })
	return net, srv, svc
}

func remoteCfg() RemoteConfig {
	return RemoteConfig{KeepAlive: 20 * time.Millisecond}
}

func TestRemoteClientBasicOps(t *testing.T) {
	net, _, _ := startService(t, time.Second)
	c, err := Connect(context.Background(), net, "zk", remoteCfg())
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer c.Close()

	if err := c.Create("/a", []byte("one"), false); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := c.Create("/a", nil, false); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("want ErrNodeExists, got %v", err)
	}
	data, stat, err := c.Get("/a")
	if err != nil || string(data) != "one" || stat.Version != 0 {
		t.Fatalf("get: %q %+v %v", data, stat, err)
	}
	if err := c.Set("/a", []byte("two"), 5); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("want ErrBadVersion, got %v", err)
	}
	if err := c.Set("/a", []byte("two"), 0); err != nil {
		t.Fatalf("set: %v", err)
	}
	p, err := c.CreateSequential("/a/seq-", nil, true)
	if err != nil {
		t.Fatalf("createseq: %v", err)
	}
	kids, err := c.Children("/a")
	if err != nil || len(kids) != 1 {
		t.Fatalf("children: %v %v", kids, err)
	}
	ok, err := c.Exists(p)
	if err != nil || !ok {
		t.Fatalf("exists %s: %v %v", p, ok, err)
	}
	if err := c.Delete(p); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, _, err := c.Get(p); !errors.Is(err, ErrNoNode) {
		t.Fatalf("want ErrNoNode, got %v", err)
	}
}

func TestRemoteClientWatches(t *testing.T) {
	net, srv, _ := startService(t, time.Second)
	c, err := Connect(context.Background(), net, "zk", remoteCfg())
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer c.Close()
	local := srv.NewSession()
	defer local.Close()

	if err := local.Create("/w", []byte("v0"), false); err != nil {
		t.Fatal(err)
	}
	dw, err := c.Watch("/w")
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	cw, err := c.WatchChildren("/w")
	if err != nil {
		t.Fatalf("watchchildren: %v", err)
	}
	if err := local.Set("/w", []byte("v1"), -1); err != nil {
		t.Fatal(err)
	}
	if err := local.Create("/w/kid", nil, false); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-dw:
		if ev.Type != EventDataChanged {
			t.Fatalf("data watch fired %v", ev.Type)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("data watch never fired")
	}
	select {
	case ev := <-cw:
		if ev.Type != EventChildrenChanged {
			t.Fatalf("child watch fired %v", ev.Type)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("child watch never fired")
	}
}

// TestRemoteSessionExpiryFailsOverElection is the liveness core: a
// remote candidate that stops pinging loses its ephemerals, promoting
// the next candidate.
func TestRemoteSessionExpiryFailsOverElection(t *testing.T) {
	net, srv, _ := startService(t, 60*time.Millisecond)
	c1, err := Connect(context.Background(), net, "zk", remoteCfg())
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	e1, err := JoinElection(c1, "/election", "remote-1")
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	local := srv.NewSession()
	defer local.Close()
	e2, err := JoinElection(local, "/election", "local-2")
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if lead, _ := e1.IsLeader(); !lead {
		t.Fatal("remote candidate should lead")
	}
	if lead, _ := e2.IsLeader(); lead {
		t.Fatal("local candidate should follow")
	}

	// Simulate a SIGKILL: stop the keepalive without a clean close.
	c1.cancel()
	c1.wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e2.AwaitLeadership(ctx); err != nil {
		t.Fatalf("follower never promoted: %v", err)
	}
	if leader, err := e2.Leader(); err != nil || leader != "local-2" {
		t.Fatalf("leader=%q err=%v", leader, err)
	}
}

// TestRemoteElectionOverClient exercises the election recipe fully
// through the remote client, including the parked child watch inside
// AwaitLeadership.
func TestRemoteElectionOverClient(t *testing.T) {
	net, _, _ := startService(t, time.Second)
	c1, err := Connect(context.Background(), net, "zk", remoteCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Connect(context.Background(), net, "zk", remoteCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	e1, err := JoinElection(c1, "/el2", "a")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := JoinElection(c2, "/el2", "b")
	if err != nil {
		t.Fatal(err)
	}
	promoted := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		promoted <- e2.AwaitLeadership(ctx)
	}()
	time.Sleep(20 * time.Millisecond)
	if err := e1.Resign(); err != nil {
		t.Fatalf("resign: %v", err)
	}
	if err := <-promoted; err != nil {
		t.Fatalf("await: %v", err)
	}
}

// TestRemoteWatchesMissNothing: a change that comes and goes before the
// client looks again — a child added and removed, a version-0 znode
// deleted and re-created — still fires the remote watch armed before
// it. A watch that compared snapshots of child names or (exists,
// version) would see nothing.
func TestRemoteWatchesMissNothing(t *testing.T) {
	net, srv, _ := startService(t, time.Second)
	c, err := Connect(context.Background(), net, "zk", RemoteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	local := srv.NewSession()
	defer local.Close()
	must(t, local.Create("/p", nil, false))
	must(t, local.Create("/z", []byte("v0"), false))

	cw, err := c.WatchChildren("/p")
	if err != nil {
		t.Fatal(err)
	}
	must(t, local.Create("/p/kid", nil, false))
	must(t, local.Delete("/p/kid"))
	dw, err := c.Watch("/z")
	if err != nil {
		t.Fatal(err)
	}
	must(t, local.Delete("/z"))
	must(t, local.Create("/z", []byte("v0"), false))

	for _, w := range []struct {
		name string
		ch   <-chan Event
		want EventType
	}{{"children add+remove", cw, EventChildrenChanged}, {"delete+recreate", dw, EventDeleted}} {
		select {
		case ev := <-w.ch:
			if ev.Type != w.want {
				t.Fatalf("%s: watch fired %v, want %v", w.name, ev.Type, w.want)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s: watch never fired", w.name)
		}
	}
}

// TestQuietRemoteWatchCostsOneCallPerBudget: a remote watch on a znode
// nobody touches is one parked call per CallTimeout, not a read per
// poll tick, and still fires when the znode finally changes.
func TestQuietRemoteWatchCostsOneCallPerBudget(t *testing.T) {
	net, srv, _ := startService(t, time.Minute)
	const budget = 250 * time.Millisecond
	c, err := Connect(context.Background(), net, "zk", RemoteConfig{CallTimeout: budget, KeepAlive: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	local := srv.NewSession()
	defer local.Close()
	must(t, local.Create("/quiet", nil, false))
	ch, err := c.Watch("/quiet")
	if err != nil {
		t.Fatal(err)
	}
	before := net.Calls.Value()
	const window = 4 * budget
	time.Sleep(window)
	if calls := net.Calls.Value() - before; calls > int64(window/budget)+1 {
		t.Fatalf("quiet watch issued %d rpcs in %v; want at most one per %v", calls, window, budget)
	}
	must(t, local.Set("/quiet", []byte("x"), -1))
	select {
	case ev := <-ch:
		if ev.Type != EventDataChanged {
			t.Fatalf("watch fired %v", ev.Type)
		}
	case <-time.After(time.Second):
		t.Fatal("watch never fired after the quiet spell")
	}
}

// watchesOf counts the armed watches session owns.
func watchesOf(s *Server, session int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, table := range []map[string][]*watch{s.dataWatch, s.childWatch} {
		for _, ws := range table {
			for _, w := range ws {
				if w.owner == session {
					n++
				}
			}
		}
	}
	return n
}

// eventually waits up to a second for cond.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %s", what)
		}
	}
}

// TestWatchesAreSessionOwned: an armed watch lives no longer than the
// session that armed it or the parked call that armed it. Parks that
// run out of budget disarm; closing a session drops its watches and
// answers its parks at once; closing the service answers every park
// without waiting out a budget.
func TestWatchesAreSessionOwned(t *testing.T) {
	net, srv, svc := startService(t, time.Second)
	c, err := Connect(context.Background(), net, "zk", remoteCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	local := srv.NewSession()
	must(t, local.Create("/o", nil, false))
	_, st, err := c.Get("/o")
	if err != nil {
		t.Fatal(err)
	}
	op := &zkOp{Session: c.ID(), Path: "/o", Flag: true, Czxid: st.Czxid, Version: st.Version}

	// 100 quiet parks, each running out of budget.
	for i := 0; i < 100; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		v, err := net.Call(ctx, "zk", "watch", op)
		cancel()
		if res, _ := v.(*zkResult); err == nil && res.OK {
			t.Fatalf("park %d fired on a quiet znode", i)
		}
	}
	eventually(t, "expired parks disarm", func() bool { return watchesOf(srv, c.ID()) == 0 })

	// A local session's watches go with it.
	if _, err := local.Watch("/o"); err != nil {
		t.Fatal(err)
	}
	if _, err := local.WatchChildren("/o"); err != nil {
		t.Fatal(err)
	}
	local.Close()
	if n := watchesOf(srv, local.ID()); n != 0 {
		t.Fatalf("closed local session still holds %d watches", n)
	}

	// parkN parks n calls for session id with a long budget and returns
	// their outcomes.
	const budget = 5 * time.Second
	parkN := func(n int, id int64) <-chan error {
		errs := make(chan error, n)
		park := *op
		park.Session = id
		for i := 0; i < n; i++ {
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), budget)
				defer cancel()
				_, err := net.Call(ctx, "zk", "watch", &park)
				errs <- err
			}()
		}
		eventually(t, "calls park", func() bool { return watchesOf(srv, id) == n })
		return errs
	}
	collect := func(what string, errs <-chan error, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case err := <-errs:
				if !errors.Is(err, ErrSessionClosed) {
					t.Fatalf("%s: parked call answered %v, want ErrSessionClosed", what, err)
				}
			case <-time.After(budget / 5):
				t.Fatalf("%s: parked call still waiting", what)
			}
		}
	}

	// Closing the session answers its parks and drops their watches.
	doomed, err := Connect(context.Background(), net, "zk", remoteCfg())
	if err != nil {
		t.Fatal(err)
	}
	errs := parkN(10, doomed.ID())
	doomed.Close()
	collect("session close", errs, 10)
	if n := watchesOf(srv, doomed.ID()); n != 0 {
		t.Fatalf("closed remote session still holds %d watches", n)
	}

	// Closing the service answers every park well inside one budget.
	errs = parkN(10, c.ID())
	start := time.Now()
	svc.Close()
	if d := time.Since(start); d > budget/5 {
		t.Fatalf("Service.Close took %v with 10 parked watches", d)
	}
	collect("service close", errs, 10)
	if n := srv.Watches(); n != 0 {
		t.Fatalf("%d watches armed after the service closed", n)
	}
}
