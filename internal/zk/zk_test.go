package zk

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestCreateGetSetDelete(t *testing.T) {
	s := NewServer()
	c := s.NewSession()
	defer c.Close()

	if err := c.Create("/a", []byte("v1"), false); err != nil {
		t.Fatal(err)
	}
	data, stat, err := c.Get("/a")
	if err != nil || string(data) != "v1" || stat.Version != 0 || stat.Ephemeral {
		t.Fatalf("get = %q %+v %v", data, stat, err)
	}
	if err := c.Set("/a", []byte("v2"), -1); err != nil {
		t.Fatal(err)
	}
	data, stat, _ = c.Get("/a")
	if string(data) != "v2" || stat.Version != 1 {
		t.Fatalf("after set: %q v%d", data, stat.Version)
	}
	if err := c.Delete("/a"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get("/a"); !errors.Is(err, ErrNoNode) {
		t.Fatalf("err = %v, want ErrNoNode", err)
	}
}

func TestCreateErrors(t *testing.T) {
	s := NewServer()
	c := s.NewSession()
	defer c.Close()
	if err := c.Create("/a", nil, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Create("/a", nil, false); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := c.Create("/missing/child", nil, false); !errors.Is(err, ErrNoParent) {
		t.Fatalf("orphan create: %v", err)
	}
}

func TestDeleteWithChildrenFails(t *testing.T) {
	s := NewServer()
	c := s.NewSession()
	defer c.Close()
	must(t, c.Create("/a", nil, false))
	must(t, c.Create("/a/b", nil, false))
	if err := c.Delete("/a"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("err = %v, want ErrNotEmpty", err)
	}
	must(t, c.Delete("/a/b"))
	must(t, c.Delete("/a"))
}

func TestSetCompareAndSwap(t *testing.T) {
	s := NewServer()
	c := s.NewSession()
	defer c.Close()
	must(t, c.Create("/a", []byte("x"), false))
	if err := c.Set("/a", []byte("y"), 5); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("stale CAS: %v", err)
	}
	if err := c.Set("/a", []byte("y"), 0); err != nil {
		t.Fatal(err)
	}
}

func TestChildrenSorted(t *testing.T) {
	s := NewServer()
	c := s.NewSession()
	defer c.Close()
	must(t, c.Create("/p", nil, false))
	for _, k := range []string{"c", "a", "b"} {
		must(t, c.Create("/p/"+k, nil, false))
	}
	kids, err := c.Children("/p")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 3 || kids[0] != "a" || kids[2] != "c" {
		t.Fatalf("children = %v", kids)
	}
	if _, err := c.Children("/nope"); !errors.Is(err, ErrNoNode) {
		t.Fatal("children of missing node must fail")
	}
	// Nested children do not leak into the listing.
	must(t, c.Create("/p/a/deep", nil, false))
	kids, _ = c.Children("/p")
	if len(kids) != 3 {
		t.Fatalf("nested leak: %v", kids)
	}
}

func TestEphemeralRemovedOnClose(t *testing.T) {
	s := NewServer()
	owner := s.NewSession()
	watcher := s.NewSession()
	defer watcher.Close()

	must(t, owner.Create("/live", []byte("rs1"), true))
	_, stat, err := watcher.Get("/live")
	if err != nil || !stat.Ephemeral || stat.Owner != owner.ID() {
		t.Fatalf("stat = %+v %v", stat, err)
	}
	ch, err := watcher.Watch("/live")
	if err != nil {
		t.Fatal(err)
	}
	owner.Close()
	select {
	case ev := <-ch:
		if ev.Type != EventDeleted || ev.Path != "/live" {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("deletion watch never fired")
	}
	if ok, _ := watcher.Exists("/live"); ok {
		t.Fatal("ephemeral must vanish with its session")
	}
}

func TestClosedSessionRejectsOps(t *testing.T) {
	s := NewServer()
	c := s.NewSession()
	c.Close()
	c.Close() // idempotent
	if err := c.Create("/x", nil, false); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Children("/"); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestWatchDataChange(t *testing.T) {
	s := NewServer()
	c := s.NewSession()
	defer c.Close()
	must(t, c.Create("/a", nil, false))
	ch, err := c.Watch("/a")
	if err != nil {
		t.Fatal(err)
	}
	must(t, c.Set("/a", []byte("new"), -1))
	select {
	case ev := <-ch:
		if ev.Type != EventDataChanged {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("watch never fired")
	}
	// One-shot: a second change must not fire the consumed watch.
	must(t, c.Set("/a", []byte("newer"), -1))
	select {
	case ev := <-ch:
		t.Fatalf("one-shot watch fired twice: %+v", ev)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestWatchChildren(t *testing.T) {
	s := NewServer()
	c := s.NewSession()
	defer c.Close()
	must(t, c.Create("/p", nil, false))
	ch, err := c.WatchChildren("/p")
	if err != nil {
		t.Fatal(err)
	}
	must(t, c.Create("/p/kid", nil, false))
	select {
	case ev := <-ch:
		if ev.Type != EventChildrenChanged || ev.Path != "/p" {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("children watch never fired")
	}
}

func TestSequentialNodesOrdered(t *testing.T) {
	s := NewServer()
	c := s.NewSession()
	defer c.Close()
	must(t, c.Create("/q", nil, false))
	var paths []string
	for i := 0; i < 3; i++ {
		p, err := c.CreateSequential("/q/n-", []byte(fmt.Sprint(i)), false)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	for i := 1; i < len(paths); i++ {
		if paths[i] <= paths[i-1] {
			t.Fatalf("sequential paths not increasing: %v", paths)
		}
	}
	if _, err := c.CreateSequential("/missing/n-", nil, false); !errors.Is(err, ErrNoParent) {
		t.Fatal("sequential under missing parent must fail")
	}
}

func TestElectionFailover(t *testing.T) {
	s := NewServer()
	active := s.NewSession()
	backup := s.NewSession()
	defer backup.Close()

	e1, err := JoinElection(active, "/election/hmaster", "master-1")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := JoinElection(backup, "/election/hmaster", "master-2")
	if err != nil {
		t.Fatal(err)
	}
	if lead, _ := e1.IsLeader(); !lead {
		t.Fatal("first candidate must lead")
	}
	if lead, _ := e2.IsLeader(); lead {
		t.Fatal("second candidate must not lead")
	}
	if name, _ := Leader(backup, "/election/hmaster"); name != "master-1" {
		t.Fatalf("leader = %q", name)
	}

	ch, err := e2.WatchLeadership()
	if err != nil {
		t.Fatal(err)
	}
	active.Close() // the active master dies
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("leadership watch never fired")
	}
	if lead, _ := e2.IsLeader(); !lead {
		t.Fatal("backup must take over")
	}
	if name, _ := Leader(backup, "/election/hmaster"); name != "master-2" {
		t.Fatalf("leader after failover = %q", name)
	}
}

func TestElectionResign(t *testing.T) {
	s := NewServer()
	a := s.NewSession()
	b := s.NewSession()
	defer a.Close()
	defer b.Close()
	e1, err := JoinElection(a, "/el", "one")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := JoinElection(b, "/el", "two")
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Resign(); err != nil {
		t.Fatal(err)
	}
	if lead, _ := e2.IsLeader(); !lead {
		t.Fatal("resignation must promote the next candidate")
	}
}

func TestNormalizePaths(t *testing.T) {
	s := NewServer()
	c := s.NewSession()
	defer c.Close()
	must(t, c.Create("a", nil, false)) // no leading slash
	if ok, _ := c.Exists("/a"); !ok {
		t.Fatal("paths must normalize")
	}
	if ok, _ := c.Exists("/a/"); !ok {
		t.Fatal("trailing slash must normalize")
	}
	if ev := EventCreated.String(); ev != "created" {
		t.Fatal("event string wrong")
	}
	if EventType(9).String() == "" {
		t.Fatal("unknown event must render")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestAwaitLeadership(t *testing.T) {
	srv := NewServer()
	s1, s2 := srv.NewSession(), srv.NewSession()
	e1, err := JoinElection(s1, "/el-await", "one")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := JoinElection(s2, "/el-await", "two")
	if err != nil {
		t.Fatal(err)
	}
	// The first candidate leads immediately.
	if err := e1.AwaitLeadership(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The second blocks until the leader resigns.
	won := make(chan error, 1)
	go func() { won <- e2.AwaitLeadership(context.Background()) }()
	select {
	case err := <-won:
		t.Fatalf("follower won early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := e1.Resign(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-won:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower never promoted")
	}
	// A bounded wait that cannot win surfaces the deadline.
	s3 := srv.NewSession()
	e3, err := JoinElection(s3, "/el-await", "three")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := e3.AwaitLeadership(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}
