package bus

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/rpc/wiretest"
	"repro/internal/tsdb"
	"repro/internal/zk"
)

func init() {
	gob.Register(&busOp{})
	gob.Register(&busResult{})
	gob.Register(Record{})
	gob.Register([]byte(nil))
}

func genRecord(g wiretest.Gen) Record {
	rec := Record{Partition: g.Int(), Offset: g.Int64(), Key: g.Uint64()}
	if val := g.Bytes(64); len(val) > 0 {
		rec.Value = val
	}
	return rec
}

func genRecords(g wiretest.Gen) []Record {
	switch g.IntN(4) {
	case 0:
		return nil
	case 1:
		return []Record{}
	}
	recs := make([]Record, g.IntN(70))
	for i := range recs {
		recs[i] = genRecord(g)
	}
	return recs
}

// TestBusWireRoundTrip: the bus's three wire types survive the codec as
// they survived gob, over generated values.
func TestBusWireRoundTrip(t *testing.T) {
	g := wiretest.NewGen(2)
	for i := 0; i < 80; i++ {
		op := &busOp{
			Topic: g.Str(12), Group: g.Str(12), Member: g.Str(12),
			Part: g.Int(), Key: g.Uint64(),
			Value: g.Bytes(2048), WaitMS: g.Int64(), Recs: genRecords(g), From: g.Int64(),
		}
		for n := g.IntN(5); n > 0; n-- {
			op.Marks = append(op.Marks, commitMark{Group: g.Str(12), Part: g.Int(), UpTo: g.Int64()})
		}
		res := &busResult{
			Rec: genRecord(g), Recs: genRecords(g),
			Generation: g.Int64(), Offset: g.Int64(), Lag: g.Int64(), OK: g.IntN(2) == 0,
		}
		for n := g.IntN(6); n > 0; n-- {
			res.Assigned = append(res.Assigned, g.Int())
		}
		rec := genRecord(g)
		for _, v := range []any{op, res, rec} {
			wiretest.RoundTrip(t, v, gob.NewEncoder, gob.NewDecoder)
		}
	}
	// A record holding a decoded value, not bytes, has no wire form.
	if _, err := rpc.AppendValue(nil, Record{Value: "a string"}); !errors.Is(err, rpc.ErrWireType) {
		t.Fatalf("record with a non-bytes value: err = %v, want ErrWireType", err)
	}
}

// serveBusTCP starts a one-node clustered bus behind a loopback
// listener and returns a RemoteBus on a second network that reaches it
// over TCP only.
func serveBusTCP(t testing.TB) *RemoteBus {
	t.Helper()
	zks := zk.NewServer()
	server := rpc.NewNetwork(0, nil)
	b := New(Config{Partitions: 4, PartitionBuffer: -1})
	sess := zks.NewSession()
	svc, err := StartService(server, sess, b, ServiceConfig{Node: "n1", Addr: "bus/n1"})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := rpc.ServeTCP(server, lis)
	client := rpc.NewNetwork(0, nil)
	client.AddRoute("bus/n1", lis.Addr().String())
	csess := zks.NewSession()
	t.Cleanup(func() {
		client.Close()
		tr.Close()
		svc.Close()
		b.Close()
		server.Close()
		csess.Close()
		sess.Close()
	})
	return NewRemoteBus(client, csess, RemoteBusConfig{Node: "client", Partitions: 4})
}

// TestIdleConsumersDoNotStarvePublish: twelve remote consumers parked
// in their long-polls — more than the bus service has rpc workers —
// must not delay a publish: a waiting fetch holds no pool worker.
func TestIdleConsumersDoNotStarvePublish(t *testing.T) {
	rb := serveBusTCP(t)
	ctx, cancel := context.WithCancel(context.Background())
	idle := rb.Topic("idle").Group("g")
	polled := make(chan error, 12)
	for i := 0; i < 12; i++ {
		c := idle.Join()
		go func() {
			_, err := c.Next(ctx, nil, nil)
			polled <- err
		}()
	}
	t.Cleanup(func() {
		cancel()
		for i := 0; i < 12; i++ {
			<-polled
		}
	})
	// Let every consumer reach its server-side wait.
	time.Sleep(100 * time.Millisecond)

	busy := rb.Topic("busy")
	var worst time.Duration
	for i := 0; i < 20; i++ {
		start := time.Now()
		if _, err := busy.Publish(ctx, uint64(i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		worst = max(worst, time.Since(start))
	}
	if worst >= 50*time.Millisecond {
		t.Fatalf("a publish took %v behind 12 idle long-polls, want < 50ms", worst)
	}
}

// TestNextCommitRidesTheFetch: a consumer looping on Next over TCP
// costs one fetch per batch and no commit call — K records published
// one at a time cost exactly K publishes and K fetches — and the last
// batch's commit, carried by one more fetch, leaves the group with
// nothing uncommitted.
func TestNextCommitRidesTheFetch(t *testing.T) {
	const k = 20
	rb := serveBusTCP(t)
	ctx := context.Background()
	topic := rb.Topic("next")
	group := topic.Group("g")
	c := group.Join()
	before := rb.net.Calls.Value()
	var done []Record
	bufs := [2][]Record{make([]Record, 0, 4), make([]Record, 0, 4)}
	for i := 0; i < k; i++ {
		if _, err := topic.Publish(ctx, uint64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
		recs, err := c.Next(ctx, done, bufs[i%2])
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].Value != int64(i) {
			t.Fatalf("Next %d = %+v, want record %d alone", i, recs, i)
		}
		bufs[i%2], done = recs, recs
	}
	if got := rb.net.Calls.Value() - before; got != 2*k {
		t.Fatalf("%d records cost %d calls, want %d publishes + %d fetches", k, got, k, k)
	}
	// The last commit rides the next fetch, which then parks: cut it
	// short, the commit has landed before the park.
	cctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	defer cancel()
	if _, err := c.Next(cctx, done, bufs[k%2]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("parked Next = %v, want the deadline", err)
	}
	sctx, scancel := context.WithTimeout(ctx, 5*time.Second)
	defer scancel()
	if err := group.Sync(sctx); err != nil {
		t.Fatalf("the group kept uncommitted records: %v (lag %d)", err, group.Lag())
	}
}

// TestRemoteCommitPolledIsOneCall: a remote CommitPolled sends one
// commit call however many partition runs it covers, and fails with
// ErrNotAssigned once a rebalance fenced one of its marks.
func TestRemoteCommitPolledIsOneCall(t *testing.T) {
	rb := serveBusTCP(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	topic := rb.Topic("commit")
	group := topic.Group("g")
	c := group.Join()
	defer c.Leave()
	for k := uint64(0); k < 8; k++ {
		if _, err := topic.Publish(ctx, k, int64(k)); err != nil {
			t.Fatal(err)
		}
	}
	var polled []Record
	for len(polled) < 8 {
		recs, err := c.Next(ctx, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		polled = append(polled, recs...)
	}
	parts := map[int]bool{}
	for _, r := range polled {
		parts[r.Partition] = true
	}
	before := rb.net.Calls.Value()
	if err := c.CommitPolled(polled); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if calls := rb.net.Calls.Value() - before; calls != 1 {
		t.Fatalf("committing %d partitions cost %d calls, want 1", len(parts), calls)
	}
	if lag := group.Lag(); lag != 0 {
		t.Fatalf("lag %d after the commit", lag)
	}
	other := group.Join() // takes half the partitions
	defer other.Leave()
	if err := c.CommitPolled(polled); !errors.Is(err, ErrNotAssigned) {
		t.Fatalf("commit across a rebalance = %v, want ErrNotAssigned", err)
	}
}

// BenchmarkTransportConsumeCycle is one record's round trips through a
// remote consumer over loopback TCP: a publish, then a Next that
// commits the previous record and fetches this one. rpcs/op counts the
// client's calls: 2, against 3 for a bare poll (Next with no done)
// followed by a CommitPolled.
func BenchmarkTransportConsumeCycle(b *testing.B) {
	rb := serveBusTCP(b)
	ctx := context.Background()
	topic := rb.Topic("cycle")
	c := topic.Group("g").Join()
	var done []Record
	bufs := [2][]Record{make([]Record, 0, 4), make([]Record, 0, 4)}
	before := rb.net.Calls.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topic.Publish(ctx, 7, int64(i)); err != nil {
			b.Fatal(err)
		}
		recs, err := c.Next(ctx, done, bufs[i%2])
		if err != nil {
			b.Fatal(err)
		}
		bufs[i%2], done = recs, recs
	}
	b.StopTimer()
	b.ReportMetric(float64(rb.net.Calls.Value()-before)/float64(b.N), "rpcs/op")
}

// BenchmarkTransportPublishHop is one publish of a 50-point row through
// the clustered bus's front door over loopback TCP: encode the value,
// frame the request, the leader's append (no followers here), frame the
// ack — the hop every row pays before its ack, minus replication.
func BenchmarkTransportPublishHop(b *testing.B) {
	rpc.RegisterWireType(rpc.TagPutBatch, tsdb.DecodePutBatch)
	rb := serveBusTCP(b)
	topic := rb.Topic("energy")
	row := &tsdb.PutBatch{Points: make([]tsdb.Point, 50)}
	for s := range row.Points {
		row.Points[s] = tsdb.EnergyPoint(7, s, 1_700_000_000, float64(s))
	}
	ctx := context.Background()
	if _, err := topic.Publish(ctx, 7, row); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topic.Publish(ctx, 7, row); err != nil {
			b.Fatal(err)
		}
	}
}
