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
			Part: g.Int(), UpTo: g.Int64(), Key: g.Uint64(),
			Value: g.Bytes(2048), WaitMS: g.Int64(), Recs: genRecords(g),
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
			_, err := c.Poll(ctx, nil)
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
