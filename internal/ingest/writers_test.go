package ingest

import (
	"context"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/faultinject"
)

// TestStorageWriterRidesOutFetchFaults: a storage writer whose poll
// fails on an injected bus/fetch fault parks and resumes instead of
// ending. A single writer therefore delivers and commits every record
// published before and during the fault once the fault clears.
func TestStorageWriterRidesOutFetchFaults(t *testing.T) {
	b := bus.New(bus.Config{Partitions: 2})
	defer b.Close()
	inj := faultinject.New(1)
	b.SetFaults(inj)
	inj.Set("fetch", faultinject.Rule{Op: "bus/fetch/energy", ErrorRate: 1})
	topic := bus.LocalTopic{Topic: b.Topic("energy")}
	group := topic.Group("writers")
	sink := &collectingSink{}
	w := StartStorageWriters(context.Background(), group, sink, 1)
	defer w.Stop()

	fleet := smallFleet()
	const steps = 10
	if _, err := NewBusDriver(fleet, topic, DriverConfig{}).Run(0, steps); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	inj.Clear("fetch")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := group.Sync(ctx); err != nil {
		t.Fatalf("records left uncommitted after the fault cleared (lag %d): %v", group.Lag(), err)
	}
	want := int64(fleet.Units() * fleet.Sensors() * steps)
	if got := w.Delivered.Value(); got != want {
		t.Fatalf("delivered %d points, published %d", got, want)
	}
	if w.Parks.Value() == 0 || w.Parked.Value() != 0 {
		t.Fatalf("parks %d, parked %d; want the writer parked on the fault and resumed", w.Parks.Value(), w.Parked.Value())
	}
}
