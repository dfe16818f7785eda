package bus

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// TestConsumeCommitsHandledPolls: Consume commits a poll only once its
// handler returned nil for all of it. A handler error stops the loop
// with that poll uncommitted, a stop commits the last handled poll,
// and a fetch fault parks the loop instead of ending it. Either way
// the member leaves its group.
func TestConsumeCommitsHandledPolls(t *testing.T) {
	b := New(Config{Partitions: 1})
	defer b.Close()
	topic := b.Topic("t")
	g := topic.Group("g")
	publish := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := topic.Publish(bg(), 0, i); err != nil {
				t.Fatal(err)
			}
		}
	}
	var parks telemetry.Counter
	var parked telemetry.Gauge

	publish(3)
	polls := 0
	Consume(bg(), g.Join(), &parks, &parked, func(recs []Record) error {
		if polls++; polls == 1 {
			publish(2)
			return nil
		}
		return errors.New("not handled whole")
	})
	if got := g.Committed(0); got != 3 {
		t.Fatalf("after a failed handler the group committed %d, want the 3 handled records", got)
	}
	if n := len(g.members); n != 0 {
		t.Fatalf("%d members still joined after Consume returned", n)
	}

	inj := faultinject.New(1)
	b.SetFaults(inj)
	inj.Set("fetch", faultinject.Rule{Op: "bus/fetch/", ErrorRate: 1})
	go func() {
		for parked.Value() == 0 {
			time.Sleep(time.Millisecond)
		}
		inj.Clear("fetch")
	}()
	ctx, cancel := context.WithCancel(bg())
	defer cancel()
	var redelivered []Record
	Consume(ctx, g.Join(), &parks, &parked, func(recs []Record) error {
		redelivered = append(redelivered, recs...)
		cancel() // stop after this poll
		return nil
	})
	if len(redelivered) != 2 || redelivered[0].Offset != 3 {
		t.Fatalf("redelivered %+v, want offsets 3 and 4", redelivered)
	}
	if got := g.Committed(0); got != 5 {
		t.Fatalf("a stop left the group at %d, want the handled poll committed (5)", got)
	}
	if parks.Value() != 1 || parked.Value() != 0 {
		t.Fatalf("parks %d, parked %d: want one episode, over", parks.Value(), parked.Value())
	}
}
