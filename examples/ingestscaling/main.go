// Ingestscaling: Figure 2 (left), the ingestion throughput sweep over
// cluster sizes, as the claims table's E1 row runs it, followed by a demo
// of the commit-log tier that feeds it: a consumer crashes mid-stream
// without committing, and the replacement replays from the last
// committed offset with nothing lost.
//
//	go run ./examples/ingestscaling
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/bus"
	"repro/internal/ingest"
	"repro/internal/simdata"
)

func main() {
	// E1 of the claims table at full size: the rig's nodes emulate the
	// paper's per-node ceiling at a tenth of its speed, and the rates
	// read in paper scale.
	fmt.Println("Figure 2 (left): throughput vs storage nodes")
	for _, c := range repro.Claims {
		if c.ID == "E1" {
			fmt.Println(c.Report(c.Measure(repro.Full)))
		}
	}

	replayDemo(simdata.NewFleet(simdata.Config{Units: 20, SensorsPerUnit: 100, Seed: 42}))
}

// replayDemo shows why the commit log sits between producers and
// consumers: a detector consumer crashes after processing — but not
// committing — a few batches, and its replacement replays exactly from
// the committed offset. Nothing is lost, some work is redone:
// at-least-once.
func replayDemo(fleet *simdata.Fleet) {
	fmt.Println("\nCommit-log replay after a consumer crash")
	broker := bus.New(bus.Config{Partitions: 1})
	defer broker.Close()
	topic := broker.Topic("energy")
	group := topic.Group("detectors")

	// Publish 10 one-step batches for unit 0 onto the single partition.
	driver := ingest.NewBusDriver(fleet, bus.LocalTopic{Topic: topic}, ingest.DriverConfig{
		BatchSize: fleet.Sensors(), // one record per step
		Senders:   1,
	})
	if _, err := driver.Run(0, 10); err != nil {
		log.Fatal(err)
	}
	// The fleet has 20 units keyed onto 1 partition: 200 records.
	fmt.Printf("published %d records (high-water %d)\n",
		broker.Published.Value(), topic.HighWater(0))

	ctx := context.Background()
	c1 := group.Join()
	buf := make([]bus.Record, 0, 64)
	processed := int64(0)
	for processed < 120 {
		recs, err := c1.Poll(ctx, buf)
		if err != nil {
			log.Fatal(err)
		}
		// Commit only the first poll; everything after is processed
		// but uncommitted — the crash will force its redelivery.
		if processed == 0 {
			if err := c1.CommitPolled(recs); err != nil {
				log.Fatal(err)
			}
		}
		processed += int64(len(recs))
	}
	fmt.Printf("consumer 1 processed %d records, committed through offset %d, then crashed\n",
		processed, group.Committed(0))
	c1.Leave() // the "crash": gone without committing its tail

	// The replacement resumes from the committed offset: the
	// uncommitted tail is replayed, the committed prefix is not.
	c2 := group.Join()
	replayedFrom := int64(-1)
	total := int64(0)
	for group.Lag() > 0 {
		recs, err := c2.Poll(ctx, buf)
		if err != nil {
			log.Fatal(err)
		}
		if replayedFrom < 0 && len(recs) > 0 {
			replayedFrom = recs[0].Offset
		}
		total += int64(len(recs))
		if err := c2.CommitPolled(recs); err != nil {
			log.Fatal(err)
		}
	}
	c2.Leave()
	fmt.Printf("consumer 2 replayed from offset %d: %d records redelivered, lag now %d\n",
		replayedFrom, total, group.Lag())
	fmt.Printf("at-least-once: %d processed ≥ %d published; offsets [%d,%d) were evaluated twice\n",
		processed+total, broker.Published.Value(), replayedFrom, processed)
}
