package api

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	v1 "repro/internal/api/v1"
	"repro/internal/bus"
	"repro/internal/core"
)

func flagTopic(t *testing.T) (*bus.Broker, *bus.Topic) {
	t.Helper()
	broker := bus.New(bus.Config{Partitions: 2})
	t.Cleanup(broker.Close)
	return broker, broker.Topic("anomalies")
}

// tailEvent decodes one tail element, the SSE data line, back into
// its event.
func tailEvent(t *testing.T, data []byte) v1.AnomalyEvent {
	t.Helper()
	var ev v1.AnomalyEvent
	if err := json.Unmarshal(data, &ev); err != nil {
		t.Fatalf("tail data %s: %v", data, err)
	}
	return ev
}

func publishFlag(t *testing.T, topic *bus.Topic, unit, sensor int, ts int64, z float64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	a := core.Anomaly{Unit: unit, Sensor: sensor, Timestamp: ts, Value: z, Z: z, PValue: 0.001}
	if _, err := topic.Publish(ctx, uint64(unit), a); err != nil {
		t.Fatalf("publish flag: %v", err)
	}
}

// TestAnomalyTailFanout: every subscriber sees every flag; the tail
// commits behind itself so the topic does not retain forever.
func TestAnomalyTailFanout(t *testing.T) {
	_, topic := flagTopic(t)
	tail := NewAnomalyTail(bus.LocalTopic{Topic: topic}, "stream")
	defer tail.Close()
	a, cancelA := tail.Subscribe()
	b, cancelB := tail.Subscribe()
	defer cancelA()
	defer cancelB()

	for i := 0; i < 3; i++ {
		publishFlag(t, topic, i, 7, int64(100+i), 4.5)
	}
	for name, ch := range map[string]<-chan []byte{"a": a, "b": b} {
		for i := 0; i < 3; i++ {
			select {
			case data := <-ch:
				if ev := tailEvent(t, data); ev.Sensor != 7 || ev.Z != 4.5 {
					t.Fatalf("%s event %d = %+v", name, i, ev)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("subscriber %s starved at event %d", name, i)
			}
		}
	}
	// The drain commits: the group reaches zero lag.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tail.Group().Sync(ctx); err != nil {
		t.Fatalf("tail never committed: %v", err)
	}
	if tail.Events.Value() != 3 {
		t.Fatalf("Events = %d, want 3", tail.Events.Value())
	}
	// A cancelled subscriber stops receiving; the other still does.
	cancelA()
	publishFlag(t, topic, 9, 1, 200, 3.0)
	select {
	case data := <-b:
		if ev := tailEvent(t, data); ev.Unit != 9 {
			t.Fatalf("b got %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("b starved after a unsubscribed")
	}
	if _, ok := <-a; ok {
		// a's channel may hold buffered events; drain to the close.
		for range a {
		}
	}
}

// TestAnomalyTailSkipsHistory: flags published before the tail
// attaches are not replayed — the stream is live, history lives in
// the TSDB.
func TestAnomalyTailSkipsHistory(t *testing.T) {
	_, topic := flagTopic(t)
	publishFlag(t, topic, 1, 1, 50, 9.9)
	tail := NewAnomalyTail(bus.LocalTopic{Topic: topic}, "stream")
	defer tail.Close()
	ch, cancel := tail.Subscribe()
	defer cancel()
	publishFlag(t, topic, 2, 2, 100, 4.0)
	select {
	case data := <-ch:
		if ev := tailEvent(t, data); ev.Unit != 2 {
			t.Fatalf("replayed history: %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("live event never arrived")
	}
}

// TestAnomalyTailIdleEncodesNothing: a flag no stream subscribes to is
// counted but not encoded — an unencodable one is not even dropped.
func TestAnomalyTailIdleEncodesNothing(t *testing.T) {
	_, topic := flagTopic(t)
	tail := NewAnomalyTail(bus.LocalTopic{Topic: topic}, "stream")
	defer tail.Close()
	publishFlag(t, topic, 1, 1, 100, math.NaN())
	deadline := time.Now().Add(5 * time.Second)
	for tail.Events.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("flag never drained")
		}
		time.Sleep(time.Millisecond)
	}
	if tail.Dropped.Value() != 0 {
		t.Fatalf("Dropped = %d with no subscriber: the flag was encoded", tail.Dropped.Value())
	}
}

// sseEnv boots a gateway whose tail watches topic, served over real
// HTTP (streaming needs a real flusher).
func sseEnv(t *testing.T, mutate func(*Config)) (*bus.Topic, *AnomalyTail, *httptest.Server) {
	t.Helper()
	_, topic := flagTopic(t)
	tail := NewAnomalyTail(bus.LocalTopic{Topic: topic}, "stream")
	t.Cleanup(tail.Close)
	cfg := Config{
		Tail:            tail,
		Now:             func() int64 { return 100 },
		AccessLog:       testLogger(),
		StreamHeartbeat: 50 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv := httptest.NewServer(New(cfg))
	t.Cleanup(srv.Close)
	return topic, tail, srv
}

// TestSSEStreamEndToEnd reads real server-sent events off the wire:
// framing, payloads, heartbeats, and the clean end-of-stream when the
// tail closes (server shutdown).
func TestSSEStreamEndToEnd(t *testing.T) {
	topic, tail, srv := sseEnv(t, nil)
	resp, err := srv.Client().Get(srv.URL + "/api/v1/anomalies/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != v1.ContentTypeSSE {
		t.Fatalf("Content-Type = %q", ct)
	}
	// Wait for the subscription before publishing, or the event races
	// the subscribe and is dropped as pre-subscription traffic.
	deadline := time.Now().Add(5 * time.Second)
	for tail.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	publishFlag(t, topic, 3, 14, 250, 6.25)

	sc := bufio.NewScanner(resp.Body)
	var event, data string
	sawHeartbeatOrComment := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, ":"):
			sawHeartbeatOrComment = true
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		case line == "" && data != "":
			goto done
		}
	}
	t.Fatalf("stream ended early: %v", sc.Err())
done:
	if !sawHeartbeatOrComment {
		t.Fatal("no comment/heartbeat frame seen")
	}
	if event != v1.EventAnomaly {
		t.Fatalf("event = %q", event)
	}
	var ev v1.AnomalyEvent
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Unit != 3 || ev.Sensor != 14 || ev.Timestamp != 250 || ev.Z != 6.25 {
		t.Fatalf("event = %+v", ev)
	}

	// Closing the tail ends the stream cleanly — the shutdown path.
	tail.Close()
	for sc.Scan() {
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil && !strings.Contains(err.Error(), "closed") {
		t.Fatalf("stream did not end cleanly: %v", err)
	}
}

// TestSSEStreamCap: the dedicated stream limit sheds the excess tail
// with 503, independently of the request concurrency cap.
func TestSSEStreamCap(t *testing.T) {
	_, tail, srv := sseEnv(t, func(c *Config) { c.MaxStreams = 1 })
	first, err := srv.Client().Get(srv.URL + "/api/v1/anomalies/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer first.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for tail.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first stream never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	second, err := srv.Client().Get(srv.URL + "/api/v1/anomalies/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer second.Body.Close()
	if second.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second stream = %d, want 503", second.StatusCode)
	}
	var env v1.ErrorEnvelope
	if err := json.NewDecoder(second.Body).Decode(&env); err != nil || env.Error == nil || env.Error.Code != v1.CodeOverloaded {
		t.Fatalf("envelope = %+v (%v)", env, err)
	}
}

// TestTailEncodesEachEventOnce: with 8 direct subscribers and 8 live
// SSE streams on one tail, N flags cost N encodes — every subscriber
// gets the same bytes, and every stream writes them — and the bytes are
// encoding/json's. A flag JSON cannot carry reaches no one and counts
// as dropped.
func TestTailEncodesEachEventOnce(t *testing.T) {
	const subscribers, events = 8, 5
	topic, tail, srv := sseEnv(t, nil)
	direct := make([]<-chan []byte, subscribers)
	for i := range direct {
		ch, cancel := tail.Subscribe()
		defer cancel()
		direct[i] = ch
	}
	streams := make([]*bufio.Scanner, subscribers)
	for i := range streams {
		resp, err := srv.Client().Get(srv.URL + "/api/v1/anomalies/stream")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		streams[i] = bufio.NewScanner(resp.Body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tail.Subscribers() < 2*subscribers {
		if time.Now().After(deadline) {
			t.Fatal("streams never subscribed")
		}
		time.Sleep(time.Millisecond)
	}

	publishFlag(t, topic, 1, 1, 99, math.NaN())
	for i := 0; i < events; i++ {
		publishFlag(t, topic, 1, i, int64(100+i), 4.5+float64(i))
	}

	encodes := map[*byte]bool{}
	want := make([][]byte, events)
	for s, ch := range direct {
		for i := 0; i < events; i++ {
			var data []byte
			select {
			case data = <-ch:
			case <-time.After(5 * time.Second):
				t.Fatalf("subscriber %d starved at event %d", s, i)
			}
			ev := tailEvent(t, data)
			if ev.Timestamp != int64(100+i) {
				t.Fatalf("subscriber %d event %d = %+v", s, i, ev)
			}
			encodes[&data[0]] = true
			if s == 0 {
				j, err := json.Marshal(ev)
				if err != nil || string(data) != string(j) {
					t.Fatalf("event data %s, encoding/json %s (%v)", data, j, err)
				}
				want[i] = data
			}
		}
	}
	if len(encodes) != events {
		t.Fatalf("%d events reached %d subscribers as %d encodings, want %d", events, subscribers, len(encodes), events)
	}
	if tail.Dropped.Value() != 1 {
		t.Fatalf("Dropped = %d after one unencodable flag, want 1", tail.Dropped.Value())
	}

	for s, sc := range streams {
		for i := 0; i < events; {
			if !sc.Scan() {
				t.Fatalf("stream %d ended at event %d: %v", s, i, sc.Err())
			}
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				if data != string(want[i]) {
					t.Fatalf("stream %d event %d data %s, want %s", s, i, data, want[i])
				}
				i++
			}
		}
	}
}
