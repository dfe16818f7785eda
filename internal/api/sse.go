package api

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/admission"
	v1 "repro/internal/api/v1"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// AnomalyTail turns detector-pool flag writes into a live feed for the
// SSE endpoint. The detector pool publishes each scored batch's flags
// as one record (core.AnomalyBatch) onto a dedicated commit-log topic;
// the tail owns one consumer group on it, drains records as they land
// — committing each poll with its next fetch — and fans every flag out
// to subscribed streams as its own event.
//
// One group, many subscribers: per-client consumer groups would let a
// stalled browser exert commit-log backpressure on the detector tier.
// Instead the tail always drains (committing as it goes, so the log
// trims behind it) and slow subscribers lose events from their bounded
// buffer — Dropped counts them — which is the right trade for a
// monitoring feed: the flags remain durable in the TSDB; the stream is
// a best-effort live view.
//
// Each flag is encoded once, as the tail drains it, and every
// subscriber gets the same bytes: a stream writes them, it does not
// encode. A flag no stream subscribes to is not encoded at all.
type AnomalyTail struct {
	group  bus.GroupHandle
	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once

	mu     sync.Mutex
	subs   map[int]chan []byte
	nextID int
	closed bool

	// Events counts flags drained; Dropped counts events lost: one per
	// full subscriber buffer, and one per flag that cannot be encoded
	// (a NaN score, say), which reaches no subscriber.
	Events  telemetry.Counter
	Dropped telemetry.Counter

	// parks counts the drain loop's park episodes; parked is 1 while it
	// waits out a fetch fault.
	parks  telemetry.Counter
	parked telemetry.Gauge
}

// subscriberBuffer is each stream's event buffer: enough to ride out a
// flush hiccup, small enough that an abandoned connection costs
// little.
const subscriberBuffer = 256

// NewAnomalyTail attaches a consumer group named group to topic at its
// current end (the stream is live — history stays in the TSDB) and
// starts the drain loop. Close it before the broker shuts down.
func NewAnomalyTail(topic bus.TopicHandle, group string) *AnomalyTail {
	g := topic.Group(group)
	g.SeekToEnd()
	ctx, cancel := context.WithCancel(context.Background())
	t := &AnomalyTail{
		group:  g,
		cancel: cancel,
		subs:   make(map[int]chan []byte),
	}
	c := g.Join()
	t.wg.Add(1)
	go t.run(ctx, c)
	return t
}

// Group exposes the tail's consumer group (lag diagnostics).
func (t *AnomalyTail) Group() bus.GroupHandle { return t.group }

// run drains the tail's consumer through bus.Consume: a transient
// fetch fault parks the tail until the bus answers again, and only
// Close ends it.
func (t *AnomalyTail) run(ctx context.Context, c bus.ConsumerHandle) {
	defer t.wg.Done()
	bus.Consume(ctx, c, &t.parks, &t.parked, func(recs []bus.Record) error {
		for i := range recs {
			if flags, ok := recs[i].Value.(core.AnomalyBatch); ok {
				t.broadcast(flags)
			}
		}
		return nil
	})
}

// broadcast fans a scored batch out as one event per flag, in order.
func (t *AnomalyTail) broadcast(flags core.AnomalyBatch) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range flags {
		a := &flags[i]
		t.Events.Inc()
		if len(t.subs) == 0 {
			continue // no stream reads it: no encode
		}
		data, err := encodeAnomalyEvent(&v1.AnomalyEvent{
			Unit: a.Unit, Sensor: a.Sensor, Timestamp: a.Timestamp,
			Value: a.Value, Z: a.Z, PValue: a.PValue, Adjusted: a.Adjusted,
			Detector: a.Detector, Score: a.Score,
		})
		if err != nil {
			t.Dropped.Inc()
			continue
		}
		for _, ch := range t.subs {
			select {
			case ch <- data:
			default:
				t.Dropped.Inc()
			}
		}
	}
}

// Subscribe registers a stream. Each element is one flag's JSON, the
// SSE data line, shared by every subscriber: read-only. The returned
// channel closes when the tail closes; call cancel when the stream
// ends.
func (t *AnomalyTail) Subscribe() (<-chan []byte, func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ch := make(chan []byte, subscriberBuffer)
	if t.closed {
		close(ch)
		return ch, func() {}
	}
	id := t.nextID
	t.nextID++
	t.subs[id] = ch
	return ch, func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		if sub, ok := t.subs[id]; ok {
			delete(t.subs, id)
			close(sub)
		}
	}
}

// Subscribers reports the live stream count.
func (t *AnomalyTail) Subscribers() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.subs)
}

// Close stops the drain loop, closes every subscriber channel (ending
// their SSE streams) and detaches the consumer group so the topic
// stops retaining records for it. Idempotent.
func (t *AnomalyTail) Close() {
	t.once.Do(func() {
		t.cancel()
		t.wg.Wait()
		t.mu.Lock()
		t.closed = true
		for id, ch := range t.subs {
			delete(t.subs, id)
			close(ch)
		}
		t.mu.Unlock()
		t.group.Close()
	})
}

// appendEvent appends one SSE anomaly event, id seq, carrying data.
func appendEvent(frame []byte, seq int64, data []byte) []byte {
	frame = append(frame, "event: "+v1.EventAnomaly+"\nid: "...)
	frame = strconv.AppendInt(frame, seq, 10)
	frame = append(frame, "\ndata: "...)
	frame = append(frame, data...)
	return append(frame, "\n\n"...)
}

// handleStream is GET /api/v1/anomalies/stream: a server-sent-event
// tail of detector flags. Each event is
//
//	event: anomaly
//	id: <per-stream sequence>
//	data: {"unit":…,"sensor":…,"timestamp":…,"z":…}
//
// with a comment heartbeat every StreamHeartbeat so intermediaries
// keep the connection alive. Events already queued when the stream
// wakes go out in one write and one flush, ids consecutive. The
// stream ends when the client disconnects or the tail closes (server
// shutdown).
func (g *Gateway) handleStream(w http.ResponseWriter, r *http.Request) {
	tail := g.cfg.Tail
	if tail == nil {
		writeError(w, &apiError{status: http.StatusServiceUnavailable, code: v1.CodeUnavailable, msg: "no anomaly stream"})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, &apiError{status: http.StatusInternalServerError, code: v1.CodeInternal, msg: "response writer cannot stream"})
		return
	}
	select {
	case g.streams <- struct{}{}:
		defer func() { <-g.streams }()
	default:
		reject(w, admission.Decision{Status: http.StatusServiceUnavailable, RetryAfter: 1, Reason: "stream limit reached"})
		return
	}
	events, cancel := tail.Subscribe()
	defer cancel()

	w.Header().Set("Content-Type", v1.ContentTypeSSE)
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": connected id=%s\n\n", RequestIDFrom(r.Context()))
	flusher.Flush()

	heartbeat := time.NewTicker(g.cfg.StreamHeartbeat)
	defer heartbeat.Stop()
	var seq int64
	var frame []byte
	for {
		select {
		case data, ok := <-events:
			// Every event already queued goes out in one write and one
			// flush.
			frame = frame[:0]
		queued:
			for ok {
				seq++
				frame = appendEvent(frame, seq, data)
				select {
				case data, ok = <-events:
				default:
					break queued
				}
			}
			if len(frame) > 0 {
				if _, err := w.Write(frame); err != nil {
					return
				}
				flusher.Flush()
			}
			if !ok {
				return // tail closed: server shutting down
			}
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
