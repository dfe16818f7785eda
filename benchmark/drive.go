package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// window is one timed drive of a workload against a booted system: the
// traffic generators, the outside-in probes (stored watermark, SSE
// subscriber, counter sampler) and everything they measured.
type window struct {
	s       *sut
	sp      *spec
	rows    *rowSet
	seconds float64
	tr      *tracer // nil when tracing is off

	base time.Time // every recorded instant is nanoseconds since base
	// ref and ack are per-row instants: the moment the row's latency
	// counts from (due time in an open loop, send time in a closed one)
	// and the moment its POST was acknowledged. Written by the row's
	// writer before and after the request, read by the probes.
	ref, ack []atomic.Int64
	putSpan  []int32

	wm watermark

	put, stored, flag      latencies
	ackToStored, ackToFlag latencies
	genLate                latencies
	read                   latencies
	readKind               [numReadKinds]latencies
	// fresh holds the reads no cache could have answered: the first
	// request for a key since fleet time last advanced.
	fresh latencies
	epoch epochKeys

	// attempted and failed count every operation of the drive, warm-up
	// included; timedOps counts the workload's own operation (row POSTs,
	// or reads on the dashboard) attempted in the measured window.
	attempted, failed atomic.Int64
	timedOps          atomic.Int64
	lateSends         atomic.Int64
	ackedPoints       atomic.Int64
	firstSend         atomic.Int64
	flagEvents        atomic.Int64
	warmupFlags       atomic.Int64 // flag events on rows sent during warm-up
	flagsInSLO        atomic.Int64
	firstErr          atomic.Pointer[string]

	// The drive runs from start to deadline; operations whose latency
	// counts from measureFrom or later are timed, the ones before are
	// warm-up. marks are the counters the sampler reads at every slice
	// boundary (sp.slice apart, from start).
	start, measureFrom, deadline time.Time
	marks                        []sliceMark
	freshDone                    atomic.Int64

	// in-situ maxima (traced runs only)
	maxStorageLag, maxDetectorLag, maxQueueDepth int64

	// filled by run()
	elapsed    time.Duration // first send → storage drained (writes) or the drive's length (reads), warm-up included
	cpu        time.Duration // process user+sys CPU from the start of the drive until drained
	peakRSSMB  float64       // VmHWM when the window ended, before the checks read the store back
	mem0, mem1 runtime.MemStats
	gcCPU0     float64 // cumulative GC CPU seconds before and after
	gcCPU1     float64
	counters0  counterSnap
	counters1  counterSnap
}

// sliceMark is what the sampler reads at one slice boundary: the
// operations completed so far (points stored, or fresh reads answered)
// and the CPU the process has used.
type sliceMark struct {
	at  time.Time
	ops int64
	cpu time.Duration
}

// counterSnap is the exported counters read before and after a window.
type counterSnap struct {
	delivered, dropped, retries  int64
	flagsWritten, flagsPublished int64
	parks                        int64
	hbaseCells, hbaseFlushes     int64
	hbaseScans                   int64
	tsdQueries, samplesReturned  int64
	blockScans, rollupServes     int64
	replicated                   int64
}

func (w *window) fail(err error) {
	w.failed.Add(1)
	msg := err.Error()
	w.firstErr.CompareAndSwap(nil, &msg)
}

// timed reports whether an operation whose latency counts from ref
// belongs to the measured window rather than the warm-up.
func (w *window) timed(ref time.Time) bool { return !ref.Before(w.measureFrom) }

func (w *window) since(t time.Time) int64 { return int64(t.Sub(w.base)) }
func (w *window) at(ns int64) time.Time   { return w.base.Add(time.Duration(ns)) }

// newClient returns an HTTP client that holds exactly one connection.
func newClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

func closeClient(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// post sends one pre-encoded PutRequest and checks the ack names want
// accepted points.
func post(c *http.Client, url string, body []byte, want int) error {
	req, err := http.NewRequest(http.MethodPost, url+"/api/v1/points", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /api/v1/points: %d %s", resp.StatusCode, bytes.TrimSpace(reply))
	}
	var ack struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(reply, &ack); err != nil || ack.Accepted != want {
		return fmt.Errorf("POST /api/v1/points: acked %q, want %d points", bytes.TrimSpace(reply), want)
	}
	return nil
}

// writer drives one connection over its share of the rows (the units
// congruent to conn modulo the writer count, so one unit's rows stay in
// tick order on the bus). In an open loop row i is due at i/rate after
// start and its latency counts from then, however late the connection
// gets to it; in a closed loop the next row goes out when the last ack
// returns.
func (w *window) writer(conn int, start, deadline time.Time) {
	c := newClient(30 * time.Second)
	defer closeClient(c)
	sp := w.sp
	period := time.Duration(0)
	if sp.rowsPerSec > 0 {
		period = time.Duration(float64(time.Second) / sp.rowsPerSec)
	}
	free := start // when this connection finished its previous request
	for i := 0; i < w.rows.len(); i++ {
		if w.rows.unit(i)%sp.writers != conn {
			continue
		}
		now := time.Now()
		ref := now
		if period > 0 {
			due := start.Add(time.Duration(i) * period)
			if !due.Before(deadline) {
				return
			}
			if d := due.Sub(now); d > 0 {
				time.Sleep(d)
				now = time.Now()
			}
			// The generator's own lateness: past both the due time
			// and the moment the connection came free.
			ready := due
			if free.After(ready) {
				ready = free
			}
			late := now.Sub(ready)
			w.genLate.add(late)
			if late > period {
				w.lateSends.Add(1)
			}
			ref = due
		} else if !now.Before(deadline) {
			return
		}
		w.firstSend.CompareAndSwap(0, w.since(now))
		w.ref[i].Store(w.since(ref))
		w.wm.add(i, sp.sensors, ref)
		w.attempted.Add(1)
		timed := w.timed(ref)
		if timed {
			w.timedOps.Add(1)
		}
		err := post(c, w.s.url, w.rows.body(i), sp.sensors)
		free = time.Now()
		if err != nil {
			w.fail(err)
			continue
		}
		w.ack[i].Store(w.since(free))
		w.ackedPoints.Add(int64(sp.sensors))
		if !timed {
			continue
		}
		w.put.add(free.Sub(ref))
		if w.tr != nil {
			w.putSpan[i] = w.tr.span("client.put", ref, free, -1, i)
		}
	}
}

// tickWriter is the dashboard's 1 Hz stream: one POST carrying the whole
// fleet's tick each wall-second, after which fleet time advances so the
// readers' "last five minutes" moves with it.
func (w *window) tickWriter(start, deadline time.Time) {
	c := newClient(30 * time.Second)
	defer closeClient(c)
	first := w.sp.firstTick()
	points := w.sp.units * w.sp.sensors
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * time.Second)
		if !due.Before(deadline) {
			return
		}
		time.Sleep(time.Until(due))
		t := first + int64(k)
		w.attempted.Add(1)
		if err := post(c, w.s.url, genTick(w.s.fleet, t), points); err != nil {
			w.fail(err)
			continue
		}
		done := time.Now()
		w.ackedPoints.Add(int64(points))
		w.s.now.Store(t)
		if !w.timed(due) {
			continue
		}
		w.put.add(done.Sub(due))
		if w.tr != nil {
			w.tr.span("client.put", due, done, -1, k)
		}
	}
}

// reader drives one closed-loop dashboard connection through its own
// seeded request stream.
func (w *window) reader(conn int, seed int64, deadline time.Time) {
	c := newClient(30 * time.Second)
	defer closeClient(c)
	gen := newReadGen(seed+int64(conn)*7919, w.sp.units, w.sp.sensors)
	sealedTo := w.sp.sealedTo()
	for n := 0; time.Now().Before(deadline); n++ {
		q := gen.next()
		now := w.s.now.Load()
		path, ndjson := q.path(now, sealedTo)
		fresh := w.epoch.first(now, q.key())
		start := time.Now()
		w.attempted.Add(1)
		timed := w.timed(start)
		if timed {
			w.timedOps.Add(1)
		}
		err := get(c, w.s.url+path, ndjson)
		done := time.Now()
		if err != nil {
			w.fail(err)
			continue
		}
		if fresh {
			w.freshDone.Add(1)
		}
		if !timed {
			continue
		}
		w.read.add(done.Sub(start))
		w.readKind[q.kind].add(done.Sub(start))
		if fresh {
			w.fresh.add(done.Sub(start))
		}
		if w.tr != nil {
			w.tr.span("client.read_"+readKindNames[q.kind], start, done, -1, conn<<24|n)
		}
	}
}

// epochKeys tells a fresh read from a repeat, from outside: the first
// request for a key after fleet time advanced asks for a window nobody
// has asked for yet, so no cache can answer it; a repeat within the same
// fleet second may be a cache hit.
type epochKeys struct {
	mu   sync.Mutex
	now  int64
	seen map[readReq]struct{}
}

func (e *epochKeys) first(now int64, key readReq) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.seen == nil || now != e.now {
		e.now, e.seen = now, make(map[readReq]struct{})
	}
	if _, ok := e.seen[key]; ok {
		return false
	}
	e.seen[key] = struct{}{}
	return true
}

// get issues one read and drains the whole body.
func get(c *http.Client, url string, ndjson bool) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if ndjson {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || n == 0 {
		return fmt.Errorf("GET %s: status %d, %d bytes", url, resp.StatusCode, n)
	}
	return nil
}

// subscribe holds one SSE connection on the anomaly stream for the run,
// timing each flag event against the row it flags. It returns once the
// stream is connected; the returned stop function closes it and waits.
func (w *window) subscribe() (stop func(), err error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.s.url+"/api/v1/anomalies/stream", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	c := newClient(0)
	resp, err := c.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	br := bufio.NewReader(resp.Body)
	// The server writes ": connected" once the subscription is live.
	if line, err := br.ReadString('\n'); err != nil || resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("anomaly stream: status %d, first line %q: %v", resp.StatusCode, line, err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer resp.Body.Close()
		prefix := []byte("data: ")
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				return
			}
			if !bytes.HasPrefix(line, prefix) {
				continue
			}
			now := time.Now()
			var ev struct {
				Unit      int   `json:"unit"`
				Timestamp int64 `json:"timestamp"`
			}
			if json.Unmarshal(line[len(prefix):], &ev) != nil {
				continue
			}
			w.onFlag(ev.Unit, ev.Timestamp, now)
		}
	}()
	return func() {
		cancel()
		<-done
		closeClient(c)
	}, nil
}

// onFlag times one SSE flag event against its row.
func (w *window) onFlag(unit int, ts int64, now time.Time) {
	w.flagEvents.Add(1)
	if w.rows == nil || unit < 0 || unit >= w.rows.units {
		return
	}
	i := w.rows.index(unit, ts)
	if i < 0 || i >= w.rows.len() {
		return
	}
	ref := w.ref[i].Load()
	if ref == 0 {
		return
	}
	if !w.timed(w.at(ref)) {
		w.warmupFlags.Add(1)
		return
	}
	lat := now.Sub(w.at(ref))
	w.flag.add(lat)
	if ms(lat) <= flagSLOms {
		w.flagsInSLO.Add(1)
	}
	if ack := w.ack[i].Load(); ack != 0 {
		// A flag can beat its own row's ack to the client.
		w.ackToFlag.add(max(0, now.Sub(w.at(ack))))
	}
	if w.tr != nil {
		w.tr.span("client.flag", w.at(ref), now, w.putSpan[i], i)
	}
}

// sample is the stored-watermark probe, the slice clock and, on traced
// runs, the in-situ gauge sampler: it polls the summed Proxy.Delivered
// (twice a millisecond when tracing, so wire→stored resolves well under
// its median; every two milliseconds otherwise, to leave the cores to
// the program) until stop is closed and every registered row is
// covered, or the drain deadline passes. It returns the instant the
// counter first covered everything acked.
func (w *window) sample(stop <-chan struct{}, drainTimeout time.Duration) (drained time.Time, err error) {
	var deadline time.Time
	lastGauges := time.Time{}
	nextMark := w.start
	poll := 2 * time.Millisecond
	if w.tr != nil {
		poll = 500 * time.Microsecond
	}
	for {
		now := time.Now()
		d := w.s.delivered()
		if w.sp.slice > 0 && !now.Before(nextMark) {
			ops := d - w.counters0.delivered
			if w.sp.readers > 0 {
				ops = w.freshDone.Load()
			}
			w.marks = append(w.marks, sliceMark{at: now, ops: ops, cpu: cpuTime()})
			for !now.Before(nextMark) {
				nextMark = nextMark.Add(w.sp.slice)
			}
		}
		w.wm.advance(d, now, func(row int, ref time.Time, lat time.Duration) {
			if !w.timed(ref) {
				return
			}
			w.stored.add(lat)
			if ack := w.ack[row].Load(); ack != 0 {
				w.ackToStored.add(max(0, now.Sub(w.at(ack))))
			}
			if w.tr != nil {
				w.tr.span("client.stored", ref, now, w.putSpan[row], row)
			}
		})
		if w.tr != nil && now.Sub(lastGauges) >= 10*time.Millisecond {
			lastGauges = now
			w.maxStorageLag = max(w.maxStorageLag, w.s.storageLag())
			w.maxDetectorLag = max(w.maxDetectorLag, w.s.detectorLag())
			w.maxQueueDepth = max(w.maxQueueDepth, w.s.queueDepth())
		}
		select {
		case <-stop:
			if deadline.IsZero() {
				deadline = now.Add(drainTimeout)
			}
			if d-w.counters0.delivered >= w.ackedPoints.Load() {
				return now, nil
			}
			if now.After(deadline) {
				return now, fmt.Errorf("storage did not drain: delivered %d of %d acked points after %v",
					d-w.counters0.delivered, w.ackedPoints.Load(), drainTimeout)
			}
		default:
		}
		time.Sleep(poll)
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (s *sut) snapshot() counterSnap {
	c := counterSnap{
		delivered:      s.delivered(),
		dropped:        s.dropped(),
		retries:        s.retries(),
		flagsWritten:   s.pool.AnomaliesWritten.Value(),
		flagsPublished: s.pool.FlagsPublished.Value(),
		parks:          s.pool.Parks.Value(),
		replicated:     s.replicated(),
	}
	for _, d := range s.deployments() {
		c.hbaseCells += d.Cluster.TotalCellsWritten()
		c.tsdQueries += d.QueriesServed()
		for _, t := range d.TSDs() {
			c.samplesReturned += t.SamplesReturned.Value()
		}
		if bs := d.BlockStore(); bs != nil {
			c.blockScans += bs.BlockScans.Value()
			c.rollupServes += bs.RollupServes.Value()
		}
		for _, rs := range d.Cluster.RegionServers() {
			c.hbaseFlushes += rs.Flushes.Value()
			c.hbaseScans += rs.Scans.Value()
		}
	}
	return c
}

// run drives the window: subscriber up, generators for the configured
// seconds, then the storage tier drains and the detectors catch up.
func (w *window) run(seed int64) error {
	sp := w.sp
	n := 0
	if w.rows != nil {
		n = w.rows.len()
	}
	w.ref = make([]atomic.Int64, n)
	w.ack = make([]atomic.Int64, n)
	w.putSpan = make([]int32, n)
	for i := range w.putSpan {
		w.putSpan[i] = -1
	}
	stopSSE, err := w.subscribe()
	if err != nil {
		return err
	}
	defer stopSSE()

	runtime.GC()
	runtime.ReadMemStats(&w.mem0)
	w.gcCPU0 = gcCPUSeconds()
	w.counters0 = w.s.snapshot()
	w.base = time.Now()
	cpu0 := cpuTime()
	start := w.base.Add(time.Millisecond)
	w.start = start
	w.measureFrom = start.Add(time.Duration(sp.warmup * float64(time.Second)))
	w.deadline = w.measureFrom.Add(time.Duration(w.seconds * float64(time.Second)))
	deadline := w.deadline

	stopSampler := make(chan struct{})
	var drained time.Time
	var drainErr error
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		drained, drainErr = w.sample(stopSampler, 60*time.Second)
	}()

	var wg sync.WaitGroup
	if sp.readers > 0 {
		wg.Add(1)
		go func() { defer wg.Done(); w.tickWriter(start, deadline) }()
		for c := 0; c < sp.readers; c++ {
			wg.Add(1)
			go func(c int) { defer wg.Done(); w.reader(c, seed, deadline) }(c)
		}
	} else {
		for c := 0; c < sp.writers; c++ {
			wg.Add(1)
			go func(c int) { defer wg.Done(); w.writer(c, start, deadline) }(c)
		}
	}
	wg.Wait()
	generatorsDone := time.Now()
	close(stopSampler)
	<-samplerDone
	if drainErr != nil {
		return drainErr
	}
	if sp.readers > 0 {
		w.elapsed = generatorsDone.Sub(start)
	} else {
		w.elapsed = drained.Sub(w.at(w.firstSend.Load()))
	}
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&w.mem1)
	w.gcCPU1 = gcCPUSeconds()
	w.peakRSSMB = peakRSSMB()

	// Let the detectors finish the rows already stored and the last
	// flags reach the subscriber before the stream closes.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.s.pool.Sync(ctx); err != nil {
		return fmt.Errorf("detectors did not catch up: %w", err)
	}
	settle := time.Now().Add(2 * time.Second)
	for time.Now().Before(settle) {
		pub := w.s.pool.FlagsPublished.Value() - w.counters0.flagsPublished
		if w.flagEvents.Load() >= pub {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	w.counters1 = w.s.snapshot()
	if msg := w.firstErr.Load(); msg != nil {
		return errors.New("first failed operation: " + *msg)
	}
	return nil
}
