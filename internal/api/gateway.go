package api

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/admission"
	v1 "repro/internal/api/v1"
	"repro/internal/bus"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
	"repro/internal/viz"
)

// Publisher accepts points for ingestion. BusPublisher is the
// production implementation (the commit-log topic); tests substitute
// fakes.
type Publisher interface {
	// PublishPoints durably appends points and returns how many were
	// accepted. A multi-unit batch is not atomic — see BusPublisher.
	// The slice is handed over: a publisher may retain it (the log
	// does), so the caller does not touch it again.
	PublishPoints(ctx context.Context, points []tsdb.Point) (int, error)
}

// Querier serves raw series reads; *query.Engine in production.
type Querier interface {
	QueryContext(ctx context.Context, q tsdb.Query) ([]tsdb.Series, error)
}

// ReadyCheck is one dependency probe behind GET /readyz.
type ReadyCheck struct {
	Name  string
	Check func() error
}

// degradedError marks a readiness failure as "limping but serving":
// the check reports it, readiness stays 200, and the response carries
// status "degraded" instead of "down".
type degradedError struct{ err error }

func (e *degradedError) Error() string { return e.err.Error() }
func (e *degradedError) Unwrap() error { return e.err }

// Degraded wraps a ReadyCheck error to downgrade it from "down" to
// "degraded": the dependency is impaired (open circuits, parked
// workers) but the system still answers, possibly with stale data.
// Degraded checks do not flip readiness to 503.
func Degraded(err error) error {
	if err == nil {
		return nil
	}
	return &degradedError{err: err}
}

// IsDegraded reports whether err (or anything it wraps) was marked
// with Degraded.
func IsDegraded(err error) bool {
	var d *degradedError
	return errors.As(err, &d)
}

// Config assembles a Gateway. Every dependency is optional: routes
// whose dependency is nil answer 503 unavailable, so a read-only
// deployment simply omits the Publisher.
type Config struct {
	// Backend assembles the fleet/machine/series/top views (the data
	// half of internal/viz; its HTML half mounts via HTML below).
	Backend *viz.Backend
	// Publisher accepts writes for POST /api/v1/points.
	Publisher Publisher
	// Query serves GET /api/v1/query (the cached scatter-gather
	// engine in production — never a raw TSD).
	Query Querier
	// Tail feeds GET /api/v1/anomalies/stream.
	Tail *AnomalyTail
	// Registry backs /api/v1/metrics and the per-route histograms.
	// Nil disables both.
	Registry *telemetry.Registry
	// HTML, when non-nil, serves every route the API does not claim
	// (the Figure-3 web application).
	HTML http.Handler
	// Ready lists the dependency probes behind /readyz.
	Ready []ReadyCheck
	// Detectors snapshots the detector tier for GET /api/v1/detectors
	// (mode, flag and shadow-agreement counters, ensemble config). Nil
	// answers 503 unavailable.
	Detectors func() v1.DetectorsResponse
	// Cluster snapshots the node membership map for GET
	// /api/v1/cluster (roles, partition leadership, replication
	// health). Nil answers 503 unavailable.
	Cluster func() v1.ClusterResponse

	// Now supplies "current" fleet time for window defaults (default:
	// wall clock seconds).
	Now func() int64
	// Window is the default lookback in seconds (default 300).
	Window int64
	// MaxBody bounds request bodies in bytes (default 64 MiB).
	MaxBody int64

	// Admission, when non-nil, is the gateway's one cheap-reject stage:
	// requests are classified (ingest / interactive / bulk / exempt) at
	// registration and refused before the body is read or the timeout
	// context is created — shed with 503 as the controller's pressure
	// crosses their class's threshold (ops routes never), answered 429
	// once their client's budget (admission.Config.RatePerSec) is
	// spent. The controller's counters register on Registry when both
	// are set.
	Admission *admission.Controller
	// APIKeys lists the keys clients may present via X-API-Key to get
	// their own budget (multi-tenant deployments behind a shared NAT).
	// An unrecognized or absent key falls back to per-remote-IP
	// identity — unvalidated header values must not mint buckets, or
	// rotating keys would bypass the limit entirely.
	APIKeys []string
	// MaxStreams caps live SSE tails (default 64).
	MaxStreams int
	// RequestTimeout bounds each non-streaming request's context
	// (default 30s; negative disables).
	RequestTimeout time.Duration
	// StreamHeartbeat is the SSE keepalive comment interval
	// (default 15s).
	StreamHeartbeat time.Duration

	// AccessLog receives one structured line per request; nil uses the
	// process logger. Set to log.New(io.Discard, …) to silence.
	AccessLog *log.Logger
}

// SplitKeys parses a comma-separated API-key list (the daemons'
// -api-keys flag) into Config.APIKeys form, dropping blanks.
func SplitKeys(s string) []string {
	var keys []string
	for _, k := range strings.Split(s, ",") {
		if k = strings.TrimSpace(k); k != "" {
			keys = append(keys, k)
		}
	}
	return keys
}

func (c Config) withDefaults() Config {
	if c.Now == nil {
		c.Now = func() int64 { return time.Now().Unix() }
	}
	if c.Window <= 0 {
		c.Window = 300
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 64 << 20
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = 64
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.StreamHeartbeat <= 0 {
		c.StreamHeartbeat = 15 * time.Second
	}
	if c.AccessLog == nil {
		c.AccessLog = log.Default()
	}
	return c
}

// Gateway is the unified versioned HTTP surface: every write, read,
// detection and ops route of the system under /api/v1/*, and
// (optionally) the HTML application.
// It implements http.Handler. See doc.go for the route table and the
// middleware chain.
type Gateway struct {
	cfg     Config
	mux     *http.ServeMux
	streams chan struct{}
}

// New builds a gateway from cfg.
func New(cfg Config) *Gateway {
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		streams: make(chan struct{}, cfg.MaxStreams),
	}
	apiKeys := make(map[string]string, len(cfg.APIKeys))
	for _, k := range cfg.APIKeys {
		apiKeys[k] = "key:" + k
	}
	if cfg.Admission != nil && cfg.Registry != nil {
		cfg.Admission.Register(cfg.Registry)
	}

	// Routes are classified once, at registration: static sheds
	// per-route, ndjsonBulk escalates the reads that double as bulk
	// exports when the client negotiates NDJSON.
	static := func(class admission.Class) func(*http.Request) admission.Class {
		return func(*http.Request) admission.Class { return class }
	}
	ndjsonBulk := func(class admission.Class) func(*http.Request) admission.Class {
		return func(r *http.Request) admission.Class {
			if negotiateNDJSON(r) {
				return admission.Bulk
			}
			return class
		}
	}

	// std is the full middleware chain for request/response routes;
	// stream drops the layers that would break a long-lived SSE tail
	// (timeout, gzip). Chains wrap per-route — the mux resolves the
	// pattern first, so AccessLog sees r.Pattern. Admission, the one
	// cheap-reject layer, sits above Timeout and Gzip so a refused
	// request never pays for a timeout context or response plumbing it
	// will not use.
	stdClass := func(classify func(*http.Request) admission.Class, h http.HandlerFunc) http.Handler {
		return Chain(h,
			RequestID(),
			AccessLog(cfg.AccessLog, cfg.Registry),
			Recover(cfg.AccessLog),
			Admission(cfg.Admission, classify, apiKeys),
			Timeout(cfg.RequestTimeout),
			Gzip(),
		)
	}
	std := func(class admission.Class, h http.HandlerFunc) http.Handler {
		return stdClass(static(class), h)
	}
	stream := func(class admission.Class, h http.HandlerFunc) http.Handler {
		return Chain(h,
			RequestID(),
			AccessLog(cfg.AccessLog, cfg.Registry),
			Recover(cfg.AccessLog),
			Admission(cfg.Admission, static(class), apiKeys),
		)
	}

	// The versioned surface. handle registers the route plus a
	// method-less fallback answering 405 with an Allow header — the
	// catch-all below would otherwise swallow wrong-method requests
	// into a 404.
	handle := func(method, path string, h http.Handler) {
		g.mux.Handle(method+" "+path, h)
		g.mux.Handle(path, std(admission.Exempt, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Allow", method)
			writeError(w, &apiError{
				status: http.StatusMethodNotAllowed,
				code:   v1.CodeBadRequest,
				msg:    fmt.Sprintf("method %s not allowed on %s", r.Method, path),
			})
		}))
	}
	handle("POST", "/api/v1/points", std(admission.Ingest, g.handlePut))
	handle("GET", "/api/v1/query", stdClass(ndjsonBulk(admission.Interactive), g.handleQuery))
	handle("GET", "/api/v1/fleet", std(admission.Interactive, g.handleFleet))
	handle("GET", "/api/v1/machines/{unit}", std(admission.Interactive, g.handleMachine))
	handle("GET", "/api/v1/machines/{unit}/sensors/{sensor}", stdClass(ndjsonBulk(admission.Interactive), g.handleSensorPath))
	handle("GET", "/api/v1/series", stdClass(ndjsonBulk(admission.Interactive), g.handleSeries))
	handle("GET", "/api/v1/anomalies/top", std(admission.Interactive, g.handleTop))
	handle("GET", "/api/v1/anomalies/stream", stream(admission.Bulk, g.handleStream))
	handle("GET", "/api/v1/detectors", std(admission.Interactive, g.handleDetectors))
	handle("GET", "/api/v1/cluster", std(admission.Interactive, g.handleCluster))
	// Ops routes are exempt from shedding (not from their client's
	// budget): operators need metrics and health most while the system
	// is melting.
	handle("GET", "/api/v1/metrics", std(admission.Exempt, g.handleMetrics))
	handle("GET", "/api/v1/healthz", std(admission.Exempt, g.handleHealth))
	handle("GET", "/api/v1/readyz", std(admission.Exempt, g.handleReady))
	// Unmatched /api/v1/* paths get the envelope, not the mux's text 404.
	g.mux.Handle("/api/v1/", std(admission.Exempt, func(w http.ResponseWriter, r *http.Request) {
		writeError(w, errNotFound("no route %s %s", r.Method, r.URL.Path))
	}))

	// Ops endpoints at their conventional unversioned paths.
	handle("GET", "/healthz", std(admission.Exempt, g.handleHealth))
	handle("GET", "/readyz", std(admission.Exempt, g.handleReady))

	if cfg.HTML != nil {
		g.mux.Handle("/", std(admission.Interactive, cfg.HTML.ServeHTTP))
	}
	return g
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// window resolves [from, to] from ?from/?to with gateway defaults,
// rejecting inverted windows.
func (g *Gateway) window(r *http.Request) (int64, int64, error) {
	to := g.cfg.Now()
	if v := r.URL.Query().Get("to"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, errBadRequest("bad to %q", v)
		}
		to = n
	}
	from := to - g.cfg.Window
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, errBadRequest("bad from %q", v)
		}
		from = n
	}
	if from < 0 {
		from = 0
	}
	if from > to {
		return 0, 0, errBadRequest("inverted window [%d, %d]", from, to)
	}
	return from, to, nil
}

// ---- write path -----------------------------------------------------

// handlePut is POST /api/v1/points: a JSON body ({"points": […]}, a
// bare array, or one point object) or, for text/plain, OpenTSDB
// telnet "put" lines. Accepted points are durably on the ingestion
// log when the 200 returns.
func (g *Gateway) handlePut(w http.ResponseWriter, r *http.Request) {
	points, err := g.readPoints(r)
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	n, err := g.publish(r.Context(), points)
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	writeJSON(w, v1.PutResponse{Accepted: n})
}

func (g *Gateway) publish(ctx context.Context, points []tsdb.Point) (int, error) {
	if g.cfg.Publisher == nil {
		return 0, &apiError{status: http.StatusServiceUnavailable, code: v1.CodeUnavailable, msg: "no ingestion backend"}
	}
	return g.cfg.Publisher.PublishPoints(ctx, points)
}

// readPoints decodes the request body into points, honoring MaxBody.
// The body lives in a pooled buffer for the length of this call only:
// every decoder copies the strings its points keep.
func (g *Gateway) readPoints(r *http.Request) ([]tsdb.Point, error) {
	d := putDecoders.Get().(*putDecoder)
	defer d.release()
	if err := d.readBody(r.Body, r.ContentLength, g.cfg.MaxBody); err != nil {
		if isMaxBytes(err) {
			return nil, err
		}
		return nil, errBadRequest("read body: %v", err)
	}
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, v1.ContentTypeLines) {
		return parsePutLines(d.body)
	}
	return d.decodeJSON()
}

// parsePutLines decodes a text/plain body of telnet "put" lines. Like
// the JSON scanner's, its points share the process's interned metric
// names and tag maps (ingest.ParseLine), so nothing they keep aliases
// the pooled body.
func parsePutLines(body []byte) ([]tsdb.Point, error) {
	var points []tsdb.Point
	for line := range strings.Lines(string(body)) {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		p, err := ingest.ParseLine(line)
		if err != nil {
			return nil, errBadRequest("%v", err)
		}
		points = append(points, p)
	}
	return validatePoints(points)
}

// BusPublisher publishes points onto the ingestion commit log, one
// record per unit batch. A multi-unit request is not atomic — an error
// can leave earlier units' batches appended — but point writes are
// idempotent, so retrying the whole request wholesale converges.
type BusPublisher struct {
	Topic bus.TopicHandle
	// Timeout bounds publish backpressure before shedding load with a
	// 504-mapped error (default 5s).
	Timeout time.Duration
}

// PublishPoints implements Publisher.
func (p *BusPublisher) PublishPoints(ctx context.Context, points []tsdb.Point) (int, error) {
	d := p.Timeout
	if d <= 0 {
		d = 5 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	for key, batch := range ingest.GroupByUnit(points) {
		if _, err := p.Topic.Publish(ctx, key, batch); err != nil {
			return 0, err
		}
	}
	return len(points), nil
}

// ---- read path ------------------------------------------------------

// handleQuery is GET /api/v1/query: raw series over the cached
// scatter-gather tier. Parameters: metric (default energy), unit,
// sensor, from/to (window defaults apply), maxpoints (LTTB bound).
// Accept: application/x-ndjson streams one series per line.
func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	if g.cfg.Query == nil {
		writeError(w, &apiError{status: http.StatusServiceUnavailable, code: v1.CodeUnavailable, msg: "no query backend"})
		return
	}
	from, to, err := g.window(r)
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	q := r.URL.Query()
	metric := q.Get("metric")
	if metric == "" {
		metric = tsdb.MetricEnergy
	}
	tags := map[string]string{}
	if u := q.Get("unit"); u != "" {
		tags["unit"] = u
	}
	if s := q.Get("sensor"); s != "" {
		tags["sensor"] = s
	}
	maxPoints := 0
	if v := q.Get("maxpoints"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, errBadRequest("bad maxpoints %q", v))
			return
		}
		maxPoints = n
	}
	ctx, marker := query.WithDegradedMarker(r.Context())
	series, err := g.cfg.Query.QueryContext(ctx, tsdb.Query{
		Metric: metric, Tags: tags, Start: from, End: to, MaxPoints: maxPoints,
	})
	if err != nil && !isNoMetric(err) {
		writeError(w, mapError(err))
		return
	}
	out := make([]v1.Series, len(series))
	for i := range series {
		out[i] = toSeries(&series[i])
	}
	degraded := marker.Degraded()
	if degraded {
		w.Header().Set(v1.HeaderDegraded, "true")
	}
	if negotiateNDJSON(r) {
		writeNDJSON(w, out)
		return
	}
	writeJSON(w, v1.QueryResponse{Series: out, Degraded: degraded})
}

// isNoMetric treats "metric not yet written" as an empty result, the
// same contract the viz backend applies.
func isNoMetric(err error) bool { return errors.Is(err, tsdb.ErrNoSuchMetric) }

// negotiateNDJSON reports whether the client asked for NDJSON. Content
// negotiation is deliberately lenient: NDJSON only on explicit
// request, everything else serves JSON.
func negotiateNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), v1.ContentTypeNDJSON)
}

func toSamples(ss []tsdb.Sample) []v1.Sample {
	out := make([]v1.Sample, len(ss))
	for i, s := range ss {
		out[i] = v1.Sample{Timestamp: s.Timestamp, Value: s.Value}
	}
	return out
}

func toSeries(s *tsdb.Series) v1.Series {
	return v1.Series{Metric: s.Metric, Tags: s.Tags, Samples: toSamples(s.Samples)}
}

// requireBackend guards the view routes.
func (g *Gateway) requireBackend(w http.ResponseWriter) *viz.Backend {
	if g.cfg.Backend == nil {
		writeError(w, &apiError{status: http.StatusServiceUnavailable, code: v1.CodeUnavailable, msg: "no view backend"})
		return nil
	}
	return g.cfg.Backend
}

// pageLimit is the default (and maximum) fleet page size.
const pageLimit = 100

// handleFleet is GET /api/v1/fleet: cursor-paginated unit summaries
// with fleet-wide aggregates. ?limit bounds the page (≤ pageLimit),
// ?cursor resumes a listing. The cursor carries the first page's
// window, so a walk is a consistent snapshot even against a moving
// default "now" — and every follow-up page re-reads the same window,
// which the query tier's cache serves without new TSD scans.
func (g *Gateway) handleFleet(w http.ResponseWriter, r *http.Request) {
	b := g.requireBackend(w)
	if b == nil {
		return
	}
	offset, cfrom, cto, cursored, err := decodeCursor(r.URL.Query().Get("cursor"))
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	var from, to int64
	if cursored {
		from, to = cfrom, cto
	} else if from, to, err = g.window(r); err != nil {
		writeError(w, mapError(err))
		return
	}
	limit := pageLimit
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, errBadRequest("bad limit %q", v))
			return
		}
		if n < limit {
			limit = n
		}
	}
	fleet, err := b.Fleet(r.Context(), from, to)
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	page := v1.FleetPage{
		From: from, To: to,
		Healthy: fleet.Healthy, Warning: fleet.Warning, Critical: fleet.Critical,
		Anomalies: fleet.Anomalies, Ignored: fleet.Ignored,
	}
	if offset > len(fleet.Units) {
		offset = len(fleet.Units)
	}
	end := offset + limit
	if end > len(fleet.Units) {
		end = len(fleet.Units)
	}
	page.Units = make([]v1.UnitSummary, 0, end-offset)
	for _, u := range fleet.Units[offset:end] {
		page.Units = append(page.Units, v1.UnitSummary{
			Unit: u.Unit, Status: string(u.Status), Anomalies: u.Anomalies, FlaggedSensors: u.FlaggedSensors,
		})
	}
	if end < len(fleet.Units) {
		page.NextCursor = encodeCursor(end, from, to)
	}
	writeJSON(w, page)
}

// Cursors are opaque to clients: versioned, base64url-encoded
// "offset:from:to" triples pinning both the position and the window.
const cursorPrefix = "u1:"

func encodeCursor(offset int, from, to int64) string {
	return base64.RawURLEncoding.EncodeToString(
		[]byte(fmt.Sprintf("%s%d:%d:%d", cursorPrefix, offset, from, to)))
}

func decodeCursor(s string) (offset int, from, to int64, ok bool, err error) {
	if s == "" {
		return 0, 0, 0, false, nil
	}
	bad := errBadRequest("bad cursor")
	raw, derr := base64.RawURLEncoding.DecodeString(s)
	if derr != nil {
		return 0, 0, 0, false, bad
	}
	rest, found := strings.CutPrefix(string(raw), cursorPrefix)
	if !found {
		return 0, 0, 0, false, bad
	}
	parts := strings.Split(rest, ":")
	if len(parts) != 3 {
		return 0, 0, 0, false, bad
	}
	offset, oerr := strconv.Atoi(parts[0])
	from, ferr := strconv.ParseInt(parts[1], 10, 64)
	to, terr := strconv.ParseInt(parts[2], 10, 64)
	if oerr != nil || ferr != nil || terr != nil || offset < 0 || from > to {
		return 0, 0, 0, false, bad
	}
	return offset, from, to, true, nil
}

func (g *Gateway) handleMachine(w http.ResponseWriter, r *http.Request) {
	b := g.requireBackend(w)
	if b == nil {
		return
	}
	unit, err := strconv.Atoi(r.PathValue("unit"))
	if err != nil {
		writeError(w, errBadRequest("bad unit %q", r.PathValue("unit")))
		return
	}
	from, to, err := g.window(r)
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	mv, err := b.Machine(r.Context(), unit, from, to)
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	out := v1.MachineView{Unit: mv.Unit, Status: string(mv.Status), Anomalies: mv.Anomalies}
	out.Sensors = make([]v1.SensorSeries, len(mv.Sensors))
	for i, sv := range mv.Sensors {
		out.Sensors[i] = v1.SensorSeries{
			Sensor: sv.Sensor, Samples: toSamples(sv.Samples), Anomalies: toSamples(sv.Anomalies), Latest: sv.Latest,
		}
	}
	writeJSON(w, out)
}

// handleSensorPath is GET /api/v1/machines/{unit}/sensors/{sensor}.
func (g *Gateway) handleSensorPath(w http.ResponseWriter, r *http.Request) {
	unit, err1 := strconv.Atoi(r.PathValue("unit"))
	sensor, err2 := strconv.Atoi(r.PathValue("sensor"))
	if err1 != nil || err2 != nil {
		writeError(w, errBadRequest("bad unit/sensor path"))
		return
	}
	g.serveSensor(w, r, unit, sensor)
}

// handleSeries is GET /api/v1/series?unit=&sensor= (the query-param
// spelling of the drill-down).
func (g *Gateway) handleSeries(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	unit, err1 := strconv.Atoi(q.Get("unit"))
	sensor, err2 := strconv.Atoi(q.Get("sensor"))
	if err1 != nil || err2 != nil {
		writeError(w, errBadRequest("unit and sensor required"))
		return
	}
	g.serveSensor(w, r, unit, sensor)
}

func (g *Gateway) serveSensor(w http.ResponseWriter, r *http.Request, unit, sensor int) {
	b := g.requireBackend(w)
	if b == nil {
		return
	}
	from, to, err := g.window(r)
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	det, err := b.Sensor(r.Context(), unit, sensor, from, to)
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	out := v1.SeriesDetail{
		Unit: det.Unit, Sensor: det.Sensor,
		Samples: toSamples(det.Samples), Anomalies: toSamples(det.Anomalies),
	}
	if negotiateNDJSON(r) {
		// NDJSON for bulk transfer: one sample object per line, the
		// anomaly flags as a trailing object line.
		lines := make([]any, 0, len(out.Samples)+1)
		for _, smp := range out.Samples {
			lines = append(lines, smp)
		}
		writeNDJSON(w, append(lines, map[string]any{"anomalies": out.Anomalies}))
		return
	}
	writeJSON(w, out)
}

func (g *Gateway) handleTop(w http.ResponseWriter, r *http.Request) {
	b := g.requireBackend(w)
	if b == nil {
		return
	}
	from, to, err := g.window(r)
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	limit := 10
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, errBadRequest("bad limit %q", v))
			return
		}
		limit = n
	}
	top, err := b.TopAnomalies(r.Context(), from, to, limit)
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	out := make([]v1.TopAnomaly, len(top))
	for i, a := range top {
		out[i] = v1.TopAnomaly{Unit: a.Unit, Sensor: a.Sensor, Timestamp: a.Timestamp, Severity: a.Severity}
	}
	writeJSON(w, v1.TopResponse{Anomalies: out})
}

// ---- ops ------------------------------------------------------------

// handleDetectors reports the detector tier: every registered family,
// its mode (primary / shadow / off), flag and shadow-comparison
// counters, and the effective ensemble configuration.
func (g *Gateway) handleDetectors(w http.ResponseWriter, r *http.Request) {
	if g.cfg.Detectors == nil {
		writeError(w, &apiError{status: http.StatusServiceUnavailable, code: v1.CodeUnavailable, msg: "no detector tier"})
		return
	}
	writeJSON(w, g.cfg.Detectors())
}

// handleCluster reports the cluster membership map: every live node
// with its roles, bus partition leadership and replication health.
func (g *Gateway) handleCluster(w http.ResponseWriter, r *http.Request) {
	if g.cfg.Cluster == nil {
		writeError(w, &apiError{status: http.StatusServiceUnavailable, code: v1.CodeUnavailable, msg: "no cluster membership"})
		return
	}
	writeJSON(w, g.cfg.Cluster())
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if g.cfg.Registry == nil {
		writeError(w, &apiError{status: http.StatusServiceUnavailable, code: v1.CodeUnavailable, msg: "no metrics registry"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	g.cfg.Registry.Expose(w)
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReady runs every dependency probe: 200 while every check is
// ok or merely degraded (wrapped with Degraded — the tier still
// serves, possibly stale), 503 only when some check is down. Liveness
// (/healthz) stays a plain "the process serves"; readiness gates
// traffic.
func (g *Gateway) handleReady(w http.ResponseWriter, r *http.Request) {
	resp := v1.ReadyResponse{Ready: true, Status: v1.ReadyOK}
	for _, c := range g.cfg.Ready {
		rc := v1.ReadyCheck{Name: c.Name, OK: true, Status: v1.ReadyOK}
		if err := c.Check(); err != nil {
			rc.Error = err.Error()
			if IsDegraded(err) {
				rc.Status = v1.ReadyDegraded
				if resp.Status == v1.ReadyOK {
					resp.Status = v1.ReadyDegraded
				}
			} else {
				rc.OK = false
				rc.Status = v1.ReadyDown
				resp.Status = v1.ReadyDown
				resp.Ready = false
			}
		}
		resp.Checks = append(resp.Checks, rc)
	}
	if !resp.Ready {
		w.Header().Set("Content-Type", v1.ContentTypeJSON)
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(resp)
		return
	}
	writeJSON(w, resp)
}
