package api

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
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

// Querier serves raw series reads as enc's bytes; *query.Engine in
// production, which encodes each cached window once per format and
// keeps the bytes with the window (query.Engine.QueryEncoded).
type Querier interface {
	QueryEncoded(ctx context.Context, q tsdb.Query, f query.Format, enc query.Encoder) ([]byte, error)
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
	// /api/v1/cluster (roles, TSD routes, bus partition leadership).
	// Nil, or an error (the coordination service unreadable), answers
	// 503 unavailable.
	Cluster func() (v1.ClusterResponse, error)

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

// window resolves [from, to] from the request's from/to parameters
// with gateway defaults (viz.Window). Handlers parse the query string
// once (r.URL.Query allocates a map per call) and pass it.
func (g *Gateway) window(q url.Values) (int64, int64, error) {
	from, to, err := viz.Window(q, g.cfg.Now(), g.cfg.Window)
	if err != nil {
		return 0, 0, errBadRequest("%v", err)
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
// Accept: application/x-ndjson streams one series per line. The body
// is the engine's cached bytes for the window, encoded by its first
// reader; only the degraded mark is per response.
func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	if g.cfg.Query == nil {
		writeError(w, &apiError{status: http.StatusServiceUnavailable, code: v1.CodeUnavailable, msg: "no query backend"})
		return
	}
	q := r.URL.Query()
	from, to, err := g.window(q)
	if err != nil {
		writeError(w, mapError(err))
		return
	}
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
	ndjson := negotiateNDJSON(r)
	format, enc := query.JSON, query.Encoder(encodeSeriesArray)
	if ndjson {
		format, enc = query.NDJSON, encodeSeriesLines
	}
	ctx, marker := query.WithDegradedMarker(r.Context())
	body, err := g.cfg.Query.QueryEncoded(ctx, tsdb.Query{
		Metric: metric, Tags: tags, Start: from, End: to, MaxPoints: maxPoints,
	}, format, enc)
	if isNoMetric(err) {
		body, err = enc(nil)
	}
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	degraded := marker.Degraded()
	if degraded {
		w.Header().Set(v1.HeaderDegraded, "true")
	}
	if ndjson {
		writeBody(w, v1.ContentTypeNDJSON, body)
		return
	}
	// v1.QueryResponse around the cached "series" array: degraded is per
	// response, so it is written after the shared bytes, never into them.
	end := queryResponseEnd
	if degraded {
		end = queryResponseEndDegraded
	}
	w.Header().Set("Content-Type", v1.ContentTypeJSON)
	_, _ = w.Write(queryResponseStart)
	_, _ = w.Write(body)
	_, _ = w.Write(end)
}

var (
	queryResponseStart       = []byte(`{"series":`)
	queryResponseEnd         = []byte("}\n")
	queryResponseEndDegraded = []byte(`,"degraded":true}` + "\n")
)

// isNoMetric treats "metric not yet written" as an empty result, the
// same contract the viz backend applies.
func isNoMetric(err error) bool { return errors.Is(err, tsdb.ErrNoSuchMetric) }

// negotiateNDJSON reports whether the client asked for NDJSON. Content
// negotiation is deliberately lenient: NDJSON only on explicit
// request, everything else serves JSON.
func negotiateNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), v1.ContentTypeNDJSON)
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
	q := r.URL.Query()
	offset, cfrom, cto, cursored, err := decodeCursor(q.Get("cursor"))
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	var from, to int64
	if cursored {
		from, to = cfrom, cto
	} else if from, to, err = g.window(q); err != nil {
		writeError(w, mapError(err))
		return
	}
	limit := pageLimit
	if v := q.Get("limit"); v != "" {
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
	from, to, err := g.window(r.URL.Query())
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	mv, err := b.Machine(r.Context(), unit, from, to)
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	body, err := encodeMachineView(mv)
	writeEncoded(w, v1.ContentTypeJSON, body, err)
}

// handleSensorPath is GET /api/v1/machines/{unit}/sensors/{sensor}.
func (g *Gateway) handleSensorPath(w http.ResponseWriter, r *http.Request) {
	unit, err1 := strconv.Atoi(r.PathValue("unit"))
	sensor, err2 := strconv.Atoi(r.PathValue("sensor"))
	if err1 != nil || err2 != nil {
		writeError(w, errBadRequest("bad unit/sensor path"))
		return
	}
	g.serveSensor(w, r, r.URL.Query(), unit, sensor)
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
	g.serveSensor(w, r, q, unit, sensor)
}

func (g *Gateway) serveSensor(w http.ResponseWriter, r *http.Request, q url.Values, unit, sensor int) {
	b := g.requireBackend(w)
	if b == nil {
		return
	}
	from, to, err := g.window(q)
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	det, err := b.Sensor(r.Context(), unit, sensor, from, to)
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	if negotiateNDJSON(r) {
		// NDJSON for bulk transfer: one sample object per line, the
		// anomaly flags as a trailing object line.
		body, err := encodeSensorLines(det)
		writeEncoded(w, v1.ContentTypeNDJSON, body, err)
		return
	}
	body, err := encodeSeriesDetail(det)
	writeEncoded(w, v1.ContentTypeJSON, body, err)
}

func (g *Gateway) handleTop(w http.ResponseWriter, r *http.Request) {
	b := g.requireBackend(w)
	if b == nil {
		return
	}
	q := r.URL.Query()
	from, to, err := g.window(q)
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	limit := 10
	if v := q.Get("limit"); v != "" {
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
	body, err := encodeTop(top)
	writeEncoded(w, v1.ContentTypeJSON, body, err)
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
// with its roles, TSD routes and bus partition leadership.
func (g *Gateway) handleCluster(w http.ResponseWriter, r *http.Request) {
	if g.cfg.Cluster == nil {
		writeError(w, &apiError{status: http.StatusServiceUnavailable, code: v1.CodeUnavailable, msg: "no cluster membership"})
		return
	}
	cm, err := g.cfg.Cluster()
	if err != nil {
		writeError(w, &apiError{status: http.StatusServiceUnavailable, code: v1.CodeUnavailable, msg: "cluster membership: " + err.Error()})
		return
	}
	writeJSON(w, cm)
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
