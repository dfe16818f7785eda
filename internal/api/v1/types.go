// Package v1 defines the wire contract of the /api/v1 gateway: the
// request and response DTOs, the error envelope and the content types.
// It is shared by the server (internal/api) and the Go SDK
// (sentinel/client) so the two cannot drift, and it deliberately
// depends on nothing but the standard library — the types here ARE the
// public surface, free of storage-tier concretions.
package v1

import "fmt"

// PathPrefix is the mount point of the versioned API.
const PathPrefix = "/api/v1"

// Content types negotiated by the gateway.
const (
	ContentTypeJSON   = "application/json"
	ContentTypeNDJSON = "application/x-ndjson"
	ContentTypeSSE    = "text/event-stream"
	// ContentTypeLines is the OpenTSDB telnet "put" line protocol,
	// accepted by POST /api/v1/points for text/plain bodies.
	ContentTypeLines = "text/plain"
)

// HeaderDegraded is set to "true" on read responses served from a
// stale cache window because the storage tier could not answer. The
// body carries the same signal in QueryResponse.Degraded; the header
// exists for streaming responses (NDJSON) whose body has no envelope.
const HeaderDegraded = "X-Sentinel-Degraded"

// Readiness statuses carried by ReadyCheck.Status and
// ReadyResponse.Status. "ok" means fully healthy, "degraded" means the
// dependency is limping but traffic is still served (possibly stale),
// "down" means the dependency is unusable and readiness gates traffic.
const (
	ReadyOK       = "ok"
	ReadyDegraded = "degraded"
	ReadyDown     = "down"
)

// Machine-readable error codes carried in the error envelope.
const (
	CodeBadRequest  = "bad_request"
	CodeNotFound    = "not_found"
	CodeTooLarge    = "payload_too_large"
	CodeRateLimited = "rate_limited"
	CodeOverloaded  = "overloaded"
	CodeUnavailable = "unavailable"
	CodeTimeout     = "timeout"
	CodeInternal    = "internal"
)

// Error is the typed error every non-2xx gateway response carries,
// wrapped in an ErrorEnvelope. The client SDK returns it verbatim so
// callers switch on Code rather than parsing messages.
type Error struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is human-readable detail.
	Message string `json:"message"`
	// Status is the HTTP status the server sent.
	Status int `json:"status"`
	// RetryAfterSeconds echoes the Retry-After header on 429/503
	// responses, when the server set one.
	RetryAfterSeconds int `json:"retryAfterSeconds,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("api: %s (%d): %s", e.Code, e.Status, e.Message)
}

// ErrorEnvelope is the body of every error response.
type ErrorEnvelope struct {
	Error *Error `json:"error"`
}

// Point is one sample to write. Tags identify the series; the
// ingestion pipeline routes on the "unit" tag.
type Point struct {
	Metric    string            `json:"metric"`
	Timestamp int64             `json:"timestamp"`
	Value     float64           `json:"value"`
	Tags      map[string]string `json:"tags"`
}

// PutRequest is the body of POST /api/v1/points. A bare JSON array of
// points (the OpenTSDB idiom) is also accepted.
type PutRequest struct {
	Points []Point `json:"points"`
}

// PutResponse acknowledges a write.
type PutResponse struct {
	// Accepted is the number of points durably appended to the
	// ingestion log.
	Accepted int `json:"accepted"`
}

// Sample is one (timestamp, value) observation.
type Sample struct {
	Timestamp int64   `json:"t"`
	Value     float64 `json:"v"`
}

// Series is one tagged time series of a query response.
type Series struct {
	Metric  string            `json:"metric"`
	Tags    map[string]string `json:"tags"`
	Samples []Sample          `json:"samples"`
}

// QueryResponse is the body of GET /api/v1/query. Degraded marks a
// response answered from a stale cached window because the storage
// tier was unreachable (mirrored in the X-Sentinel-Degraded header).
type QueryResponse struct {
	Series   []Series `json:"series"`
	Degraded bool     `json:"degraded,omitempty"`
}

// UnitSummary is one row of the fleet listing.
type UnitSummary struct {
	Unit           int    `json:"unit"`
	Status         string `json:"status"`
	Anomalies      int    `json:"anomalies"`
	FlaggedSensors int    `json:"flaggedSensors"`
}

// FleetPage is the body of GET /api/v1/fleet: one cursor-bounded page
// of unit summaries plus window-wide aggregates (the aggregates cover
// the whole fleet regardless of the page bounds).
type FleetPage struct {
	From      int64 `json:"from"`
	To        int64 `json:"to"`
	Healthy   int   `json:"healthy"`
	Warning   int   `json:"warning"`
	Critical  int   `json:"critical"`
	Anomalies int   `json:"anomalies"`
	// Ignored counts anomaly flags written for units outside the
	// configured fleet.
	Ignored int           `json:"ignoredAnomalies,omitempty"`
	Units   []UnitSummary `json:"units"`
	// NextCursor, when non-empty, fetches the next page; pass it back
	// as ?cursor=. The cursor pins the first page's [from, to] window,
	// so a paged walk is a consistent snapshot even against a moving
	// default "now".
	NextCursor string `json:"nextCursor,omitempty"`
}

// SensorSeries is one sensor of a machine view.
type SensorSeries struct {
	Sensor    int      `json:"sensor"`
	Samples   []Sample `json:"samples"`
	Anomalies []Sample `json:"anomalies"`
	Latest    float64  `json:"latest"`
}

// MachineView is the body of GET /api/v1/machines/{unit}.
type MachineView struct {
	Unit      int            `json:"unit"`
	Status    string         `json:"status"`
	Anomalies int            `json:"anomalies"`
	Sensors   []SensorSeries `json:"sensors"`
}

// SeriesDetail is the body of GET /api/v1/series (and of the
// per-sensor drill-down): one sensor's samples and anomaly flags.
type SeriesDetail struct {
	Unit      int      `json:"unit"`
	Sensor    int      `json:"sensor"`
	Samples   []Sample `json:"samples"`
	Anomalies []Sample `json:"anomalies"`
}

// TopAnomaly is one entry of the severity ranking.
type TopAnomaly struct {
	Unit      int     `json:"unit"`
	Sensor    int     `json:"sensor"`
	Timestamp int64   `json:"timestamp"`
	Severity  float64 `json:"severity"`
}

// TopResponse is the body of GET /api/v1/anomalies/top.
type TopResponse struct {
	Anomalies []TopAnomaly `json:"anomalies"`
}

// AnomalyEvent is one server-sent event on GET
// /api/v1/anomalies/stream: a flag the detector pool just wrote,
// tailed live off the commit-log bus.
type AnomalyEvent struct {
	Unit      int     `json:"unit"`
	Sensor    int     `json:"sensor"`
	Timestamp int64   `json:"timestamp"`
	Value     float64 `json:"value"`
	Z         float64 `json:"z"`
	PValue    float64 `json:"pValue"`
	Adjusted  float64 `json:"adjusted"`
	// Detector and Score identify the family that raised the flag and
	// its family-specific severity. Both are omitted on payloads from
	// servers predating the detector tier, so clients must treat them
	// as optional.
	Detector string  `json:"detector,omitempty"`
	Score    float64 `json:"score,omitempty"`
}

// EventAnomaly is the SSE event name AnomalyEvent rides under.
const EventAnomaly = "anomaly"

// ReadyCheck is one dependency's contribution to GET /api/v1/readyz.
// Status is ReadyOK, ReadyDegraded or ReadyDown; OK remains the
// boolean view (true unless down) for older clients.
type ReadyCheck struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Status string `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

// ReadyResponse is the body of GET /api/v1/readyz. Ready stays true
// while every check is ok or merely degraded; the HTTP status is 200
// in both of those states and 503 only when some check is down.
// Status is the worst check status: ok, degraded or down.
type ReadyResponse struct {
	Ready  bool         `json:"ready"`
	Status string       `json:"status,omitempty"`
	Checks []ReadyCheck `json:"checks"`
}

// DetectorInfo describes one registered detector family on GET
// /api/v1/detectors. Mode is "primary" (evaluating and emitting
// flags), "shadow" (evaluating silently, counted against the primary)
// or "off" (registered but not running).
type DetectorInfo struct {
	Name string `json:"name"`
	Mode string `json:"mode"`
	// Flags counts flags raised: written-back anomalies for the
	// primary, would-have-flagged rows for shadows, 0 when off.
	Flags int64 `json:"flags"`
	// Agreements and Disagreements count evaluated rows where this
	// shadow's verdict matched / differed from the primary's, over
	// rows at least one of the two flagged. Always 0 for the primary.
	Agreements    int64 `json:"agreements,omitempty"`
	Disagreements int64 `json:"disagreements,omitempty"`
	// Shed counts batches the shadow runner dropped rather than
	// backpressure the primary path.
	Shed int64 `json:"shed,omitempty"`
}

// EnsembleConfig is the effective configuration of the "ensemble"
// family: its member families and the row-level voting threshold.
type EnsembleConfig struct {
	Members  []string `json:"members"`
	MinVotes int      `json:"minVotes"`
}

// DetectorsResponse is the body of GET /api/v1/detectors.
type DetectorsResponse struct {
	Primary   string         `json:"primary"`
	Detectors []DetectorInfo `json:"detectors"`
	Ensemble  EnsembleConfig `json:"ensemble"`
}

// ClusterNode describes one live node of the cluster on GET
// /api/v1/cluster: its roles, rpc endpoint, TSD routes and the bus
// partition groups it leads. A single-process deployment reports one
// node holding every role. Per-process counters (promotions, follower
// lag) are on each node's /api/v1/metrics, not here.
type ClusterNode struct {
	Name  string   `json:"name"`
	Roles []string `json:"roles"`
	// Addr is the node's rpc endpoint (the TCP listener in a
	// multi-process cluster; empty in-process).
	Addr string `json:"addr,omitempty"`
	// TSDs lists the TSD daemon addresses a store node serves, as
	// cluster-visible routes (prefixed with the node name).
	TSDs []string `json:"tsds,omitempty"`
	// PartitionGroupsLed lists the bus partition groups this node's
	// bus service leads: those whose election names its bus address
	// when the map is served.
	PartitionGroupsLed []int `json:"partitionGroupsLed,omitempty"`
}

// ClusterResponse is the body of GET /api/v1/cluster: the membership
// map assembled from the coordination service's ephemeral node
// records.
type ClusterResponse struct {
	Nodes []ClusterNode `json:"nodes"`
}
