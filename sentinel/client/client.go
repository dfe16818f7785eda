// Package client is the Go SDK for the /api/v1 gateway: a typed,
// context-aware HTTP client sharing its DTOs with the server
// (internal/api/v1), with retry-with-backoff on 429/503/504 and the
// server's error envelope surfaced as *v1.Error.
//
// Minimal use:
//
//	c, _ := client.New("http://localhost:8080")
//	c.PutPoints(ctx, []v1.Point{{Metric: "energy", Timestamp: 1, Value: 2.5,
//	    Tags: map[string]string{"unit": "0", "sensor": "0"}}})
//	page, _ := c.Fleet(ctx, client.FleetParams{})
//	stream, _ := c.StreamAnomalies(ctx)
//	for {
//	    ev, err := stream.Next()
//	    …
//	}
//
// Writes are safe to retry wholesale — point writes are idempotent —
// so the client retries POST /points on 429/503/504 exactly like
// reads.
//
// The exception is admission-controlled shedding: a 503 whose code is
// "overloaded" means the gateway deliberately rejected the request to
// protect itself, and hammering it with retries defeats the point. The
// client surfaces those immediately as *OverloadedError (match with
// errors.Is(err, ErrOverloaded)) carrying the server's Retry-After, so
// callers decide whether to back off, downshift, or drop.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	v1 "repro/internal/api/v1"
	"repro/internal/resilience"
)

// Client talks to one gateway. Safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	apiKey  string
	retries int
	backoff resilience.Backoff
	sleep   func(ctx context.Context, d time.Duration) error
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (tests pass
// httptest.Server.Client()).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithAPIKey sends key as X-API-Key: when the gateway lists it, the
// identity whose admission budget this client spends.
func WithAPIKey(key string) Option { return func(c *Client) { c.apiKey = key } }

// WithRetry tunes retry-on-backpressure: up to retries re-attempts
// with full-jitter exponential backoff starting at base (server
// Retry-After wins when longer — it is a floor, never jittered below).
// WithRetry(0, …) disables retries.
func WithRetry(retries int, base time.Duration) Option {
	return func(c *Client) {
		c.retries = retries
		c.backoff.Base = base
	}
}

// New builds a client for the gateway at baseURL.
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: bad base URL %q", baseURL)
	}
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		hc:      http.DefaultClient,
		retries: 3,
		// Full jitter desynchronizes a fleet of SDK clients retrying
		// the same shedding gateway (each delay is uniform in
		// [d/2, d]); the cap keeps tail waits bounded.
		backoff: resilience.Backoff{Base: 250 * time.Millisecond, Factor: 2, Max: 8 * time.Second, Jitter: true},
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// retryable reports whether status is worth another attempt: the
// gateway refuses with 429 (the client's budget) and 503 (overload
// shed, stream cap, draining bus), and 504 marks publish backpressure
// that outlived the deadline.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests ||
		status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout
}

// ErrOverloaded marks a request the gateway's admission controller
// shed (503 with code "overloaded"). Unlike other 503s it is returned
// immediately, without burning the retry budget: the server asked the
// fleet to slow down, and the right response is the caller's to make.
var ErrOverloaded = errors.New("client: gateway overloaded")

// OverloadedError is the typed form of an admission shed. It matches
// both errors.Is(err, ErrOverloaded) and errors.As(err, **v1.Error).
type OverloadedError struct {
	// RetryAfter is the server's suggested backoff (zero when the
	// response carried none).
	RetryAfter time.Duration
	// Err is the decoded v1 error envelope.
	Err *v1.Error
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("client: gateway overloaded (retry after %s): %s", e.RetryAfter, e.Err.Message)
}

// Unwrap exposes both the ErrOverloaded sentinel and the envelope.
func (e *OverloadedError) Unwrap() []error { return []error{ErrOverloaded, e.Err} }

// do executes one request with retries; body may be nil. The returned
// response body is the caller's to close.
func (c *Client) do(ctx context.Context, method, path string, contentType string, body []byte, accept string) (*http.Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return nil, fmt.Errorf("client: %w", err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		if c.apiKey != "" {
			req.Header.Set("X-API-Key", c.apiKey)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = err
		} else if !retryable(resp.StatusCode) {
			return resp, nil
		} else {
			lastErr = decodeError(resp) // reads and closes the body
			var ae *v1.Error
			if resp.StatusCode == http.StatusServiceUnavailable &&
				errors.As(lastErr, &ae) && ae.Code == v1.CodeOverloaded {
				// A deliberate admission shed: retrying into an
				// overloaded gateway is exactly the load it is trying
				// to lose. Surface it typed, immediately.
				return nil, &OverloadedError{
					RetryAfter: time.Duration(ae.RetryAfterSeconds) * time.Second,
					Err:        ae,
				}
			}
		}
		if attempt >= c.retries || ctx.Err() != nil {
			if lastErr == nil {
				lastErr = ctx.Err()
			}
			return nil, lastErr
		}
		wait := c.backoff.Delay(attempt)
		var ae *v1.Error
		if errors.As(lastErr, &ae) && ae.RetryAfterSeconds > 0 {
			// The server's Retry-After is a floor: jitter may stretch
			// the wait beyond it but never revisit the server sooner.
			if ra := time.Duration(ae.RetryAfterSeconds) * time.Second; ra > wait {
				wait = ra
			}
		}
		if err := c.sleep(ctx, wait); err != nil {
			return nil, lastErr
		}
	}
}

// decodeError turns a non-2xx response into a *v1.Error, synthesizing
// one when the body is not the envelope. It closes the body.
func decodeError(resp *http.Response) error {
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env v1.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err == nil && env.Error != nil {
		if env.Error.RetryAfterSeconds == 0 {
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
				env.Error.RetryAfterSeconds = s
			}
		}
		return env.Error
	}
	return &v1.Error{
		Code:    v1.CodeInternal,
		Message: strings.TrimSpace(string(raw)),
		Status:  resp.StatusCode,
	}
}

// getJSON fetches path and decodes the body into out.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.do(ctx, http.MethodGet, path, "", nil, v1.ContentTypeJSON)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeErrorKeepOpen(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeErrorKeepOpen is decodeError for bodies the caller closes.
func decodeErrorKeepOpen(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env v1.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err == nil && env.Error != nil {
		return env.Error
	}
	return &v1.Error{Code: v1.CodeInternal, Message: strings.TrimSpace(string(raw)), Status: resp.StatusCode}
}

// PutPoints writes points through POST /api/v1/points and returns how
// many the gateway accepted onto the ingestion log.
func (c *Client) PutPoints(ctx context.Context, points []v1.Point) (int, error) {
	body, err := json.Marshal(v1.PutRequest{Points: points})
	if err != nil {
		return 0, fmt.Errorf("client: marshal points: %w", err)
	}
	resp, err := c.do(ctx, http.MethodPost, v1.PathPrefix+"/points", v1.ContentTypeJSON, body, v1.ContentTypeJSON)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, decodeErrorKeepOpen(resp)
	}
	var out v1.PutResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, fmt.Errorf("client: decode put response: %w", err)
	}
	return out.Accepted, nil
}

// QueryParams selects raw series for Query.
type QueryParams struct {
	Metric    string // default "energy"
	Unit      string // optional tag filter
	Sensor    string // optional tag filter
	From, To  int64
	MaxPoints int // LTTB render bound; 0 = exact
}

func (p QueryParams) encode() string {
	q := url.Values{}
	if p.Metric != "" {
		q.Set("metric", p.Metric)
	}
	if p.Unit != "" {
		q.Set("unit", p.Unit)
	}
	if p.Sensor != "" {
		q.Set("sensor", p.Sensor)
	}
	q.Set("from", strconv.FormatInt(p.From, 10))
	q.Set("to", strconv.FormatInt(p.To, 10))
	if p.MaxPoints > 0 {
		q.Set("maxpoints", strconv.Itoa(p.MaxPoints))
	}
	return q.Encode()
}

// Query fetches raw series through the gateway's cached query tier.
func (c *Client) Query(ctx context.Context, p QueryParams) ([]v1.Series, error) {
	var out v1.QueryResponse
	if err := c.getJSON(ctx, v1.PathPrefix+"/query?"+p.encode(), &out); err != nil {
		return nil, err
	}
	return out.Series, nil
}

// QueryNDJSON fetches the same series as one NDJSON line per series,
// invoking fn for each — the bulk-transfer spelling.
func (c *Client) QueryNDJSON(ctx context.Context, p QueryParams, fn func(v1.Series) error) error {
	resp, err := c.do(ctx, http.MethodGet, v1.PathPrefix+"/query?"+p.encode(), "", nil, v1.ContentTypeNDJSON)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeErrorKeepOpen(resp)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, v1.ContentTypeNDJSON) {
		return fmt.Errorf("client: server did not negotiate NDJSON (got %q)", ct)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var s v1.Series
		if err := dec.Decode(&s); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("client: decode NDJSON: %w", err)
		}
		if err := fn(s); err != nil {
			return err
		}
	}
}

// FleetParams tunes a Fleet page fetch. Zero From/To use the server's
// default window.
type FleetParams struct {
	From, To int64
	Limit    int
	Cursor   string
}

// Fleet fetches one page of unit summaries; follow
// page.NextCursor for the rest (or use FleetAll).
func (c *Client) Fleet(ctx context.Context, p FleetParams) (*v1.FleetPage, error) {
	q := url.Values{}
	if p.From != 0 || p.To != 0 {
		q.Set("from", strconv.FormatInt(p.From, 10))
		q.Set("to", strconv.FormatInt(p.To, 10))
	}
	if p.Limit > 0 {
		q.Set("limit", strconv.Itoa(p.Limit))
	}
	if p.Cursor != "" {
		q.Set("cursor", p.Cursor)
	}
	path := v1.PathPrefix + "/fleet"
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	var out v1.FleetPage
	if err := c.getJSON(ctx, path, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// FleetAll walks every page and returns the concatenated summaries
// (aggregates come from the first page — they are fleet-wide on every
// page).
func (c *Client) FleetAll(ctx context.Context, p FleetParams) (*v1.FleetPage, error) {
	p.Cursor = ""
	first, err := c.Fleet(ctx, p)
	if err != nil {
		return nil, err
	}
	for cursor := first.NextCursor; cursor != ""; {
		p.Cursor = cursor
		page, err := c.Fleet(ctx, p)
		if err != nil {
			return nil, err
		}
		first.Units = append(first.Units, page.Units...)
		cursor = page.NextCursor
	}
	first.NextCursor = ""
	return first, nil
}

// Machine fetches the per-machine view.
func (c *Client) Machine(ctx context.Context, unit int, from, to int64) (*v1.MachineView, error) {
	var out v1.MachineView
	path := fmt.Sprintf("%s/machines/%d?from=%d&to=%d", v1.PathPrefix, unit, from, to)
	if err := c.getJSON(ctx, path, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Sensor fetches one sensor's drill-down.
func (c *Client) Sensor(ctx context.Context, unit, sensor int, from, to int64) (*v1.SeriesDetail, error) {
	var out v1.SeriesDetail
	path := fmt.Sprintf("%s/machines/%d/sensors/%d?from=%d&to=%d", v1.PathPrefix, unit, sensor, from, to)
	if err := c.getJSON(ctx, path, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TopAnomalies fetches the severity ranking.
func (c *Client) TopAnomalies(ctx context.Context, from, to int64, limit int) ([]v1.TopAnomaly, error) {
	path := fmt.Sprintf("%s/anomalies/top?from=%d&to=%d", v1.PathPrefix, from, to)
	if limit > 0 {
		path += "&limit=" + strconv.Itoa(limit)
	}
	var out v1.TopResponse
	if err := c.getJSON(ctx, path, &out); err != nil {
		return nil, err
	}
	return out.Anomalies, nil
}

// Detectors fetches the detector tier status: every registered
// family with its mode (primary / shadow / off), flag and
// shadow-agreement counters, and the effective ensemble config.
func (c *Client) Detectors(ctx context.Context) (*v1.DetectorsResponse, error) {
	var out v1.DetectorsResponse
	if err := c.getJSON(ctx, v1.PathPrefix+"/detectors", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Cluster fetches the cluster membership map: every live node with
// its roles, rpc endpoint, TSD routes and bus leadership state. A
// single-process server reports one node holding every role.
func (c *Client) Cluster(ctx context.Context) (*v1.ClusterResponse, error) {
	var out v1.ClusterResponse
	if err := c.getJSON(ctx, v1.PathPrefix+"/cluster", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health probes liveness.
func (c *Client) Health(ctx context.Context) error {
	resp, err := c.do(ctx, http.MethodGet, "/healthz", "", nil, "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeErrorKeepOpen(resp)
	}
	return nil
}

// Ready probes readiness; the per-dependency detail is returned even
// when not ready (err is non-nil iff the transport failed). It
// deliberately bypasses the retry loop: a 503 here is the answer —
// "not ready, and here is why" — not backpressure to wait out.
func (c *Client) Ready(ctx context.Context) (*v1.ReadyResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Accept", v1.ContentTypeJSON)
	if c.apiKey != "" {
		req.Header.Set("X-API-Key", c.apiKey)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out v1.ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("client: decode readyz: %w", err)
	}
	return &out, nil
}

// Metrics fetches the exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.do(ctx, http.MethodGet, v1.PathPrefix+"/metrics", "", nil, "")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeErrorKeepOpen(resp)
	}
	raw, err := io.ReadAll(resp.Body)
	return string(raw), err
}
