package api

import (
	"compress/gzip"
	"context"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	v1 "repro/internal/api/v1"
	"repro/internal/telemetry"
)

// Middleware wraps an http.Handler with one cross-cutting concern.
// The gateway composes them with Chain; see doc.go for the canonical
// order and why it matters.
type Middleware func(http.Handler) http.Handler

// Chain applies mw to h so that mw[0] is the outermost layer — the
// first to see the request and the last to see the response.
func Chain(h http.Handler, mw ...Middleware) http.Handler {
	for i := len(mw) - 1; i >= 0; i-- {
		h = mw[i](h)
	}
	return h
}

// HeaderRequestID carries the per-request correlation id.
const HeaderRequestID = "X-Request-ID"

type ctxKey int

const ctxKeyRequestID ctxKey = iota

// RequestIDFrom returns the request id middleware attached to ctx.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}

var requestSeq atomic.Uint64

// RequestID assigns every request a correlation id (respecting one the
// client already sent), exposes it on the response and in the request
// context. Outermost layer: every log line and error below it can name
// the request.
func RequestID() Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := r.Header.Get(HeaderRequestID)
			if id == "" {
				var buf [20]byte
				b := append(buf[:0], 'r', '-')
				id = string(strconv.AppendUint(b, requestSeq.Add(1), 36))
			}
			w.Header().Set(HeaderRequestID, id)
			next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKeyRequestID, id)))
		})
	}
}

// statusWriter records the status code and bytes written so the access
// log and metrics see the response shape. Pooled: the put hot path
// must not pay an allocation per layer.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

var statusWriterPool = sync.Pool{New: func() any { return new(statusWriter) }}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// Flush forwards flushing so SSE streaming works through the wrapper.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// AccessLog emits one structured line per request to logger (nil
// silences it) and records per-route latency histograms (ms, since
// process start) plus request and error counters in reg (nil
// disables). Route labels come from ServeMux patterns
// (r.Pattern), so /api/v1/machines/3 and /…/7 share one histogram.
// The logged client is the remote IP — X-API-Key is a credential and
// stays out of log lines.
func AccessLog(logger *log.Logger, reg *telemetry.Registry) Middleware {
	var hists sync.Map // route pattern → *telemetry.Histogram
	var requests, errors5xx *telemetry.Counter
	if reg != nil {
		requests = reg.Counter("http_requests")
		errors5xx = reg.Counter("http_5xx")
	}
	if logger != nil && logger.Writer() == io.Discard {
		logger = nil // don't pay per-request formatting into a sink
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := statusWriterPool.Get().(*statusWriter)
			sw.ResponseWriter, sw.status, sw.bytes = w, 0, 0
			start := time.Now()
			// Bookkeeping is deferred: Recover (one layer inside)
			// re-panics http.ErrAbortHandler, and an aborted request
			// must still return its wrapper to the pool, count, and
			// leave a log line.
			defer func() {
				dur := time.Since(start)
				status, bytes := sw.status, sw.bytes
				if status == 0 {
					status = http.StatusOK
				}
				sw.ResponseWriter = nil
				statusWriterPool.Put(sw)
				if reg != nil {
					requests.Inc()
					if status >= 500 {
						errors5xx.Inc()
					}
					route := r.Pattern
					if route == "" {
						route = "unmatched"
					}
					h, ok := hists.Load(route)
					if !ok {
						h, _ = hists.LoadOrStore(route, reg.Histogram(`http_ms{route="`+route+`"}`))
					}
					h.(*telemetry.Histogram).Observe(float64(dur.Nanoseconds()) / 1e6)
				}
				if logger != nil {
					logger.Printf("access method=%s path=%s status=%d bytes=%d dur=%s id=%s client=%s",
						r.Method, r.URL.Path, status, bytes, dur, RequestIDFrom(r.Context()), remoteIP(r))
				}
			}()
			next.ServeHTTP(sw, r)
		})
	}
}

// Recover turns a handler panic into a 500 error envelope instead of
// tearing down the connection, and logs the panic with the request id.
// It sits inside AccessLog so the 500 is still logged and counted.
// http.ErrAbortHandler is re-panicked untouched: net/http defines that
// sentinel as "abort the response" (connection torn down, no stack
// trace), and writing a 500 envelope onto a possibly half-written
// response would corrupt it.
func Recover(logger *log.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				if v := recover(); v != nil {
					if v == http.ErrAbortHandler {
						panic(v)
					}
					if logger != nil {
						logger.Printf("panic id=%s path=%s: %v", RequestIDFrom(r.Context()), r.URL.Path, v)
					}
					writeErrorStatus(w, http.StatusInternalServerError, "internal error")
				}
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// Admission is the gateway's one cheap-reject stage: before any
// per-request work is spent — no body read, no timeout context — it
// asks the controller whether to do the work at all (see
// internal/admission; rejecting cheap and early is the point, so this
// layer sits above Timeout and Gzip). The controller sheds by class
// under pressure (503) and charges the request to its identity's
// budget (429). classify maps the request to its priority class;
// routes whose cost depends on content negotiation (a dashboard read
// vs an NDJSON bulk export of the same path) escalate per request.
// Admitted ingest requests feed their latency back into the
// controller's gradient signal. A nil controller disables the stage.
func Admission(ctrl *admission.Controller, classify func(*http.Request) admission.Class, keys map[string]string) Middleware {
	return func(next http.Handler) http.Handler {
		if ctrl == nil {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			class := classify(r)
			if d := ctrl.Admit(class, clientKey(r, keys)); !d.OK {
				reject(w, d)
				return
			}
			if class != admission.Ingest {
				next.ServeHTTP(w, r)
				return
			}
			start := time.Now()
			next.ServeHTTP(w, r)
			ctrl.ObserveLatency(admission.Ingest, time.Since(start))
		})
	}
}

// reject writes every refusal of the cheap-reject path: the
// controller's 503 overloaded / 429 rate_limited and the SSE stream
// cap's 503, each with its Retry-After.
func reject(w http.ResponseWriter, d admission.Decision) {
	code := v1.CodeOverloaded
	if d.Status == http.StatusTooManyRequests {
		code = v1.CodeRateLimited
	}
	writeError(w, &apiError{status: d.Status, code: code, msg: d.Reason, retry: d.RetryAfter})
}

// Timeout bounds each request's context. Handlers thread ctx into the
// query tier and the bus, so an expired deadline surfaces as a 504
// envelope from the error mapper rather than a wedged connection.
// Streaming routes skip this layer — an SSE tail is supposed to live
// for minutes.
func Timeout(d time.Duration) Middleware {
	return func(next http.Handler) http.Handler {
		if d <= 0 {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			next.ServeHTTP(w, r.WithContext(ctx))
		})
	}
}

// remoteIP extracts the caller's network address without the port.
func remoteIP(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// clientKey is the one identity function — whose budget a request
// spends: the X-API-Key header when it matches a configured key
// (multi-tenant deployments hand keys out), else the remote IP. An
// unrecognized or absent key never grants its own bucket — X-API-Key
// is attacker-chosen, and honoring arbitrary values would let any
// client mint a fresh full bucket per request by rotating keys. keys
// maps each configured key to its identity, "key:"-prefixed so a key
// that happens to look like an IP cannot collide with a real IP's
// bucket. The header name is spelled in its canonical form: Header.Get
// canonicalises any other spelling into a fresh string per request.
func clientKey(r *http.Request, keys map[string]string) string {
	if k := r.Header.Get("X-Api-Key"); k != "" {
		if id, ok := keys[k]; ok {
			return id
		}
	}
	return remoteIP(r)
}

// gzipWriter wraps the response, deciding at header time whether to
// compress: the Content-Encoding header must be set before the status
// line flushes, including on explicit WriteHeader calls (error
// envelopes). Header-only responses (204 from the legacy put shim)
// never touch the gzip pool.
type gzipWriter struct {
	http.ResponseWriter
	gz          *gzip.Writer
	wroteHeader bool
	encode      bool
}

var gzipPool = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}

func (gw *gzipWriter) WriteHeader(code int) {
	if !gw.wroteHeader {
		gw.wroteHeader = true
		// Bodyless statuses must not claim an encoding.
		if code != http.StatusNoContent && code != http.StatusNotModified &&
			gw.Header().Get("Content-Encoding") == "" {
			gw.Header().Set("Content-Encoding", "gzip")
			gw.Header().Del("Content-Length")
			gw.encode = true
		}
	}
	gw.ResponseWriter.WriteHeader(code)
}

func (gw *gzipWriter) Write(p []byte) (int, error) {
	if !gw.wroteHeader {
		gw.WriteHeader(http.StatusOK)
	}
	if !gw.encode {
		return gw.ResponseWriter.Write(p)
	}
	if gw.gz == nil {
		gw.gz = gzipPool.Get().(*gzip.Writer)
		gw.gz.Reset(gw.ResponseWriter)
	}
	return gw.gz.Write(p)
}

func (gw *gzipWriter) close() {
	if gw.gz != nil {
		_ = gw.gz.Close()
		gzipPool.Put(gw.gz)
		gw.gz = nil
	}
}

// Gzip compresses response bodies when the client accepts it.
// Innermost layer: everything outside it (logs, limits) sees the
// uncompressed status and the route untouched. Streaming routes skip
// it — SSE frames must flush per event, not per gzip block. Every
// response carries Vary: Accept-Encoding (compressed or not) so a
// shared cache never serves a gzip body to a client that didn't ask
// for one.
func Gzip() Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Add("Vary", "Accept-Encoding")
			if !strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
				next.ServeHTTP(w, r)
				return
			}
			gw := &gzipWriter{ResponseWriter: w}
			defer gw.close()
			next.ServeHTTP(gw, r)
		})
	}
}
