package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	v1 "repro/internal/api/v1"
	"repro/internal/bus"
	"repro/internal/query"
	"repro/internal/viz"
)

// apiError is the gateway's internal error carrier; it renders as the
// v1 error envelope. Handlers either build one directly or let
// mapError classify an error from the tiers below.
type apiError struct {
	status int
	code   string
	msg    string
	retry  int // Retry-After seconds, when > 0
}

func (e *apiError) Error() string { return fmt.Sprintf("%s (%d): %s", e.code, e.status, e.msg) }

func errBadRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: v1.CodeBadRequest, msg: fmt.Sprintf(format, args...)}
}

func errNotFound(format string, args ...any) *apiError {
	return &apiError{status: http.StatusNotFound, code: v1.CodeNotFound, msg: fmt.Sprintf(format, args...)}
}

// mapError classifies an error from the viz backend, the query tier or
// the bus onto an HTTP status + code. The mapping is part of the v1
// contract (see README) and is pinned by TestV1Conformance.
func mapError(err error) *apiError {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return ae
	case errors.Is(err, viz.ErrBadRequest):
		return &apiError{status: http.StatusBadRequest, code: v1.CodeBadRequest, msg: err.Error()}
	case errors.Is(err, viz.ErrNotFound):
		return &apiError{status: http.StatusNotFound, code: v1.CodeNotFound, msg: err.Error()}
	case isMaxBytes(err):
		return &apiError{status: http.StatusRequestEntityTooLarge, code: v1.CodeTooLarge, msg: err.Error()}
	case errors.Is(err, bus.ErrDraining), errors.Is(err, bus.ErrClosed):
		return &apiError{status: http.StatusServiceUnavailable, code: v1.CodeUnavailable, msg: err.Error(), retry: 1}
	case errors.Is(err, context.DeadlineExceeded):
		return &apiError{status: http.StatusGatewayTimeout, code: v1.CodeTimeout, msg: err.Error()}
	case errors.Is(err, query.ErrNoBackends):
		return &apiError{status: http.StatusServiceUnavailable, code: v1.CodeUnavailable, msg: err.Error()}
	default:
		return &apiError{status: http.StatusInternalServerError, code: v1.CodeInternal, msg: err.Error()}
	}
}

func isMaxBytes(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// writeError renders e as the v1 error envelope.
func writeError(w http.ResponseWriter, e *apiError) {
	if e.retry > 0 && w.Header().Get("Retry-After") == "" {
		w.Header().Set("Retry-After", fmt.Sprint(e.retry))
	}
	w.Header().Set("Content-Type", v1.ContentTypeJSON)
	w.WriteHeader(e.status)
	_ = json.NewEncoder(w).Encode(v1.ErrorEnvelope{Error: &v1.Error{
		Code:              e.code,
		Message:           e.msg,
		Status:            e.status,
		RetryAfterSeconds: e.retry,
	}})
}

// writeErrorStatus is writeError for a bare status (used by Recover,
// where no classified error exists).
func writeErrorStatus(w http.ResponseWriter, status int, msg string) {
	code := v1.CodeInternal
	switch status {
	case http.StatusBadRequest:
		code = v1.CodeBadRequest
	case http.StatusNotFound:
		code = v1.CodeNotFound
	}
	writeError(w, &apiError{status: status, code: code, msg: msg})
}

// writeJSON renders v with the v1 content type. v is marshalled before
// anything is written, so a value JSON cannot carry (a NaN, say) is the
// v1 500 envelope, not a 200 with an empty body.
func writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeErrorStatus(w, http.StatusInternalServerError, "encode response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", v1.ContentTypeJSON)
	_, _ = w.Write(append(body, '\n')) // a failed write means the client has gone: no one to tell
}

// writeNDJSON renders lines as NDJSON, one value a line. Like writeJSON
// it encodes every line before anything is written, so a line JSON
// cannot carry is the v1 500 envelope, not a 200 stream cut short.
func writeNDJSON[T any](w http.ResponseWriter, lines []T) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for i := range lines {
		if err := enc.Encode(lines[i]); err != nil { // Encode appends the newline
			writeErrorStatus(w, http.StatusInternalServerError, "encode response: "+err.Error())
			return
		}
	}
	w.Header().Set("Content-Type", v1.ContentTypeNDJSON)
	_, _ = body.WriteTo(w) // a failed write means the client has gone: no one to tell
}
