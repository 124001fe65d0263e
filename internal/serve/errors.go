package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"mcddvfs/internal/experiment"
	"mcddvfs/internal/flight"
)

// The service error taxonomy extends the harness sentinels
// (experiment.ErrInvalidSpec/ErrRunTimeout/ErrCancelled/ErrRunPanicked)
// with the conditions only a server can hit. Every error a handler
// emits maps onto exactly one stable machine-readable code, so clients
// dispatch on Code and never parse messages.
var (
	// ErrOverloaded means admission control shed the request: the
	// worker pool and its bounded queue are full. Clients should back
	// off and retry.
	ErrOverloaded = errors.New("serve: overloaded, work queue full")
	// ErrDraining means the server is shutting down and accepts no new
	// work; in-flight requests are finishing.
	ErrDraining = errors.New("serve: draining, not accepting new work")
	// ErrForcedDrain reports a shutdown that exceeded its grace budget
	// and had to cancel in-flight work.
	ErrForcedDrain = errors.New("serve: drain grace exceeded, in-flight work cancelled")
	// ErrConfig reports an unusable server configuration.
	ErrConfig = errors.New("serve: invalid configuration")
)

// The machine-readable error codes of the HTTP API. Stable: clients
// and the CI smoke test dispatch on these strings.
const (
	CodeInvalidSpec = "invalid_spec" // 400: the spec can never run
	CodeBadRequest  = "bad_request"  // 400: malformed request envelope
	CodeNotFound    = "not_found"    // 404: no such route
	CodeOverloaded  = "overloaded"   // 429: queue full, retry later
	CodeRunPanicked = "run_panicked" // 500: simulation panicked
	CodeInternal    = "internal"     // 500: unclassified failure
	CodeCancelled   = "cancelled"    // 503: run abandoned before completion
	CodeDraining    = "draining"     // 503: server shutting down
	CodeRunTimeout  = "run_timeout"  // 504: per-request deadline expired
)

// apiError is the wire form of one failure.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorBody is the stable HTTP error schema: {"error":{"code","message"}}.
type errorBody struct {
	Error apiError `json:"error"`
}

// httpStatus maps an error code to its HTTP status.
func httpStatus(code string) int {
	switch code {
	case CodeInvalidSpec, CodeBadRequest:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeOverloaded:
		return http.StatusTooManyRequests
	case CodeCancelled, CodeDraining:
		return http.StatusServiceUnavailable
	case CodeRunTimeout:
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// classify maps an error from the render path onto its code. A render
// runs detached from any one request and carries no deadline of its
// own, so a context.DeadlineExceeded can only be this request's own
// deadline expiring: a timeout, never a cancellation.
func classify(err error) string {
	switch {
	case errors.Is(err, ErrDraining):
		return CodeDraining
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, experiment.ErrInvalidSpec):
		return CodeInvalidSpec
	case errors.Is(err, experiment.ErrRunTimeout), errors.Is(err, context.DeadlineExceeded):
		return CodeRunTimeout
	case errors.Is(err, experiment.ErrRunPanicked), errors.Is(err, flight.ErrPanicked):
		return CodeRunPanicked
	case errors.Is(err, experiment.ErrCancelled), errors.Is(err, context.Canceled):
		return CodeCancelled
	}
	return CodeInternal
}

// writeErr emits the error schema. Shedding and draining responses
// carry a Retry-After hint so well-behaved clients pace themselves.
func writeErr(w http.ResponseWriter, code, message string) {
	status := httpStatus(code)
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: apiError{Code: code, Message: message}}) //nolint:errcheck // client gone
}

// writeClassified classifies err and emits it.
func writeClassified(w http.ResponseWriter, err error) {
	writeErr(w, classify(err), err.Error())
}
