package experiment

import (
	"context"
	"errors"
	"fmt"

	"mcddvfs/internal/flight"
)

// The harness error taxonomy. Every failure an experiment run can
// produce wraps exactly one of these sentinels, so callers dispatch
// with errors.Is instead of string matching:
//
//	ErrInvalidSpec — the request could never run: unknown benchmark,
//	    malformed profile, or a machine configuration that fails
//	    validation. Retrying is pointless.
//	ErrRunTimeout  — the per-run deadline (Options.Timeout) expired.
//	ErrCancelled   — the run's context was cancelled (e.g. SIGINT).
//	ErrRunPanicked — the simulation panicked; the panic was recovered
//	    and converted so one bad cell cannot kill a whole sweep.
var (
	ErrInvalidSpec = errors.New("invalid run spec")
	ErrRunTimeout  = errors.New("run deadline exceeded")
	ErrCancelled   = errors.New("run cancelled")
	ErrRunPanicked = errors.New("run panicked")
)

// invalidSpec wraps an underlying validation failure with
// ErrInvalidSpec.
func invalidSpec(err error) error {
	return fmt.Errorf("%w: %v", ErrInvalidSpec, err)
}

// wrapRunErr maps context termination onto the taxonomy and leaves
// every other error (already structured or domain-specific) alone.
func wrapRunErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %v", ErrRunTimeout, err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w: %v", ErrCancelled, err)
	case errors.Is(err, flight.ErrPanicked):
		return fmt.Errorf("%w: %v", ErrRunPanicked, err)
	default:
		return err
	}
}

// transientErr reports whether err reflects the circumstances of this
// attempt (cancellation, deadline) rather than a property of the
// simulation itself. Transient failures are never memoized: a later
// call with a fresh context must re-run the simulation.
func transientErr(err error) bool {
	return errors.Is(err, ErrCancelled) || errors.Is(err, ErrRunTimeout) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// CellError is one failed cell of a benchmark × scheme sweep. The
// matrix keeps running when a cell fails; the failure is reported here
// alongside the partial results.
type CellError struct {
	Bench  string
	Scheme Scheme
	Err    error
}

// Error implements the error interface.
func (e *CellError) Error() string {
	return fmt.Sprintf("%s/%s: %v", e.Bench, e.Scheme, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }
