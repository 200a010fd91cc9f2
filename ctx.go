package ansmet

import (
	"context"
	"fmt"
)

// Typed cancellation errors, matched with errors.Is. Do, DoMany and
// Cluster.Do (and every wrapper over them) return a *CancelError wrapping
// one of these when the context expires or is cancelled; the wrapper
// additionally reports whether the accompanying result slice holds a usable
// partial answer.
var (
	// ErrDeadlineExceeded reports a search stopped by its context deadline.
	ErrDeadlineExceeded = fmt.Errorf("ansmet: search deadline exceeded")
	// ErrCanceled reports a search stopped by explicit context cancellation.
	ErrCanceled = fmt.Errorf("ansmet: search canceled")
)

// CancelError is the error returned by the search APIs when the context
// fires. It distinguishes the two outcomes a caller cares
// about:
//
//   - Partial == true: the search produced a usable prefix of the answer
//     (best results found so far, sorted). Serving layers can return these
//     with a "partial" marker instead of failing the request outright.
//   - Partial == false: the search aborted before producing anything; the
//     result slice is empty.
//
// CancelError matches both the package sentinels (ErrDeadlineExceeded,
// ErrCanceled) and the context package's sentinels via errors.Is, so
// callers holding only a context can classify without importing new names.
type CancelError struct {
	// Err is ErrDeadlineExceeded or ErrCanceled.
	Err error
	// Partial reports whether the returned results are a usable partial
	// answer (true) or the search aborted empty (false).
	Partial bool
}

func (e *CancelError) Error() string {
	if e.Partial {
		return e.Err.Error() + " (partial results available)"
	}
	return e.Err.Error() + " (aborted)"
}

// Unwrap exposes the sentinel for errors.Is(err, ErrDeadlineExceeded) etc.
func (e *CancelError) Unwrap() error { return e.Err }

// Is additionally matches the context package's sentinels, so
// errors.Is(err, context.DeadlineExceeded) works too.
func (e *CancelError) Is(target error) bool {
	switch target {
	case context.DeadlineExceeded:
		return e.Err == ErrDeadlineExceeded
	case context.Canceled:
		return e.Err == ErrCanceled
	}
	return false
}

// cancelErr maps the context's state to the package's typed error. Called
// only after the context has fired (or a cooperative checkpoint observed
// done); a context cancelled with a custom cause still classifies as
// ErrCanceled.
func cancelErr(ctx context.Context, partial bool) error {
	e := &CancelError{Err: ErrCanceled, Partial: partial}
	if ctx.Err() == context.DeadlineExceeded {
		e.Err = ErrDeadlineExceeded
	}
	return e
}
