package easched

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/capped"
	"repro/internal/check"
)

// Error taxonomy of the solve pipeline. Every error returned by Solve
// and SolveBatch matches exactly one of these sentinels under errors.Is
// (plus the generic "solver error" case), so callers can map failures
// to distinct behaviors without string matching. The sentinels are
// defined in internal/check, which the schedd serving layer shares, so
// the identities below are the ones the daemon classifies against.
var (
	// ErrInfeasible marks an instance that cannot meet its deadlines
	// under the requested constraints (e.g. MethodCapped below the
	// minimal feasible speed).
	ErrInfeasible = check.ErrInfeasible
	// ErrDeadlineExceeded marks a solve aborted by its context deadline.
	ErrDeadlineExceeded = check.ErrDeadlineExceeded
	// ErrSolverPanic marks a panic recovered inside a solver; errors.As
	// with *PanicError recovers the panic value and stack.
	ErrSolverPanic = check.ErrSolverPanic
	// ErrInvalidSchedule marks a produced schedule the universal
	// validator rejected.
	ErrInvalidSchedule = check.ErrInvalidSchedule
)

// PanicError carries a recovered solver panic (value + stack). It is
// the concrete type behind ErrSolverPanic, shared with internal/check
// so server- and library-level recoveries are indistinguishable to
// errors.As.
type PanicError = check.PanicError

// classify folds an arbitrary solver error into the taxonomy: context
// deadlines become ErrDeadlineExceeded, capped-infeasibility becomes
// ErrInfeasible, and everything else passes through unchanged. The
// original error stays in the chain, so errors.Is against the
// underlying cause keeps working.
func classify(err error) error {
	if err == nil {
		return nil
	}
	switch {
	case errors.Is(err, ErrInfeasible), errors.Is(err, ErrDeadlineExceeded):
		return err // already classified
	case errors.Is(err, capped.ErrInfeasible):
		return fmt.Errorf("%w: %w", ErrInfeasible, err)
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	default:
		return err
	}
}
