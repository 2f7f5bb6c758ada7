package check

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

// Error taxonomy of the solve pipeline, matched with errors.Is. easched
// re-exports it and the serving layer classifies against it, so the
// daemon need not link the facade; the "easched:" message prefixes are
// the facade's historical text.
var (
	// ErrInfeasible marks an instance that cannot meet its deadlines
	// under the requested constraints.
	ErrInfeasible = errors.New("easched: instance infeasible")
	// ErrDeadlineExceeded marks a solve aborted by its context deadline.
	ErrDeadlineExceeded = errors.New("easched: solve deadline exceeded")
	// ErrSolverPanic marks an error that was recovered from a scheduler
	// panic. Match with errors.Is; the concrete *PanicError (errors.As)
	// carries the panic value and stack.
	ErrSolverPanic = errors.New("solver panicked")
	// ErrInvalidSchedule marks a produced schedule the universal
	// validator rejected.
	ErrInvalidSchedule = errors.New("easched: produced schedule failed validation")
)

// PanicError is a recovered scheduler panic converted into an error.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("solver panicked: %v", e.Value) }

// Is reports ErrSolverPanic so errors.Is(err, ErrSolverPanic) matches.
func (e *PanicError) Is(target error) bool { return target == ErrSolverPanic }

// RunSafe executes the entry's runner with panic containment: a panic
// inside the scheduler becomes a *PanicError instead of crashing the
// caller. The differential harness and the serving layer both go
// through this, so one pathological instance cannot take down a whole
// audit (or the daemon).
func (e Entry) RunSafe(ctx context.Context, ts task.Set, m int, pm power.Model) (s *schedule.Schedule, energy float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			s, energy = nil, 0
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return e.Run(ctx, ts, m, pm)
}
