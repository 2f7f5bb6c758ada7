package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/dispatch"
	"repro/internal/fault"
	"repro/internal/feas"
	"repro/internal/interval"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/server/wire"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
)

// maxBodyBytes bounds request bodies so a single client cannot exhaust
// memory; generously sized for tens of thousands of tasks.
const maxBodyBytes = 8 << 20

// validateInstance applies the shared task-set/core-count limits.
func validateInstance(ts task.Set, cores, maxTasks int) error {
	if cores <= 0 {
		return fmt.Errorf("cores must be >= 1, have %d", cores)
	}
	if len(ts) == 0 {
		return fmt.Errorf("task set is empty")
	}
	if maxTasks > 0 && len(ts) > maxTasks {
		return fmt.Errorf("task set has %d tasks, limit is %d", len(ts), maxTasks)
	}
	if err := ts.Validate(); err != nil {
		return err
	}
	return nil
}

// Sentinel causes threaded through error chains so errorCode can
// classify failures that have no typed sentinel of their own.
var (
	errBreakerOpen      = errors.New("circuit breaker open")
	errUnknownAlgorithm = errors.New("unknown algorithm")
)

// errorCode maps a failure to its wire error code, preferring the
// check/dispatch error taxonomy over the blunt HTTP status.
func errorCode(status int, err error) wire.ErrorCode {
	switch {
	case errors.Is(err, errBreakerOpen):
		return wire.CodeBreakerOpen
	case errors.Is(err, errUnknownAlgorithm):
		return wire.CodeUnknownAlgorithm
	case errors.Is(err, check.ErrInfeasible):
		return wire.CodeInfeasible
	case errors.Is(err, check.ErrSolverPanic):
		return wire.CodeSolverPanic
	case errors.Is(err, check.ErrInvalidSchedule):
		return wire.CodeInvalidSchedule
	case errors.Is(err, check.ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return wire.CodeTimeout
	case errors.Is(err, context.Canceled):
		return wire.CodeCanceled
	case errors.Is(err, dispatch.ErrTooManySessions):
		return wire.CodeOverloaded
	case errors.Is(err, dispatch.ErrSessionClosed):
		return wire.CodeSessionClosed
	case errors.Is(err, dispatch.ErrDuplicateSession):
		return wire.CodeDuplicateSession
	case errors.Is(err, dispatch.ErrBadArrival):
		return wire.CodeBadRequest
	}
	switch status {
	case http.StatusBadRequest:
		return wire.CodeBadRequest
	case http.StatusNotFound:
		return wire.CodeNotFound
	case http.StatusMethodNotAllowed:
		return wire.CodeMethodNotAllowed
	case http.StatusConflict:
		return wire.CodeSessionClosed
	case http.StatusUnprocessableEntity:
		return wire.CodeUnprocessable
	case http.StatusTooManyRequests:
		return wire.CodeOverloaded
	case http.StatusGatewayTimeout:
		return wire.CodeTimeout
	case http.StatusInternalServerError:
		return wire.CodeInternal
	default:
		return wire.CodeUnavailable
	}
}

// writeErrorFor writes the error envelope with the code derived from
// (status, err).
func writeErrorFor(w http.ResponseWriter, status int, err error) {
	wire.WriteError(w, status, errorCode(status, err), "%v", err)
}

// solveResult carries one solver outcome, its guardrail verdict and
// its simulator report across the cancellation select.
type solveResult struct {
	sched      *schedule.Schedule
	energy     float64
	violations []check.Violation
	sim        *wire.SimReportJSON
	err        error
}

// simRun replays a schedule for the response's sim report; tests
// replace it to hold a request inside the simulator.
var simRun = sim.Run

// runSolve executes a registered scheduler under ctx, audits its
// schedule with the universal validator and, when replay is set,
// replays a clean one through the simulator, all in the same goroutine,
// so the audit and the simulator hold the worker slot and run under the
// same deadline as the solve. Runners observe ctx and abort between
// solver passes, and check.Audit polls it during its sweep, so a
// canceled request frees its worker slot promptly instead of holding it
// until convergence; the select below additionally unblocks the
// handler immediately, and the slot is released only when the solver
// goroutine actually returns.
//
// A panic inside the solver (real or injected) is recovered into a
// typed error matching check.ErrSolverPanic — the daemon never
// crashes on a pathological instance.
func runSolve(ctx context.Context, in *fault.Injector, e check.Entry, ts task.Set, m int, pm power.Model, replay bool, done func()) solveResult {
	ch := make(chan solveResult, 1)
	go func() {
		defer done()
		defer func() {
			if r := recover(); r != nil {
				ch <- solveResult{err: &check.PanicError{Value: r}}
			}
		}()
		if in != nil {
			if in.Should(fault.SolverPanic) {
				panic("injected solver panic")
			}
			if in.Should(fault.SolverDelay) {
				t := time.NewTimer(in.Delay())
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
				}
			}
			if ferr := in.Err(fault.AllocError); ferr != nil {
				ch <- solveResult{err: ferr}
				return
			}
		}
		s, energy, err := e.Run(ctx, ts, m, pm)
		if err != nil {
			ch <- solveResult{err: err}
			return
		}
		audit, err := check.Audit(ctx, s, ts, m, pm, check.DefaultOptions())
		if err != nil {
			ch <- solveResult{err: err}
			return
		}
		res := solveResult{sched: s, energy: energy, violations: audit.Violations}
		if replay && audit.OK() {
			// A replay error leaves the report out; it never fails the solve.
			if rep, err := simRun(s, pm); err == nil {
				res.sim = wire.SimReport(rep)
			}
		}
		ch <- res
	}()
	select {
	case res := <-ch:
		return res
	case <-ctx.Done():
		return solveResult{err: ctx.Err()}
	}
}

// runVerified pushes one (algorithm, instance) solve through admission,
// the per-attempt timeout, the validator guardrail and, when replay is
// set, the simulator, and reports the outcome with its HTTP-style
// status. It is the single attempt the fallback chain composes.
func (s *Server) runVerified(reqCtx context.Context, entry check.Entry, req *wire.ScheduleRequest, pm power.Model, replay bool) (solveResult, int, error) {
	s.metrics.queueDepth.Observe(float64(s.gate.depth()))
	ctx := reqCtx
	if s.cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SolveTimeout)
		defer cancel()
	}
	if err := s.gate.acquire(ctx); err != nil {
		switch {
		case errors.Is(err, errOverload):
			s.metrics.overload.Add(1)
			return solveResult{}, http.StatusTooManyRequests,
				fmt.Errorf("admission queue full, retry later")
		default:
			s.metrics.canceled.Add(1)
			return solveResult{}, statusForCtxErr(err),
				fmt.Errorf("request ended while queued: %w", err)
		}
	}
	// The slot is released by the solve goroutine itself (see runSolve),
	// so an abandoned solve keeps its worker until it actually returns.
	s.metrics.solves.Add(1)
	res := runSolve(ctx, s.faults(), entry, req.Tasks, req.Cores, pm, replay, s.gate.release)
	if res.err != nil {
		switch {
		case errors.Is(res.err, context.DeadlineExceeded), errors.Is(res.err, context.Canceled):
			s.metrics.canceled.Add(1)
			return solveResult{}, statusForCtxErr(res.err), fmt.Errorf("solve aborted: %w", res.err)
		case errors.Is(res.err, check.ErrSolverPanic):
			s.metrics.solvePanics.Add(1)
			return solveResult{}, statusForSolveErr(res.err), fmt.Errorf("solve failed: %w", res.err)
		default:
			s.metrics.solveErrors.Add(1)
			return solveResult{}, statusForSolveErr(res.err), fmt.Errorf("solve failed: %w", res.err)
		}
	}

	// Guardrail: never ship a schedule the universal validator rejects.
	// The validator_reject fault point simulates a guardrail rejection of
	// a good schedule, exercising the same degradation path.
	violations := res.violations
	if len(violations) == 0 && s.faults().Should(fault.ValidatorReject) {
		violations = []check.Violation{{Kind: check.KindEnergy, Task: -1, Detail: "injected validator rejection"}}
	}
	if len(violations) > 0 {
		s.metrics.verifyFailures.Add(1)
		return solveResult{}, http.StatusInternalServerError,
			fmt.Errorf("produced schedule failed verification: %w: %v (+%d more)",
				check.ErrInvalidSchedule, violations[0], len(violations)-1)
	}
	return res, http.StatusOK, nil
}

// fallbackEligible reports whether a failed primary attempt should walk
// the fallback chain: solver errors, panics, deadline blows, and
// guardrail rejections are recoverable by re-solving with the baseline;
// client-side failures (cancellation, overload) are not.
func fallbackEligible(status int, err error) bool {
	switch status {
	case http.StatusTooManyRequests:
		return false // admission pushback, not an algorithm failure
	}
	if errors.Is(err, context.Canceled) {
		return false // the client is gone
	}
	return status >= 500 || status == http.StatusUnprocessableEntity
}

// breakerCountable reports whether a failed attempt is the algorithm's
// fault (and should count toward opening its circuit breaker), as
// opposed to client cancellation or admission pushback.
func breakerCountable(status int, err error) bool {
	return fallbackEligible(status, err) && status != http.StatusServiceUnavailable
}

// solveOne runs the full per-instance pipeline — cache lookup (with
// integrity check), circuit breaker, admission, solve under a per-item
// timeout, validator guardrail, fallback chain, cache fill — and
// returns the response (and the realized schedule when freshly solved)
// or an HTTP-style status and error. Shared by POST /v1/schedule and
// each item of POST /v1/schedule/batch.
func (s *Server) solveOne(reqCtx context.Context, req *wire.ScheduleRequest) (*wire.ScheduleResponse, *schedule.Schedule, int, error) {
	if err := validateInstance(req.Tasks, req.Cores, s.cfg.MaxTasks); err != nil {
		return nil, nil, http.StatusBadRequest, err
	}
	pm, err := req.Model.Model()
	if err != nil {
		return nil, nil, http.StatusBadRequest, err
	}
	entry, ok := check.Lookup(req.Algorithm)
	if !ok {
		return nil, nil, http.StatusNotFound,
			fmt.Errorf("%w %q (have %v)", errUnknownAlgorithm, req.Algorithm, check.Names())
	}

	// Transient-I/O fault point: a retryable 503, upstream of everything.
	if ferr := s.faults().Err(fault.IOError); ferr != nil {
		return nil, nil, http.StatusServiceUnavailable,
			fmt.Errorf("transient backend error: %w", ferr)
	}

	key := solveKey(req.Algorithm, req.Tasks, req.Cores, pm)
	if s.faults().Should(fault.CacheCorrupt) {
		s.cache.Corrupt(key)
	}
	if cached, ok, corrupted := s.cache.Get(key); ok {
		s.metrics.cacheHits.Add(1)
		resp := *cached // shallow copy; Segments slice is shared read-only
		resp.Cached = true
		return &resp, nil, http.StatusOK, nil
	} else if corrupted {
		// Detected corruption degrades to a re-solve, never to a wrong
		// answer: the entry was dropped, so this is now a clean miss.
		s.metrics.cacheCorruptions.Add(1)
	}
	s.metrics.cacheMisses.Add(1)

	// Primary attempt, guarded by the algorithm's circuit breaker.
	br := s.breakers.Get(req.Algorithm)
	var primaryErr error
	primaryStatus := http.StatusOK
	if ok, probe := br.Admit(); ok {
		res, status, err := s.runVerified(reqCtx, entry, req, pm, true)
		if err == nil {
			br.Success()
			resp := &wire.ScheduleResponse{
				Version:   wire.Version,
				Algorithm: req.Algorithm,
				Cores:     req.Cores,
				Energy:    res.energy,
				BusyTime:  res.sched.BusyTime(),
				Makespan:  res.sched.Makespan(),
				Verified:  true,
				Segments:  wire.Segments(res.sched),
				Sim:       res.sim,
			}
			s.cache.Put(key, resp)
			out := *resp
			return &out, res.sched, http.StatusOK, nil
		}
		switch {
		case breakerCountable(status, err):
			br.Failure()
		case probe:
			// The probe's outcome says nothing about the algorithm
			// (cancellation / admission pushback): release the slot, or
			// the stuck `probing` flag would deny this algorithm forever.
			br.ProbeAborted()
		}
		if !fallbackEligible(status, err) {
			return nil, nil, status, err
		}
		primaryStatus, primaryErr = status, err
	} else {
		s.metrics.breakerDenials.Add(1)
		primaryStatus = http.StatusServiceUnavailable
		primaryErr = fmt.Errorf("%w for algorithm %q", errBreakerOpen, req.Algorithm)
	}

	// Fallback chain: requested algorithm failed (or its breaker is
	// open); re-solve with the configured always-feasible baseline so a
	// valid schedule is served whenever one exists. Degraded responses
	// are not cached: the primary may recover, and its cache key must
	// not pin the baseline's answer.
	fb := s.fallbackEntry(req.Algorithm)
	if fb == nil {
		return nil, nil, primaryStatus, primaryErr
	}
	fbBr := s.breakers.Get(fb.Name)
	fbOK, fbProbe := fbBr.Admit()
	if !fbOK {
		s.metrics.breakerDenials.Add(1)
		s.metrics.fallbackFailures.Add(1)
		return nil, nil, http.StatusServiceUnavailable,
			fmt.Errorf("%v; fallback %q %w", primaryErr, fb.Name, errBreakerOpen)
	}
	res, status, err := s.runVerified(reqCtx, *fb, req, pm, true)
	if err != nil {
		switch {
		case breakerCountable(status, err):
			fbBr.Failure()
		case fbProbe:
			fbBr.ProbeAborted()
		}
		s.metrics.fallbackFailures.Add(1)
		return nil, nil, http.StatusServiceUnavailable,
			fmt.Errorf("%v; fallback %q also failed: %v", primaryErr, fb.Name, err)
	}
	fbBr.Success()
	s.metrics.degraded.Add(1)
	s.cfg.Logger.Printf("msg=%q algorithm=%q fallback=%q cause=%q",
		"degraded response", req.Algorithm, fb.Name, primaryErr)
	resp := &wire.ScheduleResponse{
		Version:           wire.Version,
		Algorithm:         req.Algorithm,
		Cores:             req.Cores,
		Energy:            res.energy,
		BusyTime:          res.sched.BusyTime(),
		Makespan:          res.sched.Makespan(),
		Verified:          true,
		Segments:          wire.Segments(res.sched),
		Degraded:          true,
		FallbackAlgorithm: fb.Name,
		Sim:               res.sim,
	}
	return resp, res.sched, http.StatusOK, nil
}

// fallbackEntry resolves the configured fallback algorithm, or nil when
// the chain is disabled or would re-run the algorithm that just failed.
func (s *Server) fallbackEntry(requested string) *check.Entry {
	name := s.cfg.FallbackAlgorithm
	if name == "" || name == FallbackNone || name == requested {
		return nil
	}
	e, ok := check.Lookup(name)
	if !ok {
		return nil
	}
	return &e
}

// statusForSolveErr maps the check error taxonomy to HTTP statuses:
// infeasible instances are the client's problem (422), deadline blows
// are 504, panics and invalid schedules are server faults (500), and
// unclassified solver errors remain 422 (unprocessable instance).
func statusForSolveErr(err error) int {
	switch {
	case errors.Is(err, check.ErrInfeasible):
		return http.StatusUnprocessableEntity
	case errors.Is(err, check.ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, check.ErrSolverPanic):
		return http.StatusInternalServerError
	case errors.Is(err, check.ErrInvalidSchedule):
		return http.StatusInternalServerError
	default:
		return http.StatusUnprocessableEntity
	}
}

// handleSchedule serves POST /v1/schedule.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteError(w, http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed, "use POST")
		return
	}
	if s.draining.Load() {
		wire.RetryAfter(w, 1)
		s.metrics.draining.Add(1)
		wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeDraining, "server is draining")
		return
	}
	start := time.Now()

	var req wire.ScheduleRequest
	if err := wire.DecodeRequest(w, r, maxBodyBytes, &req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	resp, sched, code, err := s.solveOne(r.Context(), &req)
	if err != nil {
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			wire.RetryAfter(w, 1)
		}
		writeErrorFor(w, code, err)
		return
	}
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	s.respondSchedule(w, r, resp, sched)
}

// maxBatchItems bounds one batch request; larger batches should be
// split by the client.
const maxBatchItems = 256

// handleScheduleBatch serves POST /v1/schedule/batch: independent
// instances solved concurrently, each through the same admission gate,
// cache, and validator guardrail as POST /v1/schedule. The batch
// response is 200 whenever the batch was processed; per-item failures
// carry their own HTTP-equivalent status.
func (s *Server) handleScheduleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteError(w, http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed, "use POST")
		return
	}
	if s.draining.Load() {
		wire.RetryAfter(w, 1)
		s.metrics.draining.Add(1)
		wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeDraining, "server is draining")
		return
	}
	start := time.Now()

	var req wire.BatchRequest
	if err := wire.DecodeRequest(w, r, maxBodyBytes, &req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	if len(req.Items) == 0 {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "batch has no items")
		return
	}
	if len(req.Items) > maxBatchItems {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest,
			"batch has %d items, limit is %d", len(req.Items), maxBatchItems)
		return
	}

	s.metrics.batches.Add(1)
	items := make([]wire.BatchItem, len(req.Items))
	// Fan out at most Workers items at a time: each still passes the
	// admission gate, but a large batch queues here instead of flooding
	// the shared admission queue (which would 429 its own tail).
	workers := s.cfg.Workers
	if workers > len(req.Items) {
		workers = len(req.Items)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				itemStart := time.Now()
				resp, _, code, err := s.solveOne(r.Context(), &req.Items[i])
				if err != nil {
					items[i] = wire.BatchItem{
						Index: i, Error: err.Error(), Status: code,
						Code:      errorCode(code, err),
						Retryable: wire.RetryableStatus(code),
					}
					continue
				}
				resp.ElapsedMS = float64(time.Since(itemStart)) / float64(time.Millisecond)
				items[i] = wire.BatchItem{Index: i, Response: resp}
			}
		}()
	}
	for i := range req.Items {
		idx <- i
	}
	close(idx)
	wg.Wait()
	wire.WriteBatch(w, &wire.BatchResponse{
		Version:   wire.Version,
		Items:     items,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// respondSchedule writes either the JSON schedule payload (encoded by
// wire.AppendSchedule before the header is sent, so an unencodable
// response is a 500 envelope) or, with ?trace=chrome, a Chrome trace-event document of the schedule (ready
// for chrome://tracing / Perfetto). Cached responses reconstruct the
// schedule from the stored segments.
func (s *Server) respondSchedule(w http.ResponseWriter, r *http.Request, resp *wire.ScheduleResponse, sched *schedule.Schedule) {
	if r.URL.Query().Get("trace") == "chrome" {
		if sched == nil {
			sched = &schedule.Schedule{Cores: resp.Cores}
			for _, seg := range resp.Segments {
				sched.Add(schedule.Segment{
					Task: seg.Task, Core: seg.Core,
					Start: seg.Start, End: seg.End, Frequency: seg.Frequency,
				})
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="schedule.trace.json"`)
		if err := trace.WriteChrome(w, sched, 1e3); err != nil {
			s.cfg.Logger.Printf("msg=%q err=%q", "chrome trace write failed", err)
		}
		return
	}
	wire.WriteSchedule(w, resp)
}

// statusForCtxErr maps a context error to the HTTP status of the (likely
// unread) response: 504 for a deadline, 503 for client cancellation.
func statusForCtxErr(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return http.StatusServiceUnavailable
}

// handleFeasible serves POST /v1/feasible: the max-flow schedulability
// test at the requested uniform speed ceiling (default 1.0, the paper's
// normalized f_max) plus the bisected minimal feasible speed.
func (s *Server) handleFeasible(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteError(w, http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed, "use POST")
		return
	}
	var req wire.FeasibleRequest
	if err := wire.DecodeRequest(w, r, maxBodyBytes, &req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	if err := validateInstance(req.Tasks, req.Cores, s.cfg.MaxTasks); err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	speed := req.Speed
	if speed == 0 {
		speed = 1
	}
	if speed < 0 {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "speed %g must be positive", speed)
		return
	}
	d, err := interval.Decompose(req.Tasks, 1e-9)
	if err != nil {
		wire.WriteError(w, http.StatusUnprocessableEntity, wire.CodeUnprocessable, "%v", err)
		return
	}
	feasible, _, err := feas.Feasible(d, req.Cores, speed)
	if err != nil {
		wire.WriteError(w, http.StatusUnprocessableEntity, wire.CodeUnprocessable, "%v", err)
		return
	}
	minSpeed, _, err := feas.MinSpeed(d, req.Cores, 1e-9)
	if err != nil {
		wire.WriteError(w, http.StatusUnprocessableEntity, wire.CodeUnprocessable, "%v", err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, wire.FeasibleResponse{
		Feasible: feasible,
		Speed:    speed,
		MinSpeed: minSpeed,
	})
}

// handleAlgorithms serves GET /v1/algorithms.
func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		wire.WriteError(w, http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed, "use GET")
		return
	}
	wire.WriteJSON(w, http.StatusOK, wire.AlgorithmsResponse{Algorithms: check.Names()})
}

// handleHealthz serves GET /healthz: pure liveness. It answers 200 as
// long as the process is serving at all — even while draining — so
// orchestrators don't kill a daemon that is finishing in-flight work.
// Routing decisions belong to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"algorithms": len(check.Names()),
	})
}

// handleReadyz serves GET /readyz: drain-aware readiness. 503 once
// shutdown begins (load balancers stop routing before in-flight work is
// cut off) or when every known algorithm breaker is open (nothing can
// currently be served).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		wire.RetryAfter(w, 1)
		wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeDraining, "draining")
	case s.breakers.AllOpen():
		wire.RetryAfter(w, 1)
		wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeBreakerOpen, "all circuit breakers open")
	default:
		resp := map[string]any{"status": "ready"}
		if s.journalStore() != nil {
			// Journal enabled: surface the startup recovery outcome so
			// orchestration (and the crash smoke) can assert on it.
			resp["sessions_recovered"] = s.metrics.sessionsRecovered.Load()
			resp["sessions_recovery_failed"] = s.metrics.sessionsRecoveryFailed.Load()
		}
		wire.WriteJSON(w, http.StatusOK, resp)
	}
}

// handleMetrics serves GET /metrics as expvar-style text.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.metrics.Write(w)
}
