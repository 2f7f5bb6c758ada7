package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/check"
	"repro/internal/dispatch"
	"repro/internal/journal"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/server/wire"
	"repro/internal/task"
)

// sessionSolve adapts the server's verified solve pipeline into a
// dispatch.SolveFunc: every residual re-plan of a streaming session
// passes the same admission gate, per-attempt timeout, fault-injection
// points, validator guardrail, and per-algorithm circuit breaker as a
// one-shot POST /v1/schedule. There is no fallback chain here — a
// failed residual solve is the session's to retry or shed, and swapping
// policies mid-session would corrupt its energy accounting.
func (s *Server) sessionSolve(algorithm string) (dispatch.SolveFunc, error) {
	entry, ok := check.Lookup(algorithm)
	if !ok {
		return nil, fmt.Errorf("%w %q (have %v)", errUnknownAlgorithm, algorithm, check.Names())
	}
	return func(ctx context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
		br := s.breakers.Get(algorithm)
		allowed, probe := br.Admit()
		if !allowed {
			s.metrics.breakerDenials.Add(1)
			return nil, 0, fmt.Errorf("%w for algorithm %q", errBreakerOpen, algorithm)
		}
		req := &wire.ScheduleRequest{Algorithm: algorithm, Cores: m, Tasks: ts}
		res, status, err := s.runVerified(ctx, entry, req, pm, false)
		if err == nil {
			br.Success()
			return res.sched, res.energy, nil
		}
		switch {
		case breakerCountable(status, err):
			br.Failure()
		case probe:
			br.ProbeAborted()
		}
		return nil, 0, err
	}, nil
}

// sessionHooks wires a session's replan/shed observations into the
// server metrics.
func (s *Server) sessionHooks() dispatch.Hooks {
	return dispatch.Hooks{
		Replan: func(latency time.Duration, err error) {
			s.metrics.sessionReplans.Add(1)
			s.metrics.replanMS.Observe(float64(latency) / float64(time.Millisecond))
			if err != nil {
				s.metrics.sessionReplanErrors.Add(1)
			}
		},
		Shed: func(n int) { s.metrics.sessionSheds.Add(int64(n)) },
		// Called with the session mutex held: log only, never call back
		// into the session. Fires once, when the journal first breaks.
		JournalError: func(err error) {
			s.cfg.Logger.Printf("msg=%q err=%q", "session journal degraded", err.Error())
		},
	}
}

// handleSessionCreate serves POST /v1/sessions.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		wire.RetryAfter(w, 1)
		s.metrics.draining.Add(1)
		wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeDraining, "server is draining")
		return
	}
	var req wire.SessionCreateRequest
	if err := wire.DecodeRequest(w, r, maxBodyBytes, &req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	if req.Cores <= 0 {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "cores must be >= 1, have %d", req.Cores)
		return
	}
	pm, err := req.Model.Model()
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	algorithm := req.Algorithm
	if algorithm == "" {
		algorithm = dispatch.DefaultAlgorithm
	}
	solve, err := s.sessionSolve(algorithm)
	if err != nil {
		writeErrorFor(w, http.StatusNotFound, err)
		return
	}
	if req.DebounceMS < 0 || req.Backlog < 0 {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "debounce_ms and backlog must be non-negative")
		return
	}
	backlog := req.Backlog
	if backlog == 0 {
		backlog = s.cfg.SessionBacklog
	}
	if backlog > s.cfg.MaxTasks {
		backlog = s.cfg.MaxTasks
	}
	cfg := dispatch.Config{
		Algorithm: algorithm,
		Cores:     req.Cores,
		Model:     pm,
		Debounce:  time.Duration(req.DebounceMS * float64(time.Millisecond)),
		Backlog:   backlog,
		Solve:     solve,
		Hooks:     s.sessionHooks(),
		SkipRatio: req.SkipRatio,
	}
	var id string
	if st := s.journalStore(); st != nil {
		// Journaled create: the ID names the log directory, so it must
		// exist before the session (whose first append is the create
		// record) is built.
		id = req.ID
		if id == "" {
			id = dispatch.NewID()
		}
		var jw *journal.Writer
		jw, err = st.Writer(id)
		switch {
		case errors.Is(err, journal.ErrWriterOpen):
			err = fmt.Errorf("%w: %s", dispatch.ErrDuplicateSession, id)
		case err != nil:
			wire.WriteError(w, http.StatusInternalServerError, wire.CodeInternal, "journal: %v", err)
			return
		default:
			cfg.Journal = s.metered(jw)
			var sess *dispatch.Session
			sess, err = dispatch.New(cfg)
			if err == nil {
				if err = s.sessions.Adopt(id, sess); err != nil {
					sess.Close()
				}
			}
			if err != nil {
				jw.Close()
				_ = st.Remove(id)
			} else {
				s.trackWriter(id, jw)
			}
		}
	} else if req.ID != "" {
		// Caller-fixed ID (the cluster router's shard placement): build
		// the session, then adopt it under exactly that ID.
		var sess *dispatch.Session
		sess, err = dispatch.New(cfg)
		if err == nil {
			id = req.ID
			if err = s.sessions.Adopt(id, sess); err != nil {
				sess.Close()
			}
		}
	} else {
		id, _, err = s.sessions.Create(cfg)
	}
	switch {
	case errors.Is(err, dispatch.ErrTooManySessions):
		wire.RetryAfter(w, 1)
		writeErrorFor(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, dispatch.ErrDuplicateSession):
		writeErrorFor(w, http.StatusConflict, err)
		return
	case errors.Is(err, dispatch.ErrSessionClosed): // manager draining
		wire.RetryAfter(w, 1)
		wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeDraining, "server is draining")
		return
	case err != nil:
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	s.metrics.sessionsOpened.Add(1)
	s.cfg.Logger.Printf("msg=%q session=%s algorithm=%q cores=%d backlog=%d",
		"session created", id, algorithm, req.Cores, backlog)
	wire.WriteJSON(w, http.StatusCreated, wire.SessionCreateResponse{
		Version:   wire.Version,
		ID:        id,
		Algorithm: algorithm,
		Cores:     req.Cores,
		Backlog:   backlog,
	})
}

// session resolves the {id} path value, writing 404 when unknown.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (string, *dispatch.Session) {
	id := r.PathValue("id")
	sess := s.sessions.Get(id)
	if sess == nil {
		wire.WriteError(w, http.StatusNotFound, wire.CodeNotFound, "unknown session %q", id)
		return id, nil
	}
	return id, sess
}

// handleSessionArrive serves POST /v1/sessions/{id}/tasks: admit one
// arrival batch at virtual time `at`. A fully-shed batch answers 429 so
// clients experience backlog pushback exactly like admission-queue
// overload; partial admission is a 200 reporting both counts.
func (s *Server) handleSessionArrive(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		wire.RetryAfter(w, 1)
		s.metrics.draining.Add(1)
		wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeDraining, "server is draining")
		return
	}
	_, sess := s.session(w, r)
	if sess == nil {
		return
	}
	var req wire.ArrivalRequest
	if err := wire.DecodeRequest(w, r, maxBodyBytes, &req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	if len(req.Tasks) == 0 {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "arrival batch is empty")
		return
	}
	if s.cfg.MaxTasks > 0 && len(req.Tasks) > s.cfg.MaxTasks {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest,
			"arrival batch has %d tasks, limit is %d", len(req.Tasks), s.cfg.MaxTasks)
		return
	}
	// Batch task IDs are positional; the session assigns its own.
	req.Tasks.Renumber()
	admitted, shed, err := sess.Arrive(r.Context(), req.At, req.Tasks)
	switch {
	case errors.Is(err, dispatch.ErrBadArrival):
		writeErrorFor(w, http.StatusBadRequest, err)
		return
	case errors.Is(err, dispatch.ErrSessionClosed):
		wire.WriteError(w, http.StatusConflict, wire.CodeSessionClosed, "session already finished")
		return
	case err != nil:
		wire.WriteError(w, statusForCtxErr(err), errorCode(statusForCtxErr(err), err), "arrival interrupted: %v", err)
		return
	}
	s.metrics.sessionArrivals.Add(int64(admitted))
	resp := wire.ArrivalResponse{Admitted: admitted, Shed: shed, Stats: sess.Stats()}
	if admitted == 0 && shed > 0 {
		// Backlog pushback: same contract as admission-queue overload.
		s.metrics.overload.Add(1)
		wire.RetryAfter(w, 1)
		wire.WriteJSON(w, http.StatusTooManyRequests, resp)
		return
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

// handleSessionSchedule serves GET /v1/sessions/{id}/schedule. Pending
// arrivals are flushed first so the answer is deterministic: everything
// admitted so far is either committed or planned.
func (s *Server) handleSessionSchedule(w http.ResponseWriter, r *http.Request) {
	id, sess := s.session(w, r)
	if sess == nil {
		return
	}
	if err := sess.Flush(r.Context()); err != nil && !errors.Is(err, dispatch.ErrSessionClosed) {
		wire.WriteError(w, statusForCtxErr(err), errorCode(statusForCtxErr(err), err), "flush interrupted: %v", err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, wire.SessionScheduleResponse{
		Version:   wire.Version,
		ID:        id,
		Algorithm: sess.Algorithm(),
		Cores:     sess.Cores(),
		Stats:     sess.Stats(),
		Committed: segmentsToWire(sess.Committed()),
		Planned:   segmentsToWire(sess.Plan()),
	})
}

// handleSessionDelete serves DELETE /v1/sessions/{id}: run the session
// to its horizon, account it against the clairvoyant optimum, tear the
// streams down, and return the final report.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id, sess := s.session(w, r)
	if sess == nil {
		return
	}
	f, err := sess.Finish(r.Context())
	if err != nil {
		// Context died mid-finish: the session survives for a retry.
		wire.WriteError(w, statusForCtxErr(err), errorCode(statusForCtxErr(err), err), "finish interrupted: %v", err)
		return
	}
	s.sessions.Remove(id)
	// The Finish above journaled the finish record; the session is fully
	// accounted, so its log is garbage now.
	s.dropJournal(id, true)
	s.metrics.sessionsClosed.Add(1)
	s.cfg.Logger.Printf("msg=%q session=%s energy=%g ratio=%g replans=%d completed=%d shed=%d",
		"session finished", id, f.RealizedEnergy, f.CompetitiveRatio, f.Replans, f.Completed, f.Shed)
	resp := wire.SessionFinalResponse{
		Version:          wire.Version,
		ID:               id,
		Algorithm:        sess.Algorithm(),
		Cores:            sess.Cores(),
		RealizedEnergy:   f.RealizedEnergy,
		OptimalEnergy:    f.OptimalEnergy,
		CompetitiveRatio: f.CompetitiveRatio,
		OptError:         f.OptError,
		Replans:          f.Replans,
		Commits:          f.Commits,
		Completed:        f.Completed,
		Shed:             f.Shed,
		Missed:           f.Missed,
		Horizon:          f.Horizon,
		Violations:       f.Violations,
		Tasks:            f.Tasks,
		Sim:              wire.SimReport(f.Sim),
	}
	if f.Schedule != nil {
		resp.Segments = wire.Segments(f.Schedule)
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

// handleSessionEvents serves GET /v1/sessions/{id}/events as a
// Server-Sent-Events stream: the session's retained history replays
// first, then live events follow until the client disconnects or the
// session closes (DELETE, TTL eviction, drain) — which ends the stream
// cleanly.
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	_, sess := s.session(w, r)
	if sess == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		wire.WriteError(w, http.StatusInternalServerError, wire.CodeInternal, "streaming unsupported by connection")
		return
	}
	events, cancel, err := sess.Subscribe()
	if err != nil {
		wire.WriteError(w, http.StatusConflict, wire.CodeSessionClosed, "session closed")
		return
	}
	defer cancel()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-events:
			if !ok {
				// Session closed: emit a terminal comment so clients can
				// distinguish a graceful end from a dropped connection.
				fmt.Fprintf(w, ": stream closed\n\n")
				flusher.Flush()
				return
			}
			// The id is 1-based (Seq+1) to match the router's renumbered
			// streams: clients can assert gapless ids 1,2,3,... against
			// either tier.
			data, err := json.Marshal(ev)
			if err != nil || wire.WriteEvent(w, ev.Seq+1, string(ev.Type), data) != nil {
				return // client went away mid-write
			}
			flusher.Flush()
		}
	}
}

// handleSessionSnapshot serves GET /v1/sessions/{id}/snapshot: a
// portable point-in-time capture of the session (clock, committed
// prefix, per-task residual work, event sequence), restorable on any
// backend via POST /v1/sessions/restore. The session keeps running;
// pending arrivals are flushed first so the snapshot never contains an
// unplanned batch.
func (s *Server) handleSessionSnapshot(w http.ResponseWriter, r *http.Request) {
	id, sess := s.session(w, r)
	if sess == nil {
		return
	}
	snap, err := sess.Snapshot(r.Context())
	switch {
	case errors.Is(err, dispatch.ErrSessionClosed):
		wire.WriteError(w, http.StatusConflict, wire.CodeSessionClosed, "session already finished")
		return
	case err != nil:
		wire.WriteError(w, statusForCtxErr(err), errorCode(statusForCtxErr(err), err), "snapshot interrupted: %v", err)
		return
	}
	s.metrics.sessionSnapshots.Add(1)
	wire.WriteJSON(w, http.StatusOK, wire.SessionSnapshotResponse{
		Version:  wire.Version,
		ID:       id,
		Snapshot: snap,
	})
}

// handleSessionRestore serves POST /v1/sessions/restore: rebuild a live
// session from a snapshot under its original ID. The restored session
// runs through the same verified solve pipeline (admission gate,
// breaker, guardrail) as natively created ones; its unfinished residual
// is re-planned before the response is written, so a follow-up arrival
// or SSE subscribe sees a session that is already live.
func (s *Server) handleSessionRestore(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		wire.RetryAfter(w, 1)
		s.metrics.draining.Add(1)
		wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeDraining, "server is draining")
		return
	}
	var req wire.SessionRestoreRequest
	if err := wire.DecodeRequest(w, r, maxBodyBytes, &req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	if req.ID == "" {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "restore requires the original session id")
		return
	}
	if req.Snapshot == nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "restore requires a snapshot")
		return
	}
	if req.DebounceMS < 0 || req.Backlog < 0 {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "debounce_ms and backlog must be non-negative")
		return
	}
	solve, err := s.sessionSolve(req.Snapshot.Algorithm)
	if err != nil {
		writeErrorFor(w, http.StatusNotFound, err)
		return
	}
	backlog := req.Backlog
	if backlog == 0 {
		backlog = s.cfg.SessionBacklog
	}
	if backlog > s.cfg.MaxTasks {
		backlog = s.cfg.MaxTasks
	}
	rcfg := dispatch.Config{
		Debounce:  time.Duration(req.DebounceMS * float64(time.Millisecond)),
		Backlog:   backlog,
		Solve:     solve,
		Hooks:     s.sessionHooks(),
		SkipRatio: req.SkipRatio,
	}
	var jw *journal.Writer
	if st := s.journalStore(); st != nil {
		var jerr error
		jw, jerr = st.Writer(req.ID)
		switch {
		case errors.Is(jerr, journal.ErrWriterOpen):
			writeErrorFor(w, http.StatusConflict, fmt.Errorf("%w: %s", dispatch.ErrDuplicateSession, req.ID))
			return
		case jerr != nil:
			wire.WriteError(w, http.StatusInternalServerError, wire.CodeInternal, "journal: %v", jerr)
			return
		}
		// Restore attaches the journal only after the snapshot state is in
		// place: the log's first record is a checkpoint of that state.
		rcfg.Journal = s.metered(jw)
	}
	sess, err := dispatch.Restore(r.Context(), req.Snapshot, rcfg)
	if err != nil {
		if jw != nil {
			jw.Close()
		}
		wire.WriteError(w, http.StatusUnprocessableEntity, wire.CodeUnprocessable, "restore failed: %v", err)
		return
	}
	if err := s.sessions.Adopt(req.ID, sess); err != nil {
		sess.Close()
		if jw != nil {
			jw.Close()
		}
		switch {
		case errors.Is(err, dispatch.ErrDuplicateSession):
			writeErrorFor(w, http.StatusConflict, err)
		case errors.Is(err, dispatch.ErrTooManySessions):
			wire.RetryAfter(w, 1)
			writeErrorFor(w, http.StatusTooManyRequests, err)
		default:
			wire.RetryAfter(w, 1)
			wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeDraining, "server is draining")
		}
		return
	}
	if jw != nil {
		s.trackWriter(req.ID, jw)
	}
	s.metrics.sessionsOpened.Add(1)
	s.metrics.sessionsRestored.Add(1)
	s.cfg.Logger.Printf("msg=%q session=%s algorithm=%q cores=%d seq=%d",
		"session restored", req.ID, req.Snapshot.Algorithm, req.Snapshot.Cores, req.Snapshot.Seq)
	wire.WriteJSON(w, http.StatusCreated, wire.SessionCreateResponse{
		Version:   wire.Version,
		ID:        req.ID,
		Algorithm: req.Snapshot.Algorithm,
		Cores:     req.Snapshot.Cores,
		Backlog:   backlog,
	})
}

// segmentsToWire converts raw segments (session committed/planned
// slices) to the wire form.
func segmentsToWire(segs []schedule.Segment) []wire.SegmentJSON {
	out := make([]wire.SegmentJSON, len(segs))
	for i, seg := range segs {
		out[i] = wire.SegmentJSON{
			Task: seg.Task, Core: seg.Core,
			Start: seg.Start, End: seg.End, Frequency: seg.Frequency,
		}
	}
	return out
}
