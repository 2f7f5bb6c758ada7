package dispatch

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/interval"
	"repro/internal/opt"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/task"
)

const workEps = 1e-9

// liveTask is one admitted task's mutable execution state. Release is
// the *effective* release max(declared release, arrival time): a task
// cannot run before the session learns it exists.
type liveTask struct {
	Release   float64
	Work      float64
	Deadline  float64
	Remaining float64
	ArrivedAt float64
	Completed float64 // NaN until complete
	Shed      bool
}

// Stats is a point-in-time summary of a session.
type Stats struct {
	// Clock is the session's virtual time.
	Clock float64 `json:"clock"`
	// Tasks counts every task ever admitted.
	Tasks int `json:"tasks"`
	// Open counts admitted tasks that are neither complete nor shed
	// (the backlog the Config.Backlog bound applies to).
	Open int `json:"open"`
	// Pending counts admitted tasks awaiting their first re-plan.
	Pending int `json:"pending"`
	// Completed counts tasks that finished their work.
	Completed int `json:"completed"`
	// Shed counts load-shed tasks (backlog, expiry, replan failure).
	Shed int `json:"shed"`
	// Replans and Commits are the cumulative planning/commit episodes.
	Replans int `json:"replans"`
	Commits int `json:"commits"`
	// RealizedEnergy is the energy of the committed prefix.
	RealizedEnergy float64 `json:"realized_energy"`
	// Finished and Closed report lifecycle state.
	Finished bool `json:"finished"`
	Closed   bool `json:"closed"`
}

// FinalReport is the retrospective account of a finished session.
type FinalReport struct {
	// RealizedEnergy is the energy of the full committed schedule.
	RealizedEnergy float64
	// OptimalEnergy is the clairvoyant offline optimum E^opt for the
	// effective instance (every non-shed task at its effective release),
	// computed retroactively; 0 when skipped or failed (see OptError).
	OptimalEnergy float64
	// CompetitiveRatio is RealizedEnergy/OptimalEnergy (0 when the
	// optimum is unavailable): the price the session paid for not
	// knowing the future.
	CompetitiveRatio float64
	// OptError explains an unavailable optimum ("" on success).
	OptError string
	// Replans, Commits, Completed, Shed are the final counters.
	Replans   int
	Commits   int
	Completed int
	Shed      int
	// Missed lists session task IDs (non-shed) that completed after
	// their deadline or never; empty under ReplanDER.
	Missed []int
	// Horizon is the final virtual clock (end of the last commit).
	Horizon float64
	// Tasks is the effective instance, renumbered 0..n-1; TaskIDs maps
	// each back to its session task ID.
	Tasks   task.Set
	TaskIDs []int
	// Schedule is the realized committed schedule over Tasks.
	Schedule *schedule.Schedule
	// Violations lists in-band validator findings against the realized
	// schedule (empty in a correct run). When Finish's ctx ends during
	// the audit, it holds that reason instead: an unaudited schedule is
	// never reported clean.
	Violations []string
	// Sim is the simulator's execution report for the realized schedule
	// (preemptions, migrations, per-core utilization); nil if the
	// simulation itself failed.
	Sim *sim.Report
}

// Session is one live scheduling session. All methods are safe for
// concurrent use.
type Session struct {
	cfg Config

	// flushMu serializes flushes so at most one residual solve runs at a
	// time; the solve itself holds only flushMu, never mu, so arrivals
	// and event subscribers are not blocked behind the solver.
	flushMu sync.Mutex
	// mu guards everything below.
	mu sync.Mutex

	now       float64 // virtual clock
	tasks     []liveTask
	committed []schedule.Segment // immutable realized prefix, times < now at rest
	plan      []schedule.Segment // current plan suffix, times ≥ now
	realized  float64            // energy of committed

	pending         []int // task IDs awaiting their first plan
	pendingAttempts int   // failed solves for the pending batch

	open      int // admitted, neither complete nor shed
	completed int
	shedCount int
	replans   int
	commits   int

	timer    *time.Timer
	timerSet bool

	closed   bool
	finished bool
	final    *FinalReport

	hub *eventHub
	seq int64

	// Journal state: events buffered until their record is durable, the
	// degraded-mode latch, records since the last checkpoint, and the
	// sealed (finish-record-written) latch.
	jbuf     []Event
	jbroken  bool
	jrecords int
	sealed   bool
}

// New creates a session. The zero virtual clock is 0; the first arrival
// batch advances it. With Config.Journal set, the log's create record
// is written before New returns.
func New(cfg Config) (*Session, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Session{cfg: cfg, hub: newEventHub(cfg.History)}
	if cfg.Journal != nil {
		s.cfg.Journal = nil
		if err := s.AttachJournal(cfg.Journal); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Algorithm returns the residual policy label.
func (s *Session) Algorithm() string { return s.cfg.Algorithm }

// Cores returns the session's core count.
func (s *Session) Cores() int { return s.cfg.Cores }

// emitLocked stamps an event and publishes it — or, when the session is
// journaled, buffers it until the covering record is durable (see
// journalLocked), so no subscriber ever observes a seq that a restart
// could reuse. Call with mu held.
func (s *Session) emitLocked(ev Event) {
	ev.Seq = s.seq
	s.seq++
	ev.Clock = s.now
	if ev.Type != EventComplete {
		ev.Task = -1
	}
	if s.cfg.Journal != nil && !s.jbroken {
		s.jbuf = append(s.jbuf, ev)
		return
	}
	s.hub.emit(ev)
}

// shedIDsLocked marks admitted tasks as shed; call with mu held. The
// caller reports the count to Hooks.Shed outside mu.
func (s *Session) shedIDsLocked(ids []int, reason string) {
	for _, id := range ids {
		if !s.tasks[id].Shed {
			s.tasks[id].Shed = true
			s.open--
		}
	}
	s.shedCount += len(ids)
	s.emitLocked(Event{Type: EventShed, Count: len(ids), Reason: reason})
}

func (s *Session) notifyShed(n int) {
	if n > 0 && s.cfg.Hooks.Shed != nil {
		s.cfg.Hooks.Shed(n)
	}
}

// Arrive admits a batch of tasks at virtual time at. The whole batch is
// validated first and rejected with ErrBadArrival if any task is
// malformed or undoable (deadline not after its effective release);
// otherwise tasks are admitted up to the backlog bound and the rest
// shed. With a debounce window the re-plan is deferred so bursts
// coalesce; otherwise the batch is planned before Arrive returns.
func (s *Session) Arrive(ctx context.Context, at float64, batch task.Set) (admitted, shed int, err error) {
	if len(batch) == 0 {
		return 0, 0, nil
	}
	if math.IsNaN(at) || math.IsInf(at, 0) || at < 0 {
		return 0, 0, fmt.Errorf("%w: arrival time %g", ErrBadArrival, at)
	}
	for _, tk := range batch {
		for _, v := range []float64{tk.Release, tk.Work, tk.Deadline} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, 0, fmt.Errorf("%w: non-finite task parameter", ErrBadArrival)
			}
		}
		if !(tk.Work > 0) {
			return 0, 0, fmt.Errorf("%w: work %g must be positive", ErrBadArrival, tk.Work)
		}
		if eff := math.Max(tk.Release, at); tk.Deadline <= eff {
			return 0, 0, fmt.Errorf("%w: deadline %g not after effective release %g", ErrBadArrival, tk.Deadline, eff)
		}
	}

	s.mu.Lock()
	if s.closed || s.finished {
		s.mu.Unlock()
		return 0, 0, ErrSessionClosed
	}
	if at < s.now {
		// The clock never runs backwards: a late-reported arrival is
		// admitted "now".
		at = s.now
	}
	room := s.cfg.Backlog - s.open
	if room < 0 {
		room = 0
	}
	admitted = len(batch)
	if admitted > room {
		admitted = room
	}
	shed = len(batch) - admitted
	for _, tk := range batch[:admitted] {
		id := len(s.tasks)
		s.tasks = append(s.tasks, liveTask{
			Release:   math.Max(tk.Release, at),
			Work:      tk.Work,
			Deadline:  tk.Deadline,
			Remaining: tk.Work,
			ArrivedAt: at,
			Completed: math.NaN(),
		})
		s.pending = append(s.pending, id)
	}
	s.open += admitted
	if shed > 0 {
		s.shedCount += shed
		s.emitLocked(Event{Type: EventShed, Count: shed, Reason: "backlog"})
	}
	if s.cfg.Journal != nil && (admitted > 0 || shed > 0) {
		rec := &Record{Kind: RecArrival, ArrivedAt: at, Count: shed}
		if admitted > 0 {
			rec.Tasks = make([]TaskState, admitted)
			for i, lt := range s.tasks[len(s.tasks)-admitted:] {
				rec.Tasks[i] = TaskState{
					Release:   lt.Release,
					Work:      lt.Work,
					Deadline:  lt.Deadline,
					Remaining: lt.Remaining,
					ArrivedAt: lt.ArrivedAt,
				}
			}
		}
		// The batch is durable before Arrive returns: the admission ack
		// the caller sends is backed by the log per the fsync policy.
		s.journalLocked(rec)
	}
	debounced := s.cfg.Debounce > 0
	if debounced && admitted > 0 && !s.timerSet {
		s.timerSet = true
		s.timer = time.AfterFunc(s.cfg.Debounce, s.timerFlush)
	}
	s.mu.Unlock()

	s.notifyShed(shed)
	if !debounced && admitted > 0 {
		if err := s.Flush(ctx); err != nil {
			return admitted, shed, err
		}
	}
	return admitted, shed, nil
}

// timerFlush fires when a debounce window closes.
func (s *Session) timerFlush() {
	s.mu.Lock()
	s.timerSet = false
	dead := s.closed || s.finished
	s.mu.Unlock()
	if dead {
		return
	}
	_ = s.Flush(context.Background())
}

// Flush drains every pending arrival batch through commit + re-plan.
// It returns once no arrivals are pending (including ones admitted
// while a solve was in flight), the context is canceled, or the session
// is closed. Solve failures are retried up to MaxRetries and then shed;
// they never surface as a Flush error.
func (s *Session) Flush(ctx context.Context) error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	return s.flushLocked(ctx)
}

// flushLocked is Flush with flushMu already held.
func (s *Session) flushLocked(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return ErrSessionClosed
		}
		if s.finished || len(s.pending) == 0 {
			s.mu.Unlock()
			return nil
		}
		// The admission instant is the latest arrival in the coalesced
		// batch: everything the session "executed" before it is frozen.
		t1 := s.now
		for _, id := range s.pending {
			if a := s.tasks[id].ArrivedAt; a > t1 {
				t1 = a
			}
		}
		prevNow := s.now
		done, deltas := s.commitToLocked(t1)
		if s.cfg.Journal != nil && (len(done) > 0 || s.now > prevNow) {
			s.journalLocked(&Record{Kind: RecCommit, Segments: done, Deltas: deltas})
		}
		// Pending tasks whose window closed inside the debounce gap can
		// no longer run; shed them rather than poison the residual.
		batch := make([]int, 0, len(s.pending))
		var expired []int
		for _, id := range s.pending {
			if s.tasks[id].Deadline <= t1+s.cfg.Tolerance {
				expired = append(expired, id)
			} else {
				batch = append(batch, id)
			}
		}
		s.pending = nil
		shedN := len(expired)
		if shedN > 0 {
			s.shedIDsLocked(expired, "expired")
			if s.cfg.Journal != nil {
				s.journalLocked(&Record{Kind: RecShed, ShedIDs: expired, Count: shedN, Reason: "expired"})
			}
		}
		if len(batch) == 0 {
			s.pendingAttempts = 0
			s.mu.Unlock()
			s.notifyShed(shedN)
			continue
		}
		residual, ids := s.residualLocked()
		attempts := s.pendingAttempts
		solve, m, pm := s.cfg.Solve, s.cfg.Cores, s.cfg.Model
		s.mu.Unlock()
		s.notifyShed(shedN)

		start := time.Now()
		plan, _, err := solve(ctx, residual, m, pm)
		latency := time.Since(start)
		if s.cfg.Hooks.Replan != nil {
			s.cfg.Hooks.Replan(latency, err)
		}

		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return ErrSessionClosed
		}
		if err != nil {
			s.emitLocked(Event{Type: EventError, Reason: err.Error()})
			if attempts+1 > s.cfg.MaxRetries {
				// Out of retries: shed the batch so the session never
				// wedges. Previously planned tasks keep the old plan
				// suffix and still complete.
				s.shedIDsLocked(batch, "replan-failed")
				if s.cfg.Journal != nil {
					s.journalLocked(&Record{Kind: RecShed, ShedIDs: batch, Count: len(batch), Reason: "replan-failed"})
				}
				s.pendingAttempts = 0
				s.mu.Unlock()
				s.notifyShed(len(batch))
				continue
			}
			s.pendingAttempts = attempts + 1
			s.pending = append(batch, s.pending...)
			if s.cfg.Journal != nil {
				s.journalLocked(&Record{Kind: RecError, Reason: err.Error()})
			}
			s.mu.Unlock()
			continue
		}
		s.pendingAttempts = 0
		s.installPlanLocked(plan, ids, len(batch), latency)
		if s.cfg.Journal != nil {
			s.journalLocked(&Record{Kind: RecReplan, Count: len(batch)})
		}
		s.mu.Unlock()
	}
}

// commitToLocked freezes the plan prefix before t1 as committed
// segments, realizes its energy and completions, and advances the
// clock. It returns the newly committed segments (time-ordered) and the
// execution-state deltas of every task they touched, which the journal
// persists as one RecCommit. Call with mu held.
func (s *Session) commitToLocked(t1 float64) ([]schedule.Segment, []CommitDelta) {
	if t1 < s.now {
		t1 = s.now
	}
	eps := s.cfg.Tolerance
	var done []schedule.Segment
	keep := make([]schedule.Segment, 0, len(s.plan))
	for _, seg := range s.plan {
		switch {
		case seg.Start >= t1-eps:
			keep = append(keep, seg)
		case seg.End <= t1+eps:
			done = append(done, seg)
		default:
			head, tail := seg, seg
			head.End, tail.Start = t1, t1
			done = append(done, head)
			keep = append(keep, tail)
		}
	}
	s.plan = keep
	// Completions must be observed in time order.
	slices.SortFunc(done, func(a, b schedule.Segment) int {
		switch {
		case a.Start < b.Start:
			return -1
		case a.Start > b.Start:
			return 1
		default:
			return 0
		}
	})
	deltaAt := make(map[int]int)
	var deltas []CommitDelta
	for _, seg := range done {
		dur := seg.End - seg.Start
		s.realized += s.cfg.Model.EnergyForTime(dur, seg.Frequency)
		lt := &s.tasks[seg.Task]
		work := seg.Frequency * dur
		if lt.Remaining <= work+workEps && math.IsNaN(lt.Completed) {
			ct := seg.Start + lt.Remaining/seg.Frequency
			if ct > seg.End {
				ct = seg.End
			}
			lt.Completed = ct
			s.completed++
			s.open--
			s.emitLocked(Event{Type: EventComplete, Task: seg.Task, Completed: ct})
		}
		lt.Remaining = math.Max(0, lt.Remaining-work)
		i, ok := deltaAt[seg.Task]
		if !ok {
			i = len(deltas)
			deltaAt[seg.Task] = i
			deltas = append(deltas, CommitDelta{Task: seg.Task})
		}
		deltas[i].Remaining = lt.Remaining
		if !math.IsNaN(lt.Completed) {
			deltas[i].Done = true
			deltas[i].CompletedAt = lt.Completed
		}
	}
	s.committed = append(s.committed, done...)
	if t1 > s.now {
		s.now = t1
	}
	if len(done) > 0 {
		s.commits++
		s.emitLocked(Event{Type: EventCommit, Count: len(done), Energy: s.realized})
	}
	return done, deltas
}

// residualLocked projects the live workload onto a fresh instance for
// the solver: every unfinished, non-shed task with its remaining work,
// released no earlier than now. Call with mu held. ids maps residual
// task IDs back to session task IDs.
func (s *Session) residualLocked() (task.Set, []int) {
	var residual task.Set
	var ids []int
	for i := range s.tasks {
		lt := &s.tasks[i]
		if lt.Shed || lt.Remaining <= workEps {
			continue
		}
		residual = append(residual, task.Task{
			ID:       len(residual),
			Release:  math.Max(lt.Release, s.now),
			Work:     lt.Remaining,
			Deadline: lt.Deadline,
		})
		ids = append(ids, i)
	}
	return residual, ids
}

// installPlanLocked replaces the plan suffix with a fresh residual
// solution, remapping solver task IDs to session IDs. Call with mu held.
func (s *Session) installPlanLocked(plan *schedule.Schedule, ids []int, batchN int, latency time.Duration) {
	s.plan = s.plan[:0]
	for _, seg := range plan.Segments {
		if seg.Task < 0 || seg.Task >= len(ids) {
			continue // unreachable behind the validator guardrail
		}
		seg.Task = ids[seg.Task]
		s.plan = append(s.plan, seg)
	}
	s.replans++
	s.emitLocked(Event{
		Type:      EventReplan,
		Count:     batchN,
		Replans:   s.replans,
		LatencyMS: latency.Seconds() * 1e3,
	})
}

// Finish runs the session to its horizon: drains pending arrivals,
// commits the entire remaining plan, validates the realized schedule
// in-band, simulates it, and accounts it against the clairvoyant
// offline optimum. Idempotent; later arrivals are rejected. The session
// stays open (events and reads work) until Close.
func (s *Session) Finish(ctx context.Context) (*FinalReport, error) {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	for {
		if err := s.flushLocked(ctx); err != nil {
			return nil, err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, ErrSessionClosed
		}
		if s.finished {
			f := s.final
			s.mu.Unlock()
			return f, nil
		}
		if len(s.pending) == 0 {
			break // mu stays held
		}
		s.mu.Unlock()
	}
	s.finished = true
	horizon := s.now
	for _, seg := range s.plan {
		if seg.End > horizon {
			horizon = seg.End
		}
	}
	prevNow := s.now
	done, deltas := s.commitToLocked(horizon)
	if s.cfg.Journal != nil && (len(done) > 0 || s.now > prevNow) {
		s.journalLocked(&Record{Kind: RecCommit, Segments: done, Deltas: deltas})
	}

	f := &FinalReport{
		RealizedEnergy: s.realized,
		Replans:        s.replans,
		Commits:        s.commits,
		Completed:      s.completed,
		Shed:           s.shedCount,
		Horizon:        s.now,
	}
	// Effective instance: every non-shed task at its effective release.
	effID := make([]int, len(s.tasks))
	for i := range s.tasks {
		effID[i] = -1
		lt := &s.tasks[i]
		if lt.Shed {
			continue
		}
		effID[i] = len(f.Tasks)
		f.Tasks = append(f.Tasks, task.Task{
			ID:       len(f.Tasks),
			Release:  lt.Release,
			Work:     lt.Work,
			Deadline: lt.Deadline,
		})
		f.TaskIDs = append(f.TaskIDs, i)
		if math.IsNaN(lt.Completed) || lt.Completed > lt.Deadline+1e-6 {
			f.Missed = append(f.Missed, i)
		}
	}
	f.Schedule = schedule.New(f.Tasks, s.cfg.Cores)
	f.Schedule.Grow(len(s.committed))
	for _, seg := range s.committed {
		if id := effID[seg.Task]; id >= 0 {
			seg.Task = id
			f.Schedule.Add(seg)
		}
	}
	skipRatio := s.cfg.SkipRatio
	m, pm := s.cfg.Cores, s.cfg.Model
	// The retrospective accounting below can be expensive; release mu so
	// reads and subscribers stay live. finished=true keeps every mutation
	// path out, flushMu is still held, and s.final is only published once
	// f stops changing.
	s.mu.Unlock()

	if len(f.Tasks) > 0 {
		if audit, err := check.Audit(ctx, f.Schedule, f.Tasks, m, pm, check.DefaultOptions()); err != nil {
			f.Violations = append(f.Violations, "check: audit aborted: "+err.Error())
		} else {
			for _, v := range audit.Violations {
				f.Violations = append(f.Violations, v.Error())
			}
		}
		if rep, err := sim.Run(f.Schedule, pm); err != nil {
			f.Violations = append(f.Violations, "sim: "+err.Error())
		} else {
			f.Sim = rep
			f.Violations = append(f.Violations, rep.Violations...)
		}
		if skipRatio {
			f.OptError = "skipped"
		} else if d, err := interval.Decompose(f.Tasks, 1e-9); err != nil {
			f.OptError = err.Error()
		} else if sol, err := opt.Solve(d, m, pm, opt.Options{Context: ctx}); err != nil {
			f.OptError = err.Error()
		} else {
			f.OptimalEnergy = sol.Energy
			if sol.Energy > 0 {
				f.CompetitiveRatio = f.RealizedEnergy / sol.Energy
			}
		}
	}

	s.mu.Lock()
	s.final = f
	s.emitLocked(Event{
		Type:    EventFinal,
		Energy:  f.RealizedEnergy,
		Ratio:   f.CompetitiveRatio,
		Replans: f.Replans,
	})
	if s.cfg.Journal != nil {
		if !s.sealed {
			s.sealed = true
			s.journalLocked(&Record{Kind: RecFinish, Reason: "finished"})
		} else {
			s.publishBufferedLocked()
		}
	}
	s.mu.Unlock()
	return f, nil
}

// Close tears the session down: the debounce timer is stopped and every
// event stream is closed. Work already committed stays readable.
// Idempotent.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.timer != nil {
		s.timer.Stop()
	}
	s.hub.close()
}

// Subscribe attaches an event consumer. The retained history is
// replayed first, then live events follow; the channel is closed when
// the session closes. cancel detaches early (safe after close).
func (s *Session) Subscribe() (events <-chan Event, cancel func(), err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, ErrSessionClosed
	}
	sub, replay := s.hub.subscribe()
	for _, ev := range replay {
		sub.ch <- ev // capacity ≥ history: never blocks
	}
	cancel = func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if !s.closed {
			s.hub.unsubscribe(sub)
		}
	}
	return sub.ch, cancel, nil
}

// Stats returns a point-in-time summary.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Clock:          s.now,
		Tasks:          len(s.tasks),
		Open:           s.open,
		Pending:        len(s.pending),
		Completed:      s.completed,
		Shed:           s.shedCount,
		Replans:        s.replans,
		Commits:        s.commits,
		RealizedEnergy: s.realized,
		Finished:       s.finished,
		Closed:         s.closed,
	}
}

// Now returns the virtual clock.
func (s *Session) Now() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Committed returns a copy of the immutable realized prefix. Segment
// Task fields are session task IDs.
func (s *Session) Committed() []schedule.Segment {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.committed)
}

// Plan returns a copy of the current plan suffix (times ≥ Now).
func (s *Session) Plan() []schedule.Segment {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.plan)
}

// Final returns the finish-time report, or nil before Finish.
func (s *Session) Final() *FinalReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.final
}
