// Package check is the universal correctness layer for every scheduler
// in the repository. All of them promise the same contract — each task
// completes C_i units of work inside [R_i, D_i], at most m tasks run
// concurrently, and energy is ∫ γ·f^α + p0 over busy time — but each
// realizes it through different machinery. This package enforces the
// contract uniformly:
//
//   - Validate re-derives every constraint from the raw segments alone,
//     without trusting any of the scheduler's own bookkeeping, and
//     re-integrates energy independently by sweeping instantaneous total
//     power over time (rather than summing per-segment energies);
//   - a registry lets every scheduler package self-register a runner, so
//     new schedulers are picked up by the cross-checks without edits here;
//   - Differential runs all registered schedulers on one instance and
//     cross-checks them against the independent oracles already in-tree:
//     the max-flow feasibility test, the convex optimal solver, and (on
//     small instances) the brute-force optimum.
package check

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/numeric"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

// Kind classifies a contract violation.
type Kind string

// Violation kinds. Each names the clause of the scheduling contract that
// was broken.
const (
	// KindSegment marks a malformed segment: unknown task ID, core index
	// outside 0..m-1, or a non-positive duration.
	KindSegment Kind = "segment"
	// KindFrequency marks a non-positive or non-finite frequency.
	KindFrequency Kind = "frequency"
	// KindWindow marks execution outside the task's [R_i, D_i] window.
	KindWindow Kind = "window"
	// KindWork marks a work-conservation failure: Σ f·dt ≠ C_i.
	KindWork Kind = "work"
	// KindConcurrency marks an instant with more than m segments active.
	KindConcurrency Kind = "concurrency"
	// KindCoreOverlap marks two segments sharing one core at one instant.
	KindCoreOverlap Kind = "core-overlap"
	// KindTaskParallel marks one task active on two cores at one instant.
	KindTaskParallel Kind = "task-parallel"
	// KindEnergy marks a reported energy that disagrees with the
	// independent re-integration.
	KindEnergy Kind = "energy"
)

// Violation is one structured contract failure.
type Violation struct {
	Kind Kind
	// Task is the offending task ID, or -1 when the violation is not
	// attributable to a single task.
	Task int
	// Time locates the violation (segment start or sweep instant); NaN
	// when the violation has no time coordinate (e.g. work totals).
	Time   float64
	Detail string
}

func (v Violation) Error() string {
	if v.Task >= 0 {
		return fmt.Sprintf("%s [task %d]: %s", v.Kind, v.Task, v.Detail)
	}
	return fmt.Sprintf("%s: %s", v.Kind, v.Detail)
}

// Options tunes the validator.
type Options struct {
	// Tol is the absolute time/relative work tolerance (default 1e-6).
	Tol float64
	// ReportedEnergy, when non-NaN, is cross-checked against the
	// independent re-integration within EnergyTol.
	ReportedEnergy float64
	// EnergyTol is the relative energy-agreement tolerance (default 1e-5).
	EnergyTol float64
	// AllowOverwork accepts tasks that complete more than C_i (running
	// faster than necessary never breaks timing). Under-work is always a
	// violation.
	AllowOverwork bool
}

// DefaultOptions are the settings used by Validate: strict tolerances,
// overwork allowed, no reported-energy comparison.
func DefaultOptions() Options {
	return Options{Tol: 1e-6, ReportedEnergy: math.NaN(), EnergyTol: 1e-5, AllowOverwork: true}
}

// Result is the full audit output.
type Result struct {
	Violations []Violation
	// Energy is the independent re-integration ∫ Σ_active p(f) dt.
	Energy float64
	// BusyTime is Σ over instants of (number of active segments)·dt.
	BusyTime float64
	// Work[i] is the re-derived completed work of task i.
	Work map[int]float64
}

// OK reports whether the audit found no violations.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// Validate re-derives the scheduling contract from the raw schedule
// alone and returns all violations found. It is the context-free form
// of Audit with DefaultOptions.
func Validate(s *schedule.Schedule, ts task.Set, m int, pm power.Model) []Violation {
	res, _ := Audit(context.Background(), s, ts, m, pm, DefaultOptions()) // Background never ends
	return res.Violations
}

// Audit checks a schedule against the contract of Section III.C using
// only its segments, the task set, the core count, and the power model:
//
//  1. every segment references a known task, a core in 0..m-1, a
//     positive duration, and a positive finite frequency;
//  2. every segment lies inside its task's [R_i, D_i] window;
//  3. sweeping time, at most m segments are active at any instant, no
//     core hosts two segments at once, and no task runs on two cores at
//     once;
//  4. every task's work is conserved: Σ f·dt = C_i within tolerance;
//  5. energy is re-integrated as ∫ Σ_active (γ·f^α + p0) dt and, when
//     Options.ReportedEnergy is set, compared against it.
//
// Unlike schedule.Validate, which audits per-segment bookkeeping, this
// sweep computes every instantaneous quantity from scratch, so the two
// validators fail independently.
//
// Cost: the sweep sorts the segments' start and end points once (a
// radix sort, linear in the S segments) and keeps the set of segments
// active between consecutive endpoints, so an audit takes O(S·m) time
// when at most m segments overlap (O(S·A) when a broken schedule has
// A > m active at once) and O(S + n + m) memory. It is exact, with no
// tolerance rule of its own: every slice
// longer than the Tol·1e-3 sliver floor has both ends on segment
// endpoints, so a segment is active in [lo, hi] exactly when Start ≤ lo
// and End ≥ hi, which is the set the sweep holds.
//
// Audit polls ctx every few thousand sweep steps and returns ctx.Err()
// (and a nil Result) once it is done, so a deadline bounds the audit of
// a very large schedule.
func Audit(ctx context.Context, s *schedule.Schedule, ts task.Set, m int, pm power.Model, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-6
	}
	if opts.EnergyTol <= 0 {
		opts.EnergyTol = 1e-5
	}
	res := &Result{Work: make(map[int]float64, len(ts))}
	add := func(kind Kind, taskID int, t float64, format string, args ...any) {
		res.Violations = append(res.Violations, Violation{
			Kind: kind, Task: taskID, Time: t, Detail: fmt.Sprintf(format, args...),
		})
	}

	// Per-segment structural checks. Segments that fail them are excluded
	// from the sweep so one malformed segment does not cascade.
	sweep := make([]schedule.Segment, 0, len(s.Segments))
	for _, seg := range s.Segments {
		bad := false
		if seg.Task < 0 || seg.Task >= len(ts) {
			add(KindSegment, -1, seg.Start, "segment %v references unknown task (n=%d)", seg, len(ts))
			bad = true
		}
		if seg.Core < 0 || seg.Core >= m {
			add(KindSegment, seg.Task, seg.Start, "segment %v uses core outside 0..%d", seg, m-1)
			bad = true
		}
		if !(seg.End > seg.Start) || math.IsNaN(seg.Start) || math.IsInf(seg.Start, 0) ||
			math.IsNaN(seg.End) || math.IsInf(seg.End, 0) {
			add(KindSegment, seg.Task, seg.Start, "segment %v has non-positive or non-finite duration", seg)
			bad = true
		}
		if !(seg.Frequency > 0) || math.IsInf(seg.Frequency, 0) || math.IsNaN(seg.Frequency) {
			add(KindFrequency, seg.Task, seg.Start, "segment %v has invalid frequency", seg)
			bad = true
		}
		if bad {
			continue
		}
		tk := ts[seg.Task]
		if seg.Start < tk.Release-opts.Tol || seg.End > tk.Deadline+opts.Tol {
			add(KindWindow, seg.Task, seg.Start, "segment %v outside window [%g, %g]", seg, tk.Release, tk.Deadline)
		}
		sweep = append(sweep, seg)
	}

	if err := sweepAudit(ctx, sweep, len(ts), m, pm, opts, res, add); err != nil {
		return nil, err
	}

	// Work conservation, from the sweep's own integration.
	for _, tk := range ts {
		w := res.Work[tk.ID]
		rel := opts.Tol * math.Max(1, tk.Work)
		switch {
		case w < tk.Work-rel:
			add(KindWork, tk.ID, math.NaN(), "completed %g of %g", w, tk.Work)
		case w > tk.Work+rel && !opts.AllowOverwork:
			add(KindWork, tk.ID, math.NaN(), "over-executed: %g of %g", w, tk.Work)
		}
	}

	if !math.IsNaN(opts.ReportedEnergy) {
		diff := math.Abs(opts.ReportedEnergy - res.Energy)
		if diff > opts.EnergyTol*math.Max(1, res.Energy) {
			add(KindEnergy, -1, math.NaN(),
				"reported energy %.9g disagrees with re-integrated %.9g", opts.ReportedEnergy, res.Energy)
		}
	}
	return res, nil
}

// pollEvery is how many sweep steps (segment visits) pass between two
// ctx polls.
const pollEvery = 4096

// live is an active segment with what each slice reads of it.
type live struct {
	seg        int32 // index into the swept segments: the set's order
	core, task int32
	power      float64 // p(f), computed once
	freq       float64
}

// sweepAudit walks the elementary time slices cut at every segment
// boundary, re-deriving concurrency, per-core and per-task exclusivity,
// per-task work, busy time, and the energy integral. segs are
// well-formed (task in 0..n-1, core in 0..m-1, End > Start).
//
// It is an event sweep: segments enter the active set at their start
// point and leave it at their end point, and per-core and per-task
// occupancy is counted as they do. The active set is kept in input
// order, so every Kahan sum adds its terms in the order a rescan of the
// segment list would.
func sweepAudit(ctx context.Context, segs []schedule.Segment, n, m int, pm power.Model, opts Options,
	res *Result, add func(Kind, int, float64, string, ...any)) error {
	if len(segs) == 0 {
		return nil
	}
	buf := make([]numeric.Event, 3*len(segs))
	starts, ends, tmp := buf[:len(segs)], buf[len(segs):2*len(segs)], buf[2*len(segs):]
	for i, seg := range segs {
		starts[i] = numeric.Event{At: seg.Start, Seg: int32(i)}
		ends[i] = numeric.Event{At: seg.End, Seg: int32(i)}
	}
	numeric.SortEvents(starts, tmp)
	numeric.SortEvents(ends, tmp)

	var energy, busy numeric.KahanSum
	work := make([]numeric.KahanSum, n)
	worked := make([]bool, n)
	coreCnt := make([]int32, m)
	taskCnt := make([]int32, n)
	// Violations are reported once per offender, at the first offending
	// slice, rather than once per slice — a long overlap is one bug.
	conReported := false
	coreReported := make([]bool, m)
	taskReported := make([]bool, n)
	// overCores and overTasks count the cores and tasks currently
	// occupied more than once, so a clean slice skips both scans.
	overCores, overTasks := 0, 0
	active := make([]live, 0, m)
	// find returns the position of segment k in the active set, or
	// where it would be inserted.
	find := func(k int32) int {
		i, j := 0, len(active)
		for i < j {
			h := int(uint(i+j) >> 1)
			if active[h].seg < k {
				i = h + 1
			} else {
				j = h
			}
		}
		return i
	}
	floor := opts.Tol * 1e-3

	steps := 0
	lo := starts[0].At
	for si, ei := 0, 0; ei < len(ends); {
		for ; ei < len(ends) && ends[ei].At <= lo; ei++ {
			i := find(ends[ei].Seg)
			l := active[i]
			active = slices.Delete(active, i, i+1)
			if coreCnt[l.core] == 2 {
				overCores--
			}
			coreCnt[l.core]--
			if taskCnt[l.task] == 2 {
				overTasks--
			}
			taskCnt[l.task]--
		}
		for ; si < len(starts) && starts[si].At <= lo; si++ {
			k := starts[si].Seg
			seg := &segs[k]
			l := live{seg: k, core: int32(seg.Core), task: int32(seg.Task), power: pm.Power(seg.Frequency), freq: seg.Frequency}
			active = slices.Insert(active, find(k), l)
			if coreCnt[l.core]++; coreCnt[l.core] == 2 {
				overCores++
			}
			if taskCnt[l.task]++; taskCnt[l.task] == 2 {
				overTasks++
			}
		}
		if ei == len(ends) {
			break
		}
		hi := ends[ei].At
		if si < len(starts) && starts[si].At < hi {
			hi = starts[si].At
		}
		if steps += len(active) + 1; steps >= pollEvery {
			steps = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		dt := hi - lo
		if dt <= floor || len(active) == 0 {
			// Slivers below the tolerance floor carry no measurable work
			// or energy and only amplify float noise.
			lo = hi
			continue
		}
		if len(active) > m && !conReported {
			add(KindConcurrency, -1, lo, "%d segments active during [%g, %g] on %d cores", len(active), lo, hi, m)
			conReported = true
		}
		for _, l := range active {
			energy.Add(l.power * dt)
			busy.Add(dt)
			work[l.task].Add(l.freq * dt)
			worked[l.task] = true
		}
		if overCores > 0 {
			for _, l := range active {
				if c := l.core; coreCnt[c] > 1 && !coreReported[c] {
					add(KindCoreOverlap, -1, lo, "core %d hosts %d segments during [%g, %g]", c, coreCnt[c], lo, hi)
					coreReported[c] = true
				}
			}
		}
		if overTasks > 0 {
			for _, l := range active {
				if id := l.task; taskCnt[id] > 1 && !taskReported[id] {
					add(KindTaskParallel, int(id), lo, "task runs on %d cores during [%g, %g]", taskCnt[id], lo, hi)
					taskReported[id] = true
				}
			}
		}
		lo = hi
	}
	res.Energy = energy.Value()
	res.BusyTime = busy.Value()
	for id := range work {
		if worked[id] {
			res.Work[id] = work[id].Value()
		}
	}
	return nil
}
