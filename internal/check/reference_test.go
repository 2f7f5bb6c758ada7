package check

// The reference oracle of the differential test: Audit as it was before
// the event sweep, with its sweep rescanning every segment for every
// elementary time slice (O(slices × segments), two maps per slice). It
// is kept unchanged apart from its names, so the production sweep is
// checked against an independent implementation.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/numeric"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

// ReferenceAudit exposes the reference oracle to the external tests.
var ReferenceAudit = referenceAudit

func referenceAudit(s *schedule.Schedule, ts task.Set, m int, pm power.Model, opts Options) *Result {
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

	referenceSweep(sweep, ts, m, pm, opts, res, add)

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
	return res
}

// referenceSweep walks the elementary time slices cut at every segment
// boundary, re-deriving concurrency, per-core and per-task exclusivity,
// per-task work, busy time, and the energy integral. It rescans every
// segment for every slice.
func referenceSweep(segs []schedule.Segment, ts task.Set, m int, pm power.Model, opts Options,
	res *Result, add func(Kind, int, float64, string, ...any)) {
	if len(segs) == 0 {
		return
	}
	pts := make([]float64, 0, 2*len(segs))
	for _, seg := range segs {
		pts = append(pts, seg.Start, seg.End)
	}
	sort.Float64s(pts)
	uniq := pts[:0]
	for _, p := range pts {
		if len(uniq) == 0 || p > uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}

	var energy, busy numeric.KahanSum
	work := make(map[int]*numeric.KahanSum, len(ts))
	// Violations are reported once per offender, at the first offending
	// slice, rather than once per slice — a long overlap is one bug.
	conReported := false
	coreReported := make(map[int]bool)
	taskReported := make(map[int]bool)

	for k := 0; k+1 < len(uniq); k++ {
		lo, hi := uniq[k], uniq[k+1]
		dt := hi - lo
		if dt <= opts.Tol*1e-3 {
			// Slivers below the tolerance floor carry no measurable work
			// or energy and only amplify float noise.
			continue
		}
		var active []schedule.Segment
		for _, seg := range segs {
			if seg.Start <= lo+opts.Tol*1e-3 && seg.End >= hi-opts.Tol*1e-3 {
				active = append(active, seg)
			}
		}
		if len(active) > m && !conReported {
			add(KindConcurrency, -1, lo, "%d segments active during [%g, %g] on %d cores", len(active), lo, hi, m)
			conReported = true
		}
		perCore := make(map[int]int, len(active))
		perTask := make(map[int]int, len(active))
		for _, seg := range active {
			perCore[seg.Core]++
			perTask[seg.Task]++
			energy.Add(pm.Power(seg.Frequency) * dt)
			busy.Add(dt)
			w, ok := work[seg.Task]
			if !ok {
				w = &numeric.KahanSum{}
				work[seg.Task] = w
			}
			w.Add(seg.Frequency * dt)
		}
		for c, cnt := range perCore {
			if cnt > 1 && !coreReported[c] {
				add(KindCoreOverlap, -1, lo, "core %d hosts %d segments during [%g, %g]", c, cnt, lo, hi)
				coreReported[c] = true
			}
		}
		for id, cnt := range perTask {
			if cnt > 1 && !taskReported[id] {
				add(KindTaskParallel, id, lo, "task runs on %d cores during [%g, %g]", cnt, lo, hi)
				taskReported[id] = true
			}
		}
	}
	res.Energy = energy.Value()
	res.BusyTime = busy.Value()
	for id, w := range work {
		res.Work[id] = w.Value()
	}
}
