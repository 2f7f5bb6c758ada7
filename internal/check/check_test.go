package check_test

// Mutation coverage: five deliberately broken scheduler outputs, one per
// contract clause, each of which the validator must flag with the right
// violation kind. A validator that cannot convict known-broken schedules
// proves nothing about correct ones.

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

func sectionVDFinal(t *testing.T, method alloc.Method) (*core.Result, *schedule.Schedule) {
	t.Helper()
	res, err := core.Schedule(task.SectionVDExample(), 4, power.Unit(3, 0), method, core.Options{Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	clone := schedule.New(res.Tasks, res.Cores)
	clone.Segments = append([]schedule.Segment(nil), res.Final.Segments...)
	return res, clone
}

func mustAudit(t *testing.T, s *schedule.Schedule, ts task.Set, m int, pm power.Model, opts check.Options) *check.Result {
	t.Helper()
	res, err := check.Audit(context.Background(), s, ts, m, pm, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func hasKind(vs []check.Violation, k check.Kind) bool {
	for _, v := range vs {
		if v.Kind == k {
			return true
		}
	}
	return false
}

func TestValidateAcceptsCorrectSchedule(t *testing.T) {
	res, sched := sectionVDFinal(t, alloc.DER)
	if vs := check.Validate(sched, res.Tasks, 4, res.Model); len(vs) > 0 {
		t.Fatalf("validator rejected a correct schedule: %v", vs[0])
	}
	opts := check.DefaultOptions()
	opts.ReportedEnergy = res.FinalEnergy
	audit := mustAudit(t, sched, res.Tasks, 4, res.Model, opts)
	if !audit.OK() {
		t.Fatalf("audit with reported energy failed: %v", audit.Violations[0])
	}
	if math.Abs(audit.Energy-res.FinalEnergy) > 1e-6*res.FinalEnergy {
		t.Errorf("re-integrated energy %.9f != reported %.9f", audit.Energy, res.FinalEnergy)
	}
	for _, tk := range res.Tasks {
		if w := audit.Work[tk.ID]; math.Abs(w-tk.Work) > 1e-6*tk.Work {
			t.Errorf("task %d re-derived work %.9f != C_i %.9f", tk.ID, w, tk.Work)
		}
	}
}

func TestMutationDroppedWork(t *testing.T) {
	res, sched := sectionVDFinal(t, alloc.DER)
	// Drop every segment of task 3: its work silently vanishes.
	kept := sched.Segments[:0]
	for _, seg := range sched.Segments {
		if seg.Task != 3 {
			kept = append(kept, seg)
		}
	}
	sched.Segments = kept
	vs := check.Validate(sched, res.Tasks, 4, res.Model)
	if !hasKind(vs, check.KindWork) {
		t.Fatalf("dropped work not flagged as %q: %v", check.KindWork, vs)
	}
}

func TestMutationExcessConcurrency(t *testing.T) {
	// Three tasks simultaneously active on a two-core machine. The third
	// segment reuses an occupied (but in-range) core, so this is both a
	// concurrency and a core-overlap breach — the sweep must see both.
	ts := task.MustNew(
		[3]float64{0, 5, 10},
		[3]float64{0, 5, 10},
		[3]float64{0, 5, 10},
	)
	sched := schedule.New(ts, 2)
	sched.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 10, Frequency: 0.5})
	sched.Add(schedule.Segment{Task: 1, Core: 1, Start: 0, End: 10, Frequency: 0.5})
	sched.Add(schedule.Segment{Task: 2, Core: 0, Start: 0, End: 10, Frequency: 0.5})
	vs := check.Validate(sched, ts, 2, power.Unit(3, 0))
	if !hasKind(vs, check.KindConcurrency) {
		t.Fatalf("3 concurrent tasks on 2 cores not flagged as %q: %v", check.KindConcurrency, vs)
	}
	if !hasKind(vs, check.KindCoreOverlap) {
		t.Fatalf("shared core not flagged as %q: %v", check.KindCoreOverlap, vs)
	}
}

func TestMutationDeadlineOverrun(t *testing.T) {
	res, sched := sectionVDFinal(t, alloc.Even)
	// Stretch the last segment of task 0 past its deadline, slowing it
	// down so the completed work stays C_i — only the window breaks.
	last := -1
	for i, seg := range sched.Segments {
		if seg.Task == 0 && (last < 0 || seg.End > sched.Segments[last].End) {
			last = i
		}
	}
	seg := &sched.Segments[last]
	work := seg.Work()
	seg.End = res.Tasks[0].Deadline + 3
	seg.Frequency = work / seg.Duration()
	vs := check.Validate(sched, res.Tasks, 4, res.Model)
	if !hasKind(vs, check.KindWindow) {
		t.Fatalf("deadline overrun not flagged as %q: %v", check.KindWindow, vs)
	}
}

func TestMutationNegativeFrequency(t *testing.T) {
	res, sched := sectionVDFinal(t, alloc.DER)
	sched.Segments[0].Frequency = -sched.Segments[0].Frequency
	vs := check.Validate(sched, res.Tasks, 4, res.Model)
	if !hasKind(vs, check.KindFrequency) {
		t.Fatalf("negative frequency not flagged as %q: %v", check.KindFrequency, vs)
	}
}

func TestMutationMisintegratedEnergy(t *testing.T) {
	res, sched := sectionVDFinal(t, alloc.DER)
	opts := check.DefaultOptions()
	opts.ReportedEnergy = res.FinalEnergy * 1.05 // a 5% accounting bug
	audit := mustAudit(t, sched, res.Tasks, 4, res.Model, opts)
	if !hasKind(audit.Violations, check.KindEnergy) {
		t.Fatalf("mis-integrated energy not flagged as %q: %v", check.KindEnergy, audit.Violations)
	}
}

func TestAuditRejectsMalformedSegments(t *testing.T) {
	ts := task.MustNew([3]float64{0, 2, 10})
	sched := schedule.New(ts, 1)
	sched.Segments = []schedule.Segment{
		{Task: 5, Core: 0, Start: 0, End: 4, Frequency: 0.5},  // unknown task
		{Task: 0, Core: 3, Start: 0, End: 4, Frequency: 0.5},  // core out of range
		{Task: 0, Core: 0, Start: 4, End: 4, Frequency: 0.5},  // empty duration
		{Task: 0, Core: 0, Start: 0, End: 4, Frequency: 0.25}, // the only real one
	}
	vs := check.Validate(sched, ts, 1, power.Unit(3, 0))
	if !hasKind(vs, check.KindSegment) {
		t.Fatalf("malformed segments not flagged: %v", vs)
	}
	// The well-formed segment alone completes 1 of 2 units.
	if !hasKind(vs, check.KindWork) {
		t.Fatalf("under-completion not flagged alongside malformed segments: %v", vs)
	}
}

func TestAuditStrictOverwork(t *testing.T) {
	ts := task.MustNew([3]float64{0, 2, 10})
	sched := schedule.New(ts, 1)
	sched.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 10, Frequency: 0.5}) // 5 units, C=2
	if vs := check.Validate(sched, ts, 1, power.Unit(3, 0)); len(vs) > 0 {
		t.Fatalf("overwork rejected under default (lenient) options: %v", vs)
	}
	opts := check.DefaultOptions()
	opts.AllowOverwork = false
	audit := mustAudit(t, sched, ts, 1, power.Unit(3, 0), opts)
	if !hasKind(audit.Violations, check.KindWork) {
		t.Fatalf("overwork not flagged under strict options: %v", audit.Violations)
	}
}

func TestMutationTaskParallelism(t *testing.T) {
	// One task on two cores at once: work is conserved, windows hold, but
	// the no-intra-task-parallelism clause breaks.
	ts := task.MustNew([3]float64{0, 4, 10})
	sched := schedule.New(ts, 2)
	sched.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 10, Frequency: 0.2})
	sched.Add(schedule.Segment{Task: 0, Core: 1, Start: 0, End: 10, Frequency: 0.2})
	vs := check.Validate(sched, ts, 2, power.Unit(3, 0))
	if !hasKind(vs, check.KindTaskParallel) {
		t.Fatalf("intra-task parallelism not flagged as %q: %v", check.KindTaskParallel, vs)
	}
}

func TestRegistryContainsAllSchedulers(t *testing.T) {
	want := []string{"Partitioned", "ReplanDER", "S^F1", "S^F2", "S^I1", "S^I2", "YDS"}
	got := check.Entries()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(got), len(want), got)
	}
	for i, e := range got {
		if e.Name != want[i] {
			t.Errorf("entry %d = %q, want %q (sorted)", i, e.Name, want[i])
		}
	}
}

func countKind(vs []check.Violation, k check.Kind) int {
	n := 0
	for _, v := range vs {
		if v.Kind == k {
			n++
		}
	}
	return n
}

func TestSweepAbuttingSegmentsDoNotOverlap(t *testing.T) {
	// End == next Start on one core, and one task hopping cores at the
	// same instant: neither is an overlap.
	ts := task.MustNew([3]float64{0, 5, 10}, [3]float64{0, 5, 10})
	sched := schedule.New(ts, 2)
	sched.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 5, Frequency: 0.5})
	sched.Add(schedule.Segment{Task: 1, Core: 0, Start: 5, End: 10, Frequency: 0.5})
	sched.Add(schedule.Segment{Task: 0, Core: 1, Start: 5, End: 10, Frequency: 0.5})
	sched.Add(schedule.Segment{Task: 1, Core: 1, Start: 0, End: 5, Frequency: 0.5})
	if vs := check.Validate(sched, ts, 2, power.Unit(3, 0)); len(vs) > 0 {
		t.Fatalf("abutting segments flagged: %v", vs)
	}
}

func TestSweepSkipsSubFloorSliver(t *testing.T) {
	// The first segment overruns the second's start on the same core by
	// 1e-10, below the Tol·1e-3 = 1e-9 sliver floor: no overlap, and the
	// sliver carries no work.
	ts := task.MustNew([3]float64{0, 5, 10}, [3]float64{0, 5, 10})
	sched := schedule.New(ts, 1)
	sched.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 5 + 1e-10, Frequency: 1})
	sched.Add(schedule.Segment{Task: 1, Core: 0, Start: 5, End: 10, Frequency: 1})
	res := mustAudit(t, sched, ts, 1, power.Unit(3, 0), check.DefaultOptions())
	if !res.OK() {
		t.Fatalf("sub-floor sliver flagged: %v", res.Violations)
	}
	if res.Work[0] != 5 {
		t.Fatalf("sliver integrated: task 0 work %v, want exactly 5", res.Work[0])
	}
}

func TestSweepSharedEndpoints(t *testing.T) {
	// Eight segments start at 0 and end at distinct points, eight more
	// start at distinct points and all end at 16.
	const m = 8
	var specs [][3]float64
	for i := 0; i < m; i++ {
		specs = append(specs, [3]float64{0, float64(i + 1), 16}, [3]float64{0, float64(15 - i), 16})
	}
	ts := task.MustNew(specs...)
	sched := schedule.New(ts, m)
	var want float64
	pm := power.Unit(3, 0.05)
	for i := 0; i < m; i++ {
		sched.Add(schedule.Segment{Task: 2 * i, Core: i, Start: 0, End: float64(i + 1), Frequency: 1})
		sched.Add(schedule.Segment{Task: 2*i + 1, Core: i, Start: float64(i + 1), End: 16, Frequency: 1})
		want += 16 * pm.Power(1)
	}
	res := mustAudit(t, sched, ts, m, pm, check.DefaultOptions())
	if !res.OK() {
		t.Fatalf("shared endpoints flagged: %v", res.Violations)
	}
	if math.Abs(res.Energy-want) > 1e-12*want || res.BusyTime != 16*m {
		t.Fatalf("energy %v busy %v, want %v and %v", res.Energy, res.BusyTime, want, 16*m)
	}
}

func TestSweepReportsHeavyOverlapOnce(t *testing.T) {
	// 3m identical segments: one concurrency, one core and one task
	// offender, each reported once however many slices they span.
	const m = 2
	ts := task.MustNew([3]float64{0, 60, 10})
	sched := schedule.New(ts, m)
	for i := 0; i < 3*m; i++ {
		sched.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 10, Frequency: 1})
	}
	vs := check.Validate(sched, ts, m, power.Unit(3, 0))
	for _, k := range []check.Kind{check.KindConcurrency, check.KindCoreOverlap, check.KindTaskParallel} {
		if got := countKind(vs, k); got != 1 {
			t.Errorf("%q reported %d times, want once: %v", k, got, vs)
		}
	}
}

func TestSweepEmptySchedule(t *testing.T) {
	res := mustAudit(t, schedule.New(nil, 2), nil, 2, power.Unit(3, 0), check.DefaultOptions())
	if !res.OK() || res.Energy != 0 || res.BusyTime != 0 || len(res.Work) != 0 {
		t.Fatalf("empty instance: %+v", res)
	}
	ts := task.MustNew([3]float64{0, 2, 10})
	vs := check.Validate(schedule.New(ts, 1), ts, 1, power.Unit(3, 0))
	if len(vs) != 1 || vs[0].Kind != check.KindWork {
		t.Fatalf("empty schedule of one task: %v, want one %q", vs, check.KindWork)
	}
}

// TestAuditCancellationPrompt cancels the audit of a large schedule
// mid-sweep and requires it to return within cancelSlack (50 ms without
// the race detector) of the cancellation.
func TestAuditCancellationPrompt(t *testing.T) {
	ts, sched := paperSchedule(t, 500, 16)
	pm := power.Unit(3, 0.05)
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := check.Audit(pre, sched, ts, 16, pm, check.DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled audit: err = %v, want context.Canceled", err)
	}

	const after = 2 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(after, cancel)
	start := time.Now()
	_, err := check.Audit(ctx, sched, ts, 16, pm, check.DefaultOptions())
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		if err != nil {
			t.Fatalf("err = %v, want context.Canceled or nil", err)
		}
		t.Skip("audit finished before cancellation")
	}
	if elapsed > after+cancelSlack {
		t.Fatalf("canceled audit returned after %v, want within %v of cancel", elapsed, cancelSlack)
	}
}
