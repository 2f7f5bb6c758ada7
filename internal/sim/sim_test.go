package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

func TestSimpleExecution(t *testing.T) {
	ts := task.MustNew([3]float64{0, 4, 10})
	s := schedule.New(ts, 1)
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 8, Frequency: 0.5})
	rep, err := Run(s, power.Unit(3, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	want := (math.Pow(0.5, 3) + 0.01) * 8
	if math.Abs(rep.Energy-want) > 1e-9 {
		t.Errorf("energy = %g, want %g", rep.Energy, want)
	}
	if math.Abs(rep.Completion[0]-8) > 1e-9 {
		t.Errorf("completion = %g, want 8", rep.Completion[0])
	}
	if rep.Preemptions != 0 || rep.Migrations != 0 {
		t.Errorf("preemptions=%d migrations=%d, want 0/0", rep.Preemptions, rep.Migrations)
	}
	// Horizon is the segment span [0, 8], fully busy.
	if math.Abs(rep.Utilization[0]-1) > 1e-9 {
		t.Errorf("utilization = %g, want 1", rep.Utilization[0])
	}
	if math.Abs(rep.Horizon-8) > 1e-9 {
		t.Errorf("horizon = %g, want 8", rep.Horizon)
	}
}

func TestCompletionInterpolation(t *testing.T) {
	// Task finishes mid-segment: 4 work at f=1 inside a 6-long segment is
	// impossible per-validation, so split: the completion must
	// interpolate inside the last segment.
	ts := task.MustNew([3]float64{0, 4, 10})
	s := schedule.New(ts, 1)
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 2, Frequency: 1})
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 5, End: 9, Frequency: 0.5})
	rep, err := Run(s, power.Unit(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	// Remaining 2 work at 0.5 takes 4 time from t=5 → completes at 9.
	if math.Abs(rep.Completion[0]-9) > 1e-9 {
		t.Errorf("completion = %g, want 9", rep.Completion[0])
	}
	if rep.Preemptions != 1 {
		t.Errorf("preemptions = %d, want 1", rep.Preemptions)
	}
}

func TestMigrationCount(t *testing.T) {
	ts := task.MustNew([3]float64{0, 4, 10})
	s := schedule.New(ts, 2)
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 4, Frequency: 0.5})
	s.Add(schedule.Segment{Task: 0, Core: 1, Start: 4, End: 8, Frequency: 0.5})
	rep, err := Run(s, power.Unit(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrations != 1 {
		t.Errorf("migrations = %d, want 1", rep.Migrations)
	}
}

func TestDetectsCoreConflict(t *testing.T) {
	ts := task.MustNew([3]float64{0, 2, 10}, [3]float64{0, 2, 10})
	s := schedule.New(ts, 1)
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 4, Frequency: 0.5})
	s.Add(schedule.Segment{Task: 1, Core: 0, Start: 2, End: 6, Frequency: 0.5})
	rep, err := Run(s, power.Unit(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !containsSubstr(rep.Violations, "busy") {
		t.Errorf("expected core conflict, got %v", rep.Violations)
	}
}

func TestDetectsIntraTaskParallelism(t *testing.T) {
	ts := task.MustNew([3]float64{0, 4, 10})
	s := schedule.New(ts, 2)
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 4, Frequency: 0.5})
	s.Add(schedule.Segment{Task: 0, Core: 1, Start: 2, End: 6, Frequency: 0.5})
	rep, err := Run(s, power.Unit(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !containsSubstr(rep.Violations, "already running") {
		t.Errorf("expected intra-task parallelism violation, got %v", rep.Violations)
	}
}

func TestDetectsDeadlineAndReleaseViolations(t *testing.T) {
	ts := task.MustNew([3]float64{2, 2, 6})
	s := schedule.New(ts, 1)
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 1, End: 7, Frequency: 0.5})
	rep, err := Run(s, power.Unit(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !containsSubstr(rep.Violations, "before release") {
		t.Errorf("expected release violation, got %v", rep.Violations)
	}
	if !containsSubstr(rep.Violations, "past deadline") {
		t.Errorf("expected deadline violation, got %v", rep.Violations)
	}
}

func TestDetectsShortfall(t *testing.T) {
	ts := task.MustNew([3]float64{0, 4, 10})
	s := schedule.New(ts, 1)
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 2, Frequency: 1}) // 2 of 4
	rep, err := Run(s, power.Unit(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !containsSubstr(rep.Violations, "remaining") {
		t.Errorf("expected shortfall, got %v", rep.Violations)
	}
	if !math.IsNaN(rep.Completion[0]) {
		t.Errorf("incomplete task must have NaN completion, got %g", rep.Completion[0])
	}
}

func TestEmptySchedule(t *testing.T) {
	ts := task.MustNew([3]float64{0, 4, 10})
	rep, err := Run(schedule.New(ts, 1), power.Unit(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Error("empty schedule should report never-executed tasks")
	}
	// With no tasks either, there is nothing to replay and nothing wrong.
	rep, err = Run(schedule.New(nil, 2), power.Unit(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Horizon != 0 || rep.Energy != 0 || len(rep.CoreBusy) != 2 {
		t.Errorf("empty schedule of no tasks: %+v", rep)
	}
}

func TestUnknownCoreOrTaskReportedAndSkipped(t *testing.T) {
	ts := task.MustNew([3]float64{0, 2, 10})
	s := schedule.New(ts, 1)
	s.Add(schedule.Segment{Task: 0, Core: 3, Start: 0, End: 4, Frequency: 0.5})
	s.Add(schedule.Segment{Task: 5, Core: 0, Start: 0, End: 4, Frequency: 0.5})
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 4, End: 8, Frequency: 0.5})
	rep, err := Run(s, power.Unit(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 2 || !containsSubstr(rep.Violations, "unknown core") ||
		!containsSubstr(rep.Violations, "unknown task") {
		t.Fatalf("violations %q, want the unknown core and the unknown task", rep.Violations)
	}
	// The skipped segments neither occupy core 0 nor execute work: only
	// the valid segment runs, without a conflict.
	if rep.CoreBusy[0] != 4 || rep.Energy != 0.5 || rep.Completion[0] != 8 {
		t.Errorf("busy %v energy %v completion %v, want 4, 0.5 and 8", rep.CoreBusy[0], rep.Energy, rep.Completion[0])
	}
}

func TestBackToBackSegmentsNoConflict(t *testing.T) {
	// τ ends at t=4 exactly when the next task starts on the same core:
	// no conflict, because ends go before starts at equal times, in
	// whichever order the segments are listed.
	ts := task.MustNew([3]float64{0, 2, 10}, [3]float64{0, 3, 10})
	first := schedule.Segment{Task: 0, Core: 0, Start: 0, End: 4, Frequency: 0.5}
	second := schedule.Segment{Task: 1, Core: 0, Start: 4, End: 10, Frequency: 0.5}
	for _, segs := range [][]schedule.Segment{{first, second}, {second, first}} {
		s := schedule.New(ts, 1)
		s.Segments = segs
		rep, err := Run(s, power.Unit(3, 0))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() || rep.Wakeups != 1 {
			t.Errorf("back-to-back segments %v: wakeups %d, violations %v", segs, rep.Wakeups, rep.Violations)
		}
	}
}

func TestStartInsideOverhangTolerated(t *testing.T) {
	// The first segment overhangs the second's start by less than the
	// 1e-9 tolerance, so its end event comes after the second start: the
	// core counts as free and no conflict is reported.
	ts := task.MustNew([3]float64{0, 2, 10}, [3]float64{0, 2, 10})
	s := schedule.New(ts, 1)
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 4 + 5e-10, Frequency: 0.5})
	s.Add(schedule.Segment{Task: 1, Core: 0, Start: 4, End: 8, Frequency: 0.5})
	rep, err := Run(s, power.Unit(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Wakeups != 1 {
		t.Errorf("wakeups %d, violations %v; want 1 and none", rep.Wakeups, rep.Violations)
	}
	// Beyond the tolerance it is a conflict.
	s.Segments[0].End = 4 + 1e-6
	if rep, _ = Run(s, power.Unit(3, 0)); !containsSubstr(rep.Violations, "core 0 busy with task 0") {
		t.Errorf("overhang of 1e-6 not reported: %v", rep.Violations)
	}
}

func TestSimultaneousStartsFirstInInputOrderWins(t *testing.T) {
	// Three segments start at t=0 on core 0. The first listed takes the
	// core; each later one finds it busy with the one before it.
	ts := task.MustNew([3]float64{0, 1, 10}, [3]float64{0, 1, 10}, [3]float64{0, 1, 10})
	for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}} {
		s := schedule.New(ts, 1)
		for _, id := range order {
			s.Add(schedule.Segment{Task: id, Core: 0, Start: 0, End: 2, Frequency: 0.5})
		}
		rep, err := Run(s, power.Unit(3, 0))
		if err != nil {
			t.Fatal(err)
		}
		want := []string{
			fmt.Sprintf("core 0 busy with task %d when %v starts", order[0], s.Segments[1]),
			fmt.Sprintf("core 0 busy with task %d when %v starts", order[1], s.Segments[2]),
		}
		sort.Strings(want)
		if strings.Join(rep.Violations, "\n") != strings.Join(want, "\n") {
			t.Errorf("order %v: violations %q, want %q", order, rep.Violations, want)
		}
	}
}

func TestSimulatorAgreesWithAnalyticEnergy(t *testing.T) {
	// The simulator's integrated energy must match Schedule.Energy and
	// core.Result's closed forms on real scheduler output.
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 10; trial++ {
		ts := task.MustGenerate(rng, task.PaperDefaults(15))
		pm := power.Unit(3, 0.1)
		for _, method := range []alloc.Method{alloc.Even, alloc.DER} {
			res := core.MustSchedule(ts, 4, pm, method, core.Options{})
			for _, sched := range []*schedule.Schedule{res.Intermediate, res.Final} {
				rep, err := Run(sched, pm)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.OK() {
					t.Fatalf("trial %d %v: %v", trial, method, rep.Violations)
				}
				want := sched.Energy(pm)
				if math.Abs(rep.Energy-want) > 1e-6*math.Max(1, want) {
					t.Errorf("sim energy %g != analytic %g", rep.Energy, want)
				}
			}
		}
	}
}

func TestCompletionsBeforeDeadlines(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	ts := task.MustGenerate(rng, task.PaperDefaults(20))
	pm := power.Unit(3, 0.05)
	res := core.MustSchedule(ts, 4, pm, alloc.DER, core.Options{})
	rep, err := Run(res.Final, pm)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range rep.Completion {
		if math.IsNaN(c) {
			t.Errorf("task %d never completed", i)
			continue
		}
		if c > ts[i].Deadline+1e-6 {
			t.Errorf("task %d completed at %g after deadline %g", i, c, ts[i].Deadline)
		}
	}
}

func TestRunValidatesModel(t *testing.T) {
	ts := task.MustNew([3]float64{0, 4, 10})
	if _, err := Run(schedule.New(ts, 1), power.Unit(1, 0)); err == nil {
		t.Error("invalid model should fail")
	}
}

func containsSubstr(hay []string, needle string) bool {
	for _, h := range hay {
		if strings.Contains(h, needle) {
			return true
		}
	}
	return false
}

func TestWakeupCounting(t *testing.T) {
	ts := task.MustNew(
		[3]float64{0, 2, 20},
		[3]float64{0, 2, 20},
	)
	s := schedule.New(ts, 2)
	// Core 0: two segments with an idle gap → 2 wakeups.
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 0, End: 2, Frequency: 0.5})
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 5, End: 7, Frequency: 0.5})
	// Core 1: two back-to-back segments → 1 wakeup.
	s.Add(schedule.Segment{Task: 1, Core: 1, Start: 0, End: 2, Frequency: 0.5})
	s.Add(schedule.Segment{Task: 1, Core: 1, Start: 2, End: 4, Frequency: 0.5})
	rep, err := Run(s, power.Unit(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Wakeups != 3 {
		t.Errorf("wakeups = %d, want 3", rep.Wakeups)
	}
	base := rep.Energy
	if got := rep.EnergyWithWakeups(0.5); math.Abs(got-(base+1.5)) > 1e-12 {
		t.Errorf("EnergyWithWakeups = %g, want %g", got, base+1.5)
	}
}

func TestWakeupsAtLeastCoresUsed(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ts := task.MustGenerate(rng, task.PaperDefaults(15))
	pm := power.Unit(3, 0.05)
	res := core.MustSchedule(ts, 4, pm, alloc.DER, core.Options{})
	rep, err := Run(res.Final, pm)
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]bool{}
	for _, seg := range res.Final.Segments {
		used[seg.Core] = true
	}
	if rep.Wakeups < len(used) {
		t.Errorf("wakeups %d below cores used %d", rep.Wakeups, len(used))
	}
}

func TestResponseTimes(t *testing.T) {
	ts := task.MustNew([3]float64{2, 4, 12})
	s := schedule.New(ts, 1)
	s.Add(schedule.Segment{Task: 0, Core: 0, Start: 3, End: 11, Frequency: 0.5})
	rep, err := Run(s, power.Unit(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	rt := rep.ResponseTimes([]float64{2})
	if math.Abs(rt[0]-9) > 1e-9 {
		t.Errorf("response time = %g, want 9 (completed at 11, released at 2)", rt[0])
	}
	// Missing release info yields NaN.
	rt = rep.ResponseTimes(nil)
	if !math.IsNaN(rt[0]) {
		t.Errorf("expected NaN without release data, got %g", rt[0])
	}
}
