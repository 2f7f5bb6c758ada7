package check_test

// Differential test of the event sweep against the reference oracle
// (the rescanning sweep kept in reference_test.go), the allocation
// ceiling of Validate, and the validator benchmark.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/check"
	"repro/internal/check/checktest"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

// paperSchedule returns the paper workload of n tasks (seed 20140901)
// and its S^F2 schedule on m cores.
func paperSchedule(tb testing.TB, n, m int) (task.Set, *schedule.Schedule) {
	tb.Helper()
	ts, err := task.Generate(rand.New(rand.NewSource(20140901)), task.PaperDefaults(n))
	if err != nil {
		tb.Fatal(err)
	}
	res, err := core.Schedule(ts, m, power.Unit(3, 0.05), alloc.DER, core.Options{Tolerance: 1e-9})
	if err != nil {
		tb.Fatal(err)
	}
	return ts, res.Final
}

// violationKeys renders violations order-free: the reference reports
// the offenders of one slice in map order.
func violationKeys(vs []check.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprintf("%s|%d|%v|%s", v.Kind, v.Task, v.Time, v.Detail)
	}
	sort.Strings(out)
	return out
}

func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestSweepMatchesReference holds the event sweep to the rescanning
// reference on the fuzz seed corpus, the regime zoo, and broken variants
// of their schedules: identical violations, and energy, busy time and
// per-task work within 1e-12 relative.
func TestSweepMatchesReference(t *testing.T) {
	corpus := filepath.Join("..", "..", "testdata", "fuzz", "FuzzSchedulers")
	cases := checktest.Schedules(append(checktest.Corpus(t, corpus), checktest.Zoo(t)...))
	rng := rand.New(rand.NewSource(7))
	var bad int
	for _, c := range cases {
		variants := checktest.Broken(rng, c)
		bad += len(variants)
		cases = append(cases, variants...)
	}
	var invalid int
	for _, c := range cases {
		opts := check.DefaultOptions()
		opts.ReportedEnergy = c.Energy
		got, err := check.Audit(context.Background(), c.Sched, c.Tasks, c.Cores, c.Model, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := check.ReferenceAudit(c.Sched, c.Tasks, c.Cores, c.Model, opts)
		if len(want.Violations) > 0 {
			invalid++
		}
		if g, w := violationKeys(got.Violations), violationKeys(want.Violations); strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Errorf("%s: violations differ\n got %q\nwant %q", c.Name, g, w)
		}
		if !relClose(got.Energy, want.Energy) || !relClose(got.BusyTime, want.BusyTime) {
			t.Errorf("%s: energy %v busy %v, reference %v and %v", c.Name, got.Energy, got.BusyTime, want.Energy, want.BusyTime)
		}
		if len(got.Work) != len(want.Work) {
			t.Errorf("%s: work for %d tasks, reference %d", c.Name, len(got.Work), len(want.Work))
		}
		for id, w := range want.Work {
			if !relClose(got.Work[id], w) {
				t.Errorf("%s: task %d work %v, reference %v", c.Name, id, got.Work[id], w)
			}
		}
	}
	// The broken variants must actually exercise the violation paths.
	if invalid < bad/2 {
		t.Fatalf("only %d of %d audited schedules are invalid (%d broken variants)", invalid, len(cases), bad)
	}
}

// TestSweepMatchesReferencePaper compares the two sweeps on paper
// instances large enough to have thousands of slices.
func TestSweepMatchesReferencePaper(t *testing.T) {
	for _, n := range []int{5, 20, 100} {
		ts, sched := paperSchedule(t, n, 16)
		pm := power.Unit(3, 0.05)
		got, err := check.Audit(context.Background(), sched, ts, 16, pm, check.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want := check.ReferenceAudit(sched, ts, 16, pm, check.DefaultOptions())
		if !got.OK() || !want.OK() {
			t.Fatalf("n=%d: violations %v, reference %v", n, got.Violations, want.Violations)
		}
		if got.Energy != want.Energy || got.BusyTime != want.BusyTime {
			t.Errorf("n=%d: energy %v busy %v, reference %v and %v (want bit-identical)",
				n, got.Energy, got.BusyTime, want.Energy, want.BusyTime)
		}
		for id, w := range want.Work {
			if got.Work[id] != w {
				t.Errorf("n=%d: task %d work %v, reference %v (want bit-identical)", n, id, got.Work[id], w)
			}
		}
	}
}

// TestValidateAllocRegression pins the allocation count of the event
// sweep on the n=100, m=16 acceptance instance: a fixed number of
// slices and arrays per audit, none per time slice.
func TestValidateAllocRegression(t *testing.T) {
	ts, sched := paperSchedule(t, 100, 16)
	pm := power.Unit(3, 0.05)
	avg := testing.AllocsPerRun(5, func() {
		if vs := check.Validate(sched, ts, 16, pm); len(vs) > 0 {
			t.Fatal(vs[0])
		}
	})
	if avg > 64 {
		t.Fatalf("Validate(n=100, m=16) allocates %.0f/op, ceiling 64", avg)
	}
}

func BenchmarkValidate(b *testing.B) {
	for _, tc := range []struct{ n, m int }{{20, 4}, {100, 16}, {500, 16}} {
		ts, sched := paperSchedule(b, tc.n, tc.m)
		pm := power.Unit(3, 0.05)
		b.Run(fmt.Sprintf("n=%d/m=%d", tc.n, tc.m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if vs := check.Validate(sched, ts, tc.m, pm); len(vs) > 0 {
					b.Fatal(vs[0])
				}
			}
		})
	}
}

// BenchmarkValidateReference times the rescanning reference sweep on
// the smaller BenchmarkValidate cases, for comparison.
func BenchmarkValidateReference(b *testing.B) {
	for _, tc := range []struct{ n, m int }{{20, 4}, {100, 16}} {
		ts, sched := paperSchedule(b, tc.n, tc.m)
		pm := power.Unit(3, 0.05)
		b.Run(fmt.Sprintf("n=%d/m=%d", tc.n, tc.m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := check.ReferenceAudit(sched, ts, tc.m, pm, check.DefaultOptions()); !res.OK() {
					b.Fatal(res.Violations[0])
				}
			}
		})
	}
}
