package sim

// Differential test of the sorted sweep against the reference oracle
// (the heap-driven Run kept in reference_test.go), the allocation
// ceiling of Run, and the simulator benchmarks.

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/check/checktest"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"

	// Every scheduler self-registers on import; the differential runs
	// all of them.
	_ "repro/internal/online"
	_ "repro/internal/partition"
	_ "repro/internal/yds"
)

// paperSchedule returns the paper workload of n tasks drawn with seed
// and its S^F2 schedule on m cores.
func paperSchedule(tb testing.TB, n, m int, seed int64) *schedule.Schedule {
	tb.Helper()
	ts, err := task.Generate(rand.New(rand.NewSource(seed)), task.PaperDefaults(n))
	if err != nil {
		tb.Fatal(err)
	}
	res, err := core.Schedule(ts, m, power.Unit(3, 0.05), alloc.DER, core.Options{Tolerance: 1e-9})
	if err != nil {
		tb.Fatal(err)
	}
	return res.Final
}

// paperCases are the S^F2 schedules of the paper workload at
// n ∈ {5, 20, 100, 300} on m ∈ {4, 16}, five seeds each.
func paperCases(t *testing.T) []checktest.Case {
	t.Helper()
	var out []checktest.Case
	for _, n := range []int{5, 20, 100, 300} {
		for _, m := range []int{4, 16} {
			for seed := int64(20140901); seed < 20140906; seed++ {
				s := paperSchedule(t, n, m, seed)
				out = append(out, checktest.Case{
					Name:  fmt.Sprintf("paper/n=%d/m=%d/seed=%d", n, m, seed),
					Tasks: s.Tasks, Cores: m, Model: power.Unit(3, 0.05), Sched: s,
				})
			}
		}
	}
	return out
}

// relClose compares within 1e-12 relative; two NaNs (tasks that never
// completed) agree.
func relClose(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestSweepMatchesReference holds the sorted sweep to the heap-driven
// reference. On schedules as the schedulers produced them (paper
// instances, the fuzz seed corpus, the regime zoo) the counts and
// violations are identical, and energy, busy time and completion times
// agree within 1e-12 relative: only the summation order of ends at
// equal times differs. On broken variants both agree on OK, and, unless
// two starts tie on one core or task, on the number of violations:
// which of several simultaneous starts a conflict names, and what it
// holds afterwards, follows the tie order, which the heap left
// unspecified.
func TestSweepMatchesReference(t *testing.T) {
	corpus := filepath.Join("..", "..", "testdata", "fuzz", "FuzzSchedulers")
	clean := append(paperCases(t), checktest.Schedules(append(checktest.Corpus(t, corpus), checktest.Zoo(t)...))...)
	rng := rand.New(rand.NewSource(7))
	var variants []checktest.Case
	for _, c := range clean {
		variants = append(variants, checktest.Broken(rng, c)...)
	}
	run := func(c checktest.Case) (got, want *Report) {
		t.Helper()
		got, err := Run(c.Sched, c.Model)
		if err != nil {
			t.Fatal(err)
		}
		want, err = referenceRun(c.Sched, c.Model)
		if err != nil {
			t.Fatal(err)
		}
		return got, want
	}
	for _, c := range clean {
		got, want := run(c)
		if got.Horizon != want.Horizon || got.Preemptions != want.Preemptions ||
			got.Migrations != want.Migrations || got.Wakeups != want.Wakeups {
			t.Errorf("%s: horizon/preemptions/migrations/wakeups %v/%d/%d/%d, reference %v/%d/%d/%d", c.Name,
				got.Horizon, got.Preemptions, got.Migrations, got.Wakeups,
				want.Horizon, want.Preemptions, want.Migrations, want.Wakeups)
		}
		if g, w := strings.Join(got.Violations, "\n"), strings.Join(want.Violations, "\n"); g != w {
			t.Errorf("%s: violations differ\n got %q\nwant %q", c.Name, got.Violations, want.Violations)
		}
		if !relClose(got.Energy, want.Energy) || !slices.EqualFunc(got.CoreBusy, want.CoreBusy, relClose) ||
			!slices.EqualFunc(got.Utilization, want.Utilization, relClose) || !slices.EqualFunc(got.Completion, want.Completion, relClose) {
			t.Errorf("%s: energy %v busy %v completion %v, reference %v, %v and %v", c.Name,
				got.Energy, got.CoreBusy, got.Completion, want.Energy, want.CoreBusy, want.Completion)
		}
	}
	var invalid, tied int
	for _, c := range variants {
		got, want := run(c)
		if !want.OK() {
			invalid++
		}
		if got.OK() != want.OK() {
			t.Errorf("%s: OK %v, reference %v\n got %q\nwant %q", c.Name, got.OK(), want.OK(), got.Violations, want.Violations)
		}
		if startsTie(c) {
			tied++
			continue
		}
		if len(got.Violations) != len(want.Violations) {
			t.Errorf("%s: %d violations, reference %d\n got %q\nwant %q", c.Name,
				len(got.Violations), len(want.Violations), got.Violations, want.Violations)
		}
	}
	t.Logf("%d schedules as produced, %d broken variants (%d invalid, %d with tied starts)",
		len(clean), len(variants), invalid, tied)
	// The broken variants must actually exercise the violation paths.
	if invalid < len(variants)/2 || tied > len(variants)/10 {
		t.Fatalf("%d of %d broken variants are invalid, %d have tied starts", invalid, len(variants), tied)
	}
}

// startsTie reports whether the mutated segment starts at the same
// time as a different segment on its core or of its task. After such a
// tie the core (or task) stays marked as held by whichever segment
// started last, so which later starts find it busy, and so the number
// of violations, follows the tie order. Identical segments tie
// harmlessly.
func startsTie(c checktest.Case) bool {
	mut := c.Sched.Segments[c.Mutated]
	for _, seg := range c.Sched.Segments {
		if seg != mut && seg.Start == mut.Start && (seg.Core == mut.Core || seg.Task == mut.Task) {
			return true
		}
	}
	return false
}

// TestRunAllocRegression pins the allocation count of Run on the n=100,
// m=16 paper instance: a fixed number of arrays per run, none per event.
func TestRunAllocRegression(t *testing.T) {
	s := paperSchedule(t, 100, 16, 20140901)
	pm := power.Unit(3, 0.05)
	avg := testing.AllocsPerRun(5, func() {
		rep, err := Run(s, pm)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatal(rep.Violations[0])
		}
	})
	if avg > 32 {
		t.Fatalf("Run(n=100, m=16) allocates %.0f/op, ceiling 32", avg)
	}
}

func benchmarkRun(b *testing.B, run func(*schedule.Schedule, power.Model) (*Report, error)) {
	for _, n := range []int{100, 500} {
		s := paperSchedule(b, n, 16, 20140901)
		pm := power.Unit(3, 0.05)
		b.Run(fmt.Sprintf("n=%d/m=16", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := run(s, pm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRun(b *testing.B) { benchmarkRun(b, Run) }

// BenchmarkRunReference times the heap-driven reference on the same
// schedules, for comparison.
func BenchmarkRunReference(b *testing.B) { benchmarkRun(b, referenceRun) }
