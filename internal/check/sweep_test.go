package check_test

// Differential test of the event sweep against the reference oracle
// (the rescanning sweep kept in reference_test.go), the allocation
// ceiling of Validate, and the validator benchmark.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/fuzzenc"
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

// diffCase is one schedule both sweeps audit.
type diffCase struct {
	name  string
	ts    task.Set
	m     int
	pm    power.Model
	sched *schedule.Schedule
	// energy is the reported energy both audits cross-check.
	energy float64
}

// corpusInstances decodes the FuzzSchedulers seed corpus.
func corpusInstances(t *testing.T) []diffCase {
	t.Helper()
	dir := filepath.Join("..", "..", "testdata", "fuzz", "FuzzSchedulers")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []diffCase
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		data, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("corpus entry %s: %v", f.Name(), err)
		}
		if ts, m, pm := fuzzenc.Decode([]byte(data)); ts != nil {
			out = append(out, diffCase{name: "corpus/" + f.Name(), ts: ts, m: m, pm: pm})
		}
	}
	if len(out) == 0 {
		t.Fatal("no corpus instances decoded")
	}
	return out
}

// zooInstances draws every task.GenerateRegime regime at a few sizes.
func zooInstances(t *testing.T) []diffCase {
	t.Helper()
	rng := rand.New(rand.NewSource(20140901))
	var out []diffCase
	for _, r := range task.Regimes() {
		for _, n := range []int{1, 6, 25} {
			ts, err := task.GenerateRegime(rng, r, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []int{1, 4} {
				out = append(out, diffCase{
					name: fmt.Sprintf("zoo/%s/n=%d/m=%d", r, n, m),
					ts:   ts, m: m, pm: power.Unit(3, 0.05),
				})
			}
		}
	}
	return out
}

// schedules runs every registered scheduler on every instance.
func schedules(t *testing.T, instances []diffCase) []diffCase {
	t.Helper()
	var out []diffCase
	for _, in := range instances {
		for _, e := range check.Entries() {
			s, energy, err := e.RunSafe(context.Background(), in.ts, in.m, in.pm)
			if err != nil {
				continue // e.g. YDS on m > 1
			}
			c := in
			c.name, c.sched, c.energy = in.name+"/"+e.Name, s, energy
			out = append(out, c)
		}
	}
	return out
}

// broken derives deliberately invalid variants of a valid schedule: a
// segment moved to another core, shifted in time, duplicated, or handed
// to another task.
func broken(rng *rand.Rand, c diffCase) []diffCase {
	if len(c.sched.Segments) == 0 {
		return nil
	}
	mutate := func(kind string, f func(segs []schedule.Segment) []schedule.Segment) diffCase {
		out := c
		s := *c.sched
		s.Segments = f(append([]schedule.Segment(nil), c.sched.Segments...))
		out.name, out.sched = c.name+"/"+kind, &s
		return out
	}
	k := rng.Intn(len(c.sched.Segments))
	return []diffCase{
		mutate("core", func(segs []schedule.Segment) []schedule.Segment {
			segs[k].Core = (segs[k].Core + 1 + rng.Intn(c.m)) % c.m
			return segs
		}),
		mutate("window", func(segs []schedule.Segment) []schedule.Segment {
			d := (rng.Float64() - 0.5) * 4 * segs[k].Duration()
			segs[k].Start += d
			segs[k].End += d
			return segs
		}),
		mutate("duplicate", func(segs []schedule.Segment) []schedule.Segment {
			return append(segs, segs[k])
		}),
		mutate("task", func(segs []schedule.Segment) []schedule.Segment {
			segs[k].Task = rng.Intn(len(c.ts))
			return segs
		}),
	}
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
	cases := schedules(t, append(corpusInstances(t), zooInstances(t)...))
	rng := rand.New(rand.NewSource(7))
	var bad int
	for _, c := range cases {
		variants := broken(rng, c)
		bad += len(variants)
		cases = append(cases, variants...)
	}
	var invalid int
	for _, c := range cases {
		opts := check.DefaultOptions()
		opts.ReportedEnergy = c.energy
		got, err := check.Audit(context.Background(), c.sched, c.ts, c.m, c.pm, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := check.ReferenceAudit(c.sched, c.ts, c.m, c.pm, opts)
		if len(want.Violations) > 0 {
			invalid++
		}
		if g, w := violationKeys(got.Violations), violationKeys(want.Violations); strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Errorf("%s: violations differ\n got %q\nwant %q", c.name, g, w)
		}
		if !relClose(got.Energy, want.Energy) || !relClose(got.BusyTime, want.BusyTime) {
			t.Errorf("%s: energy %v busy %v, reference %v and %v", c.name, got.Energy, got.BusyTime, want.Energy, want.BusyTime)
		}
		if len(got.Work) != len(want.Work) {
			t.Errorf("%s: work for %d tasks, reference %d", c.name, len(got.Work), len(want.Work))
		}
		for id, w := range want.Work {
			if !relClose(got.Work[id], w) {
				t.Errorf("%s: task %d work %v, reference %v", c.name, id, got.Work[id], w)
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
