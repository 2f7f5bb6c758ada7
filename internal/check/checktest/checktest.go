// Package checktest supplies the schedules the differential tests of
// the event sweeps in check and sim run on: the FuzzSchedulers seed
// corpus, the task.GenerateRegime zoo, every registered scheduler's
// schedule of them, and deliberately broken variants of those.
package checktest

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/fuzzenc"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

// Case is one instance, and once scheduled, one schedule of it.
type Case struct {
	Name  string
	Tasks task.Set
	Cores int
	Model power.Model
	Sched *schedule.Schedule
	// Energy is the energy the scheduler reported for Sched.
	Energy float64
	// Mutated is the index of the segment a Broken variant changed.
	Mutated int
}

// Corpus decodes the FuzzSchedulers seed corpus in dir.
func Corpus(t testing.TB, dir string) []Case {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []Case
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
			out = append(out, Case{Name: "corpus/" + f.Name(), Tasks: ts, Cores: m, Model: pm})
		}
	}
	if len(out) == 0 {
		t.Fatal("no corpus instances decoded")
	}
	return out
}

// Zoo draws every task.GenerateRegime regime at a few sizes.
func Zoo(t testing.TB) []Case {
	t.Helper()
	rng := rand.New(rand.NewSource(20140901))
	var out []Case
	for _, r := range task.Regimes() {
		for _, n := range []int{1, 6, 25} {
			ts, err := task.GenerateRegime(rng, r, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []int{1, 4} {
				out = append(out, Case{
					Name:  fmt.Sprintf("zoo/%s/n=%d/m=%d", r, n, m),
					Tasks: ts, Cores: m, Model: power.Unit(3, 0.05),
				})
			}
		}
	}
	return out
}

// Schedules runs every registered scheduler on every instance.
func Schedules(instances []Case) []Case {
	var out []Case
	for _, in := range instances {
		for _, e := range check.Entries() {
			s, energy, err := e.RunSafe(context.Background(), in.Tasks, in.Cores, in.Model)
			if err != nil {
				continue // e.g. YDS on m > 1
			}
			c := in
			c.Name, c.Sched, c.Energy = in.Name+"/"+e.Name, s, energy
			out = append(out, c)
		}
	}
	return out
}

// Broken derives deliberately invalid variants of a schedule: a segment
// moved to another core, shifted in time, duplicated, or handed to
// another task.
func Broken(rng *rand.Rand, c Case) []Case {
	if len(c.Sched.Segments) == 0 {
		return nil
	}
	k := rng.Intn(len(c.Sched.Segments))
	mutate := func(kind string, f func(segs []schedule.Segment) []schedule.Segment) Case {
		out := c
		s := *c.Sched
		s.Segments = f(append([]schedule.Segment(nil), c.Sched.Segments...))
		out.Name, out.Sched, out.Mutated = c.Name+"/"+kind, &s, k
		return out
	}
	return []Case{
		mutate("core", func(segs []schedule.Segment) []schedule.Segment {
			segs[k].Core = (segs[k].Core + 1 + rng.Intn(c.Cores)) % c.Cores
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
			segs[k].Task = rng.Intn(len(c.Tasks))
			return segs
		}),
	}
}
