package checktest

import (
	"math/rand"
	"path/filepath"
	"testing"

	_ "repro/internal/core" // registers the paper's schedulers
)

// TestBrokenChangesOneSegment checks that each broken variant differs
// from its schedule exactly in the segment it names (the duplicate adds
// a copy of it), and that the corpus and the zoo yield schedules.
func TestBrokenChangesOneSegment(t *testing.T) {
	corpus := filepath.Join("..", "..", "..", "testdata", "fuzz", "FuzzSchedulers")
	cases := Schedules(append(Corpus(t, corpus), Zoo(t)...))
	if len(cases) == 0 {
		t.Fatal("no schedules")
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range cases[:min(10, len(cases))] {
		for _, v := range Broken(rng, c) {
			orig, segs := c.Sched.Segments, v.Sched.Segments
			if len(segs) == len(orig)+1 && segs[len(orig)] == orig[v.Mutated] {
				segs = segs[:len(orig)]
			}
			if len(segs) != len(orig) {
				t.Fatalf("%s: %d segments, want %d", v.Name, len(segs), len(orig))
			}
			for i := range segs {
				if i != v.Mutated && segs[i] != orig[i] {
					t.Fatalf("%s: segment %d changed, only %d may", v.Name, i, v.Mutated)
				}
			}
		}
	}
}
