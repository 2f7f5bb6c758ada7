package server

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/power"
	"repro/internal/server/wire"
	"repro/internal/task"
)

func mustSet(t *testing.T, triples ...[3]float64) task.Set {
	t.Helper()
	ts, err := task.New(triples...)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestSolveKeyDistinguishesInputs(t *testing.T) {
	base := mustSet(t, [3]float64{0, 8, 10}, [3]float64{2, 14, 18})
	pm := power.Model{Gamma: 1, Alpha: 3, P0: 0.05}
	k0 := solveKey("S^F2", base, 4, pm)

	if k := solveKey("S^F2", base, 4, pm); k != k0 {
		t.Fatal("identical inputs hashed differently")
	}
	if k := solveKey("S^F1", base, 4, pm); k == k0 {
		t.Fatal("algorithm name not part of the key")
	}
	if k := solveKey("S^F2", base, 2, pm); k == k0 {
		t.Fatal("core count not part of the key")
	}
	if k := solveKey("S^F2", base, 4, power.Model{Gamma: 1, Alpha: 3, P0: 0.06}); k == k0 {
		t.Fatal("power model not part of the key")
	}
	bumped := mustSet(t, [3]float64{0, 8, 10}, [3]float64{2, 14, 18.0000000001})
	if k := solveKey("S^F2", bumped, 4, pm); k == k0 {
		t.Fatal("sub-ulp task change not part of the key")
	}
	// Name/cores boundary must not alias: ("S^F24", …) vs ("S^F2", 4…) can
	// only differ through the name terminator.
	if k := solveKey("S^F24", base, 4, pm); k == k0 {
		t.Fatal("name/cores boundary aliased")
	}
}

func TestSolveCacheLRU(t *testing.T) {
	c := newSolveCache(2)
	pm := power.Model{Gamma: 1, Alpha: 3}
	ka := solveKey("a", nil, 1, pm)
	kb := solveKey("b", nil, 1, pm)
	kc := solveKey("c", nil, 1, pm)

	c.Put(ka, &wire.ScheduleResponse{Algorithm: "a"})
	c.Put(kb, &wire.ScheduleResponse{Algorithm: "b"})
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}

	// Touch a so b becomes least recently used, then insert c: b evicts.
	if _, ok, _ := c.Get(ka); !ok {
		t.Fatal("a missing")
	}
	c.Put(kc, &wire.ScheduleResponse{Algorithm: "c"})
	if _, ok, _ := c.Get(kb); ok {
		t.Fatal("b should have been evicted")
	}
	if v, ok, _ := c.Get(ka); !ok || v.Algorithm != "a" {
		t.Fatal("a should have survived (it was promoted)")
	}
	if v, ok, _ := c.Get(kc); !ok || v.Algorithm != "c" {
		t.Fatal("c missing")
	}

	// Refreshing an existing key replaces the value without growing.
	c.Put(ka, &wire.ScheduleResponse{Algorithm: "a2"})
	if v, _, _ := c.Get(ka); v.Algorithm != "a2" {
		t.Fatal("refresh did not replace the value")
	}
	if c.Len() != 2 {
		t.Fatalf("len %d after refresh, want 2", c.Len())
	}
}

func TestSolveCacheDisabled(t *testing.T) {
	c := newSolveCache(0)
	k := solveKey("a", nil, 1, power.Model{Alpha: 2, Gamma: 1})
	c.Put(k, &wire.ScheduleResponse{})
	if _, ok, _ := c.Get(k); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatal("disabled cache stored an entry")
	}
}

// TestSolveCacheDetectsEveryHashedField flips one bit in each field the
// integrity checksum covers, in a stored entry, and requires the next
// Get to report the entry corrupted.
func TestSolveCacheDetectsEveryHashedField(t *testing.T) {
	flipF := func(f *float64, bit uint) { *f = math.Float64frombits(math.Float64bits(*f) ^ 1<<bit) }
	flipI := func(i *int, bit uint) { *i ^= 1 << bit }
	fields := map[string]func(r *wire.ScheduleResponse){
		"algorithm":     func(r *wire.ScheduleResponse) { r.Algorithm = "S^F3" },
		"cores":         func(r *wire.ScheduleResponse) { flipI(&r.Cores, 0) },
		"energy":        func(r *wire.ScheduleResponse) { flipF(&r.Energy, 0) },
		"busy_time":     func(r *wire.ScheduleResponse) { flipF(&r.BusyTime, 63) },
		"makespan":      func(r *wire.ScheduleResponse) { flipF(&r.Makespan, 17) },
		"segment count": func(r *wire.ScheduleResponse) { r.Segments = r.Segments[:len(r.Segments)-1] },
	}
	segs := []wire.SegmentJSON{{Task: 0, Core: 1, Start: 0, End: 8, Frequency: 0.8}, {Task: 1, Core: 0, Start: 2, End: 14, Frequency: 0.6}}
	for i := range segs {
		fields[fmt.Sprintf("segments[%d].task", i)] = func(r *wire.ScheduleResponse) { flipI(&r.Segments[i].Task, 1) }
		fields[fmt.Sprintf("segments[%d].core", i)] = func(r *wire.ScheduleResponse) { flipI(&r.Segments[i].Core, 62) }
		fields[fmt.Sprintf("segments[%d].start", i)] = func(r *wire.ScheduleResponse) { flipF(&r.Segments[i].Start, 63) }
		fields[fmt.Sprintf("segments[%d].end", i)] = func(r *wire.ScheduleResponse) { flipF(&r.Segments[i].End, 52) }
		fields[fmt.Sprintf("segments[%d].frequency", i)] = func(r *wire.ScheduleResponse) { flipF(&r.Segments[i].Frequency, 0) }
	}
	c := newSolveCache(4)
	k := solveKey("S^F2", nil, 4, power.Model{Gamma: 1, Alpha: 3})
	for name, flip := range fields {
		r := &wire.ScheduleResponse{
			Algorithm: "S^F2", Cores: 4, Energy: 31.8362, BusyTime: 20, Makespan: 22,
			Segments: append([]wire.SegmentJSON(nil), segs...),
		}
		c.Put(k, r)
		if _, ok, corrupted := c.Get(k); !ok || corrupted {
			t.Fatalf("%s: intact entry not served (ok=%v corrupted=%v)", name, ok, corrupted)
		}
		flip(r) // the cache shares the stored response
		if got, ok, corrupted := c.Get(k); ok || !corrupted || got != nil {
			t.Fatalf("%s: flipped entry got ok=%v corrupted=%v, want a corrupted miss", name, ok, corrupted)
		}
		if _, ok, corrupted := c.Get(k); ok || corrupted {
			t.Fatalf("%s: corrupted entry was not dropped", name)
		}
	}
	// Fields outside the checksum do not make an entry corrupt.
	r := &wire.ScheduleResponse{Algorithm: "S^F2", Segments: segs}
	c.Put(k, r)
	r.ElapsedMS, r.Cached = 7, true
	if _, ok, corrupted := c.Get(k); !ok || corrupted {
		t.Fatalf("unhashed fields: ok=%v corrupted=%v", ok, corrupted)
	}
}

func BenchmarkRespSum(b *testing.B) {
	segs := make([]wire.SegmentJSON, 6000)
	for i := range segs {
		segs[i] = wire.SegmentJSON{Task: i % 100, Core: i % 16, Start: float64(i), End: float64(i) + 0.5, Frequency: 0.75}
	}
	r := &wire.ScheduleResponse{Algorithm: "S^F2", Cores: 16, Segments: segs}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		respSum(r)
	}
}
