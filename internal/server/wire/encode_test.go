package wire

// Byte-identity tests of the append encoder against its oracle,
// encoding/json with HTML escaping off, plus its allocation ceiling and
// micro-benchmarks.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/check/checktest"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/task"

	// Every scheduler self-registers on import; the differential encodes
	// the schedules of all of them.
	_ "repro/internal/core"
	_ "repro/internal/online"
	_ "repro/internal/partition"
	_ "repro/internal/yds"
)

// oracle encodes v with encoding/json configured as WriteJSON configures
// it: HTML escaping off, trailing newline.
func oracle(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// assertSame fails unless AppendSchedule and the oracle agree on r:
// the same bytes, or both an error.
func assertSame(t testing.TB, name string, r *ScheduleResponse) {
	t.Helper()
	want, werr := oracle(r)
	prefix := []byte("prefix")
	got, gerr := AppendSchedule(prefix, r)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%s: encoding/json error %v, AppendSchedule error %v", name, werr, gerr)
	}
	if gerr != nil {
		if string(got) != "prefix" {
			t.Fatalf("%s: on error got %q, want dst unchanged", name, got)
		}
		return
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("%s: dst prefix clobbered", name)
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(i-40, 0)
		t.Fatalf("%s: first difference at byte %d\n got: %q\nwant: %q", name, i,
			got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
	}
}

// response builds the response schedd serves for a fresh solve.
func response(algorithm string, s *schedule.Schedule, m int, energy float64, pm power.Model) *ScheduleResponse {
	r := &ScheduleResponse{
		Version: Version, Algorithm: algorithm, Cores: m,
		Energy: energy, BusyTime: s.BusyTime(), Makespan: s.Makespan(),
		Verified: true, Segments: Segments(s), ElapsedMS: 3.25,
	}
	if rep, err := sim.Run(s, pm); err == nil {
		r.Sim = SimReport(rep)
	}
	return r
}

func paperResponse(tb testing.TB, algorithm string, n, m int, seed int64) *ScheduleResponse {
	tb.Helper()
	ts, err := task.Generate(rand.New(rand.NewSource(seed)), task.PaperDefaults(n))
	if err != nil {
		tb.Fatal(err)
	}
	e, ok := check.Lookup(algorithm)
	if !ok {
		tb.Fatalf("%s not registered", algorithm)
	}
	pm := power.Unit(3, 0.05)
	s, energy, err := e.RunSafe(context.Background(), ts, m, pm)
	if err != nil {
		tb.Fatal(err)
	}
	return response(algorithm, s, m, energy, pm)
}

func TestAppendScheduleMatchesEncodingJSONOnPaperSchedules(t *testing.T) {
	for _, n := range []int{5, 20, 100, 500} {
		for _, alg := range []string{"S^F2", "S^F1", "YDS"} {
			m := 16
			if n < 100 {
				m = 4
			}
			if alg == "YDS" {
				m = 1 // YDS is the single-core optimum
			}
			r := paperResponse(t, alg, n, m, 20140901)
			assertSame(t, fmt.Sprintf("%s/n=%d/m=%d", alg, n, m), r)
			r.Cached = true
			assertSame(t, fmt.Sprintf("%s/n=%d/m=%d/cached", alg, n, m), r)
		}
	}
}

func TestAppendScheduleMatchesEncodingJSONOnZooAndCorpus(t *testing.T) {
	cases := checktest.Zoo(t)
	cases = append(cases, checktest.Corpus(t, filepath.Join("..", "..", "..", "testdata", "fuzz", "FuzzSchedulers"))...)
	scheduled := checktest.Schedules(cases)
	if len(scheduled) == 0 {
		t.Fatal("no schedules")
	}
	for _, c := range scheduled {
		assertSame(t, c.Name, response(c.Name, c.Sched, c.Cores, c.Energy, c.Model))
	}
}

func TestAppendScheduleHandCases(t *testing.T) {
	subnormal := math.SmallestNonzeroFloat64
	floats := []float64{
		0, math.Copysign(0, -1), subnormal, -subnormal, 2.2250738585072014e-308,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, 1e-7, 1.5e-7, 1e-10, 1e-100,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e20, 1e100,
		math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3, 123456789.125, -42, 1, 100,
	}
	var segs []SegmentJSON
	for i, f := range floats {
		segs = append(segs, SegmentJSON{Task: i - 3, Core: -i, Start: f, End: -f, Frequency: floats[len(floats)-1-i]})
	}
	strs := []string{
		"", "S^F2", "héllo wörld", "日本語", "<script>&amp;</script>", "a\u2028b\u2029c",
		"\x00\x01\x1f\x7f", "\b\f\n\r\t\"\\/", "bad\xffutf8\xc3", "\xe2\x80", "\U0001F600",
	}
	for _, f := range floats {
		assertSame(t, fmt.Sprintf("energy=%v", f), &ScheduleResponse{Energy: f, BusyTime: f, Makespan: -f, ElapsedMS: f})
	}
	for _, s := range strs {
		assertSame(t, fmt.Sprintf("algorithm=%q", s), &ScheduleResponse{Algorithm: s, FallbackAlgorithm: s, Degraded: true})
		assertSame(t, fmt.Sprintf("violation=%q", s), &ScheduleResponse{Sim: &SimReportJSON{Violations: []string{s, s + "x"}}})
	}
	for name, r := range map[string]*ScheduleResponse{
		"nil":            nil,
		"zero":           {},
		"empty segments": {Segments: []SegmentJSON{}},
		"segments":       {Version: Version, Algorithm: "S^F2", Cores: 3, Segments: segs, Verified: true, Cached: true},
		"degraded": {
			Version: Version, Algorithm: "broken", Segments: segs[:2],
			Degraded: true, FallbackAlgorithm: "S^F1",
		},
		"fallback without degraded": {FallbackAlgorithm: "S^F1"},
		"sim nil arrays":            {Sim: &SimReportJSON{}},
		"sim empty arrays":          {Sim: &SimReportJSON{CoreBusy: []float64{}, Utilization: []float64{}, Violations: []string{}}},
		"sim": {Sim: &SimReportJSON{
			Energy: 1.5, Horizon: 22, CoreBusy: floats, Utilization: floats[:3],
			Preemptions: 4, Migrations: -1, Wakeups: 1 << 40,
			Violations: []string{"task 3 missed its deadline", "core 1 overlap"},
		}},
	} {
		assertSame(t, name, r)
	}
	// Every non-finite float position is an error on both sides.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i, r := range []*ScheduleResponse{
			{Energy: bad}, {BusyTime: bad}, {Makespan: bad}, {ElapsedMS: bad},
			{Segments: []SegmentJSON{{Start: bad}}}, {Segments: []SegmentJSON{{End: bad}}},
			{Segments: []SegmentJSON{{Frequency: 1}, {Frequency: bad}}},
			{Sim: &SimReportJSON{Energy: bad}}, {Sim: &SimReportJSON{Horizon: bad}},
			{Sim: &SimReportJSON{CoreBusy: []float64{1, bad}}}, {Sim: &SimReportJSON{Utilization: []float64{bad}}},
		} {
			assertSame(t, fmt.Sprintf("nonfinite %v #%d", bad, i), r)
		}
	}
}

// TestAppendScheduleMemoCollisions encodes more distinct floats than
// the memo has slots, interleaved with repeats, so slots are evicted
// and reused.
func TestAppendScheduleMemoCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	segs := make([]SegmentJSON, 3<<memoBits)
	for i := range segs {
		segs[i] = SegmentJSON{
			Task: i, Core: i % 7,
			Start:     math.Float64frombits(rng.Uint64() >> 2),
			End:       float64(rng.Intn(3 << memoBits)),
			Frequency: float64(rng.Intn(64)) / 63,
		}
	}
	assertSame(t, "collisions", &ScheduleResponse{Segments: segs})
}

func TestAppendBatchMatchesEncodingJSON(t *testing.T) {
	r := paperResponse(t, "S^F2", 20, 4, 7)
	cached := *r
	cached.Cached = true
	for name, br := range map[string]*BatchResponse{
		"nil items":   {ElapsedMS: 1},
		"empty items": {Version: Version, Items: []BatchItem{}},
		"mixed": {Version: Version, ElapsedMS: 12.5, Items: []BatchItem{
			{Index: 0, Response: r},
			{Index: 1, Error: "unknown algorithm \"x\" <&>", Status: 404, Code: CodeUnknownAlgorithm},
			{Index: 2, Error: "admission queue full", Status: 429, Code: CodeOverloaded, Retryable: true},
			{Index: 3, Response: &cached},
			{Index: 4},
		}},
	} {
		want, err := oracle(br)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendBatch(nil, br)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %.300q\nwant %.300q", name, got, want)
		}
	}
	bad := &BatchResponse{Items: []BatchItem{{Response: &ScheduleResponse{Energy: math.NaN()}}}}
	if got, err := AppendBatch([]byte("x"), bad); err == nil || string(got) != "x" {
		t.Fatalf("NaN in a batch item: got %q, %v; want dst unchanged and an error", got, err)
	}
}

// TestAppendScheduleAllocs pins the allocation count of one n=100 encode
// into a nil buffer: the buffer itself, sized up front.
func TestAppendScheduleAllocs(t *testing.T) {
	r := paperResponse(t, "S^F2", 100, 16, 20140901)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := AppendSchedule(nil, r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("AppendSchedule at n=100 made %.0f allocations, ceiling 3", allocs)
	}
}

func BenchmarkAppendSchedule(b *testing.B) {
	for _, n := range []int{20, 100, 500} {
		r := paperResponse(b, "S^F2", n, 16, 20140901)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = AppendSchedule(buf[:0], r); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}

func BenchmarkEncodeScheduleReflect(b *testing.B) {
	r := paperResponse(b, "S^F2", 100, 16, 20140901)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := enc.Encode(r); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// TestEncoderFieldsPinned fails when a field is added to, removed from
// or reordered in a type the append encoder writes by hand: update
// encode.go with it, then this list.
func TestEncoderFieldsPinned(t *testing.T) {
	for typ, want := range map[reflect.Type]string{
		reflect.TypeFor[ScheduleResponse](): "version,omitempty algorithm cores energy busy_time makespan verified cached segments elapsed_ms degraded,omitempty fallback_algorithm,omitempty sim,omitempty",
		reflect.TypeFor[SegmentJSON]():      "task core start end frequency",
		reflect.TypeFor[SimReportJSON]():    "energy horizon core_busy utilization preemptions migrations wakeups violations,omitempty",
		reflect.TypeFor[BatchResponse]():    "version,omitempty items elapsed_ms",
		reflect.TypeFor[BatchItem]():        "index response,omitempty error,omitempty status,omitempty code,omitempty retryable,omitempty",
	} {
		var tags []string
		for i := 0; i < typ.NumField(); i++ {
			tags = append(tags, typ.Field(i).Tag.Get("json"))
		}
		if got := strings.Join(tags, " "); got != want {
			t.Errorf("%s fields changed:\n got %s\nwant %s\nupdate the encoder in encode.go", typ.Name(), got, want)
		}
	}
}
