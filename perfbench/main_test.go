package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// returns, including its extrapolation below two samples' range.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25}, [3]float64{0.6875, 2.375, 4.0625}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, [3]float64{20, 40, 60}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},  // overlaps a
		{ID: 4, Parent: 3, Name: "c", Start: 45, End: 48},  // b's child
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 130}, // runs past root
		{ID: 6, Parent: 2, Name: "a.1", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (50 - 10) - (100 - 90), // children cover [10,50] and [90,100]
		2: 30 - 5,
		3: 20 - 3,
		4: 3,
		5: 40,
		6: 5,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *recorder
	id := r.begin("x", 1, 0)
	r.end(id)
	if id != 0 {
		t.Errorf("nil recorder returned span id %d", id)
	}
	r = newRecorder()
	parent := r.begin("p", 7, 0)
	child := r.begin("c", 7, parent)
	r.end(child)
	r.begin("never closed", 7, parent)
	r.end(parent)
	spans := r.closed()
	if len(spans) != 2 || spans[0].Parent != 0 || spans[1].Parent != parent || spans[1].RID != 7 || spans[0].dur() < spans[1].dur() {
		t.Errorf("closed spans = %+v", spans)
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the emitted metrics, their
// units and the workload list in step with BENCHMARK.json.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, declared []struct{ Name, Unit string }, emitted []metricDef) {
		if len(declared) != len(emitted) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark emits %d", kind, len(declared), len(emitted))
			return
		}
		for i := range declared {
			if declared[i].Name != emitted[i].name || declared[i].Unit != emitted[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark emits %s (%s)",
					kind, i, declared[i].Name, declared[i].Unit, emitted[i].name, emitted[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := workloadNames(); !reflect.DeepEqual(names, got) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, got)
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and expects a correct result carrying exactly the declared metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the serving stack")
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 3, seconds: 1, trace: trace, workDir: t.TempDir()}
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := reported(trace)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			if trace {
				if _, err := os.Stat(filepath.Join(o.workDir, "spans-"+name+"-3.jsonl")); err != nil {
					t.Errorf("%s: spans file: %v", name, err)
				}
				continue
			}
			for _, d := range want {
				if m := res.Metrics[d.name]; !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}
