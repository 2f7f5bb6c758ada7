package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/server/wire"
)

// The fixed work of a run is sized from --seconds so that, on the
// reference machine (2 vCPU, go1.24), the measured window lasts about
// that long today; a faster program does the same work sooner. The
// per-second rates below are those calibrations.
var workloads = map[string]func(ctx context.Context, b *bench) error{
	// S^F2 at n=100 on 16 cores, every request a new instance: the
	// in-band validator dominates, the cache is written but never read.
	"oneshot-n100": func(ctx context.Context, b *bench) error {
		return runOneShot(ctx, b, oneShotParams{
			tasks: 100, cores: 16, perSecond: 24, repeats: 1, sample: 8,
			backends: 1, router: false,
		})
	},
	// S^F2 at n=20 on 4 cores through the router to two backends, every
	// instance sent twice: routing, HTTP, wire and the cache dominate.
	"router-n20": func(ctx context.Context, b *bench) error {
		return runOneShot(ctx, b, oneShotParams{
			tasks: 20, cores: 4, perSecond: 800, repeats: 2, sample: 64,
			backends: 2, router: true,
		})
	},
	// Journaled streaming sessions, one at a time, each re-planning on
	// every arrival batch and ending with the clairvoyant-optimum finish.
	"session-stream": runSessions,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// model is the power model of every workload: p(f) = f³ + 0.05.
var model = wire.ModelJSON{Alpha: 3, P0: 0.05}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer list the reported metrics in BENCHMARK.json
// order; a test keeps the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"}, {"finish_p50_ms", "ms"},
	{"energy_ratio", "ratio"}, {"peak_heap_mb", "MB"},
}

// latency_p95_ms is printed on every run but bounded nowhere: its run-to-run
// spread on a shared 2-vCPU host exceeds the largest bound allowed.
var perLayer = []metricDef{
	{"latency_p95_ms", "ms"},
	{"check.validate_ms", "ms"}, {"check.segments", "count"}, {"check.validate_share", "ratio"},
	{"interval.decompose_ms", "ms"}, {"interval.subintervals", "count"},
	{"ideal.build_ms", "ms"}, {"alloc.build_ms", "ms"},
	{"core.schedule_ms", "ms"}, {"core.self_ms", "ms"},
	{"sim.run_ms", "ms"}, {"opt.solve_ms", "ms"},
	{"wire.decode_ms", "ms"}, {"wire.encode_ms", "ms"}, {"wire.response_kb", "KiB"},
	{"server.handler_ms", "ms"}, {"server.transport_ms", "ms"}, {"server.cache_hit_ratio", "ratio"},
	{"server.solves", "count"}, {"server.sse_lag_ms", "ms"},
	{"cluster.hop_ms", "ms"}, {"cluster.retries", "count"}, {"cluster.backend_share_max", "ratio"},
	{"dispatch.arrive_ms", "ms"}, {"dispatch.self_ms", "ms"}, {"dispatch.residual_tasks", "count"},
	{"dispatch.replans", "count"}, {"dispatch.shed", "count"}, {"dispatch.finish_ms", "ms"},
	{"journal.append_ms", "ms"}, {"journal.records_per_arrival", "count"}, {"journal.bytes_per_arrival", "B"},
	{"trace.latency_p50_ms", "ms"}, {"trace.ops_per_s", "1/s"}, {"trace.span_cost_us", "us"},
}

func reported(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// unitOf returns a metric's unit; every metric a run sets is declared.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// zeroLayers reports every per-layer metric not yet measured as 0 before
// a traced run fills in the layers its workload exercises: a layer the
// workload never calls did no work.
func (b *bench) zeroLayers() {
	for _, d := range perLayer {
		if _, ok := b.report[d.name]; !ok {
			b.set(d.name, 0)
		}
	}
}

// setup starts the stack setupReps times, keeps the last one running in
// b.st, and reports the median start-to-ready time as setup_s. Each
// start gets a fresh data directory, so journal recovery always scans
// an empty journal.
func (b *bench) setup(ctx context.Context, spec stackSpec) error {
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		s := spec
		if spec.dataDir != "" {
			s.dataDir = filepath.Join(b.dir, fmt.Sprintf("journal-%d", rep))
		}
		start := time.Now()
		st, err := startStack(ctx, s)
		if err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds())
		if rep < setupReps-1 {
			st.close()
			if s.dataDir != "" {
				if err := os.RemoveAll(s.dataDir); err != nil {
					st.close()
					return err
				}
			}
			continue
		}
		b.st = st
	}
	q1, q2, q3 := quartiles(times)
	fmt.Printf("setup: %d starts, quartiles %.3g / %.3g / %.3g s\n", len(times), q1, q2, q3)
	b.set("setup_s", median(times))
	return nil
}

// window runs drive as the measured window: the heap is collected
// first so every run starts from the same state, and the peak heap is
// sampled throughout. It returns the window's wall time in seconds.
func (b *bench) window(drive func()) float64 {
	runtime.GC()
	hp := startHeapPeak()
	start := time.Now()
	drive()
	secs := time.Since(start).Seconds()
	b.set("peak_heap_mb", hp.finish())
	return secs
}
