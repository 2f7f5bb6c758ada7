// Command perfbench is the repository's end-to-end benchmark. It starts
// the real serving stack in this process on loopback ports (schedd
// instances from internal/server, a router from internal/cluster, a
// journal directory for internal/journal), drives one seeded, fixed-work
// workload through it as a closed loop of at most two connections,
// checks every output, and prints the metrics named in BENCHMARK.json.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload oneshot-n100|router-n20|session-stream
//	          [--seed 20140901] [--seconds 20] [--trace 0|1]
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics. With --trace 1 the same workload runs with a
// span recorder, its inputs are replayed through each layer's public
// functions, the spans are written to .bench_build/perfbench/, and the
// JSON carries the per-layer metrics instead. Lines before the JSON are
// a human-readable table.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// defaultSeed is the seed every workload uses unless --seed says
// otherwise (the repository's customary experiment seed).
const defaultSeed = 20140901

// runDeadline bounds a whole run, so it always ends within the three
// minutes a run is allowed.
const runDeadline = 170 * time.Second

// setupReps is how many times a run starts the stack; setup_s is the
// median.
const setupReps = 21

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workDir  string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one run.
type bench struct {
	opt    options
	rec    *recorder // nil unless --trace 1
	st     *stack
	dir    string // this run's scratch directory under workDir
	report map[string]metric

	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
}

// op counts one attempted operation and, when err is non-nil, its
// failure.
func (b *bench) op(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.problems) < 20 {
			b.problems = append(b.problems, err.Error())
		}
	}
}

// fail records a run-level check failure; it counts as one failed op.
func (b *bench) fail(format string, args ...any) {
	b.op(fmt.Errorf(format, args...))
}

func (b *bench) set(name string, v float64) {
	b.report[name] = metric{Value: v, Unit: unitOf(name)}
}

func main() {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "input seed")
	fs.IntVar(&o.seconds, "seconds", 20, "work budget in seconds on the reference machine (sizes the fixed work)")
	fs.IntVar(&trace, "trace", 0, "1 = traced run with per-layer metrics")
	fs.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory for journals and spans")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and returns its result; an error means the
// benchmark itself could not run (no result is printed).
func run(o options) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{opt: o, dir: dir, report: map[string]metric{}}
	if o.trace {
		b.rec = newRecorder()
	}
	if err := workloads[o.workload](ctx, b); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		b.fail("run exceeded its %s deadline", runDeadline)
	}
	if b.rec != nil {
		b.set("trace.span_cost_us", spanCost())
		path := filepath.Join(o.workDir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
		if err := b.rec.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("spans: %s (%d)\n", path, len(b.rec.closed()))
	}
	res := &result{Metrics: map[string]metric{}}
	for _, d := range reported(o.trace) {
		m, ok := b.report[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.fail("metric %s is %v", d.name, m.Value)
			m.Value = 0
		}
		res.Metrics[d.name] = m
	}
	res.Correct, res.Attempted, res.Failed = b.failed == 0, b.attempted, b.failed
	printTable(b)
	return res, nil
}

// printTable writes every measured number, one per line, then any
// correctness problems.
func printTable(b *bench) {
	mode := "end-to-end"
	if b.opt.trace {
		mode = "traced, per-layer"
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d (%s)\n", b.opt.workload, b.opt.seed, b.opt.seconds, mode)
	names := make([]string, 0, len(b.report))
	for n := range b.report {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, b.report[n].Value, b.report[n].Unit)
	}
	fmt.Printf("  %-28s %14.6g %s  (%d of %d ops)\n", "fail_frac", float64(b.failed)/float64(max(b.attempted, 1)), "ratio", b.failed, b.attempted)
	for _, p := range b.problems {
		fmt.Printf("  FAIL: %s\n", p)
	}
}
