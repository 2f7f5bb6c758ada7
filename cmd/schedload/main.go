// Command schedload is a closed-loop load generator for cmd/schedd: a
// fixed number of concurrent connections each issue POST /v1/schedule
// requests back-to-back, then the run reports throughput (req/s),
// latency percentiles (p50/p90/p99/max), response-code counts, cache-hit
// share, and — because every response is re-validated client-side with
// the universal schedule checker — validator failures, which must be
// zero.
//
// Usage:
//
//	schedload [-addr http://127.0.0.1:8080] [-c 16] [-duration 5s | -n 10000]
//	          [-algorithm S^F2] [-cores 4] [-alpha 3] [-p0 0.05]
//	          [-ntasks 20] [-distinct 16] [-seed 1] [-tasks FILE] [-no-verify]
//	          [-retries 0] [-tolerate-errors]
//
// Workloads are paper-default random instances by default (-ntasks tasks
// each, -distinct of them cycled round-robin, which also exercises the
// server's solve cache); -tasks FILE replays one fixed instance from a
// JSON or CSV file written by cmd/taskgen.
//
// With -retries > 0, transient failures (transport errors, 429, 502,
// 503, 504) are retried with capped exponential backoff plus jitter,
// honoring the server's Retry-After header — the client half of schedd's
// graceful-degradation contract. -tolerate-errors keeps exhausted HTTP
// errors from failing the run (for chaos soaks where some error budget
// is expected); validator failures always fail the run, because an
// invalid 200 is never acceptable.
//
// With -stream it instead drives the live dispatch runtime: N
// concurrent streaming sessions (-sessions), each fed a timed arrival
// trace (Poisson or bursty, from the generator zoo, or a taskgen
// -arrivals file via -trace) while consuming the session's SSE event
// stream, then closed with DELETE for the final report — whose realized
// schedule is re-validated client-side and whose per-session
// competitive ratio vs the clairvoyant optimum is aggregated:
//
//	schedload -stream -sessions 50 -process poisson -batches 20 -rate 0.5
//	schedload -stream -process bursty -debounce-ms 5 -regime harmonic
//
// With -reconnect (crash soak, against schedd -data-dir) broken SSE
// streams are resubscribed until the graceful terminator arrives, and
// replayed events — journal durability is at-least-once — are
// deduplicated by id, so a SIGKILL + restart of the server must still
// yield gapless event sequences and zero validator failures.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/cliflag"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/server/wire"
	"repro/internal/task"
)

// stats is one worker's tally; workers keep private stats and the main
// goroutine merges them, so the hot loop takes no locks.
type stats struct {
	ok, cached, verifyFail int64
	degraded, retried      int64
	codes                  map[int]int64
	latencies              []float64 // milliseconds
	firstErr               string
}

func main() {
	fs := cliflag.New("schedload")
	var (
		addr      = fs.String("addr", "http://127.0.0.1:8080", "schedd base URL")
		conc      = fs.Int("c", 16, "concurrent connections")
		duration  = fs.Duration("duration", 5*time.Second, "run length (ignored when -n > 0)")
		count     = fs.Int64("n", 0, "total requests (0 = run for -duration)")
		algorithm = fs.String("algorithm", "S^F2", "algorithm name (see GET /v1/algorithms)")
		cores     = fs.Int("cores", 4, "core count m")
		alpha     = fs.Float64("alpha", 3, "power-model exponent")
		p0        = fs.Float64("p0", 0.05, "power-model static term")
		gamma     = fs.Float64("gamma", 1, "power-model coefficient")
		ntasks    = fs.Int("ntasks", 20, "tasks per generated instance")
		distinct  = fs.Int("distinct", 16, "distinct generated instances cycled round-robin")
		seed      = fs.Int64("seed", 1, "workload RNG seed")
		tasksFile = fs.String("tasks", "", "replay one instance from a JSON/CSV file instead of generating")
		noVerify  = fs.Bool("no-verify", false, "skip client-side schedule validation")
		timeout   = fs.Duration("timeout", 10*time.Second, "per-request client timeout")
		retries   = fs.Int("retries", 0, "retry budget per request for transient failures (429/502/503/504/transport)")
		tolerate  = fs.Bool("tolerate-errors", false, "exit 0 despite HTTP errors (validator failures still fail the run)")

		stream     = fs.Bool("stream", false, "streaming-session mode: drive concurrent /v1/sessions lifecycles instead of one-shot solves")
		sessions   = fs.Int("sessions", 8, "concurrent streaming sessions (-stream)")
		process    = fs.String("process", "poisson", "arrival process per session: poisson or bursty (-stream)")
		batches    = fs.Int("batches", 20, "arrival batches per session (-stream)")
		rate       = fs.Float64("rate", 0.5, "mean batch-arrival rate per time unit (-stream)")
		batchLo    = fs.Int("batch-lo", 1, "min tasks per arrival batch (-stream)")
		batchHi    = fs.Int("batch-hi", 3, "max tasks per arrival batch (-stream)")
		regime     = fs.String("regime", "", "generator-zoo regime shaping batch contents (-stream)")
		debounceMS = fs.Float64("debounce-ms", 0, "server-side arrival-coalescing window (-stream)")
		traceFile  = fs.String("trace", "", "replay a taskgen -arrivals JSON trace in every session (-stream)")

		router    = fs.Bool("router", false, "cluster soak mode: the target is a schedrouter; retry through migrations (default -retries 4) and require gapless SSE ids")
		reconnect = fs.Bool("reconnect", false, "crash soak mode: resubscribe broken SSE streams and dedupe replayed events by id (-stream, use against schedd -data-dir)")
	)
	fs.Parse(os.Args[1:])

	// Cluster soak mode: migrations surface as transient 503s at the
	// router, so give the client a retry budget unless one was chosen.
	if *router {
		retriesSet := false
		fs.Visit(func(name string) { retriesSet = retriesSet || name == "retries" })
		if !retriesSet {
			*retries = 4
		}
	}

	if *stream {
		// One-shot solves default to the paper's S^F2; streaming sessions
		// default to the online ReplanDER policy unless -algorithm is set.
		algo := "ReplanDER"
		fs.Visit(func(name string) {
			if name == "algorithm" {
				algo = *algorithm
			}
		})
		pm := power.Model{Gamma: *gamma, Alpha: *alpha, P0: *p0}
		if err := pm.Validate(); err != nil {
			fatalf("%v", err)
		}
		os.Exit(runStream(streamConfig{
			addr:      *addr,
			sessions:  *sessions,
			algorithm: algo,
			cores:     *cores,
			model:     wire.ModelJSON{Gamma: *gamma, Alpha: *alpha, P0: *p0},
			pm:        pm,

			process:    *process,
			batches:    *batches,
			rate:       *rate,
			batchLo:    *batchLo,
			batchHi:    *batchHi,
			regime:     *regime,
			debounceMS: *debounceMS,
			traceFile:  *traceFile,

			seed:      *seed,
			noVerify:  *noVerify,
			retries:   *retries,
			tolerate:  *tolerate,
			timeout:   *timeout,
			reconnect: *reconnect,
		}))
	}

	pm := power.Model{Gamma: *gamma, Alpha: *alpha, P0: *p0}
	if err := pm.Validate(); err != nil {
		fatalf("%v", err)
	}
	instances, err := buildInstances(*tasksFile, *ntasks, *distinct, *seed)
	if err != nil {
		fatalf("%v", err)
	}

	// Pre-marshal every request body once; the hot loop only POSTs.
	bodies := make([][]byte, len(instances))
	for i, ts := range instances {
		b, err := json.Marshal(wire.ScheduleRequest{
			Algorithm: *algorithm, Cores: *cores,
			Model: wire.ModelJSON{Gamma: *gamma, Alpha: *alpha, P0: *p0},
			Tasks: ts,
		})
		if err != nil {
			fatalf("marshal: %v", err)
		}
		bodies[i] = b
	}

	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        *conc,
			MaxIdleConnsPerHost: *conc,
		},
	}
	url := strings.TrimRight(*addr, "/") + "/v1/schedule"

	var issued atomic.Int64
	deadline := time.Now().Add(*duration)
	next := func() int64 {
		n := issued.Add(1)
		if *count > 0 {
			if n > *count {
				return -1
			}
			return n - 1
		}
		if time.Now().After(deadline) {
			return -1
		}
		return n - 1
	}

	fmt.Fprintf(os.Stderr, "schedload: %d conns -> %s algo=%s cores=%d instances=%d(%d tasks)\n",
		*conc, url, *algorithm, *cores, len(instances), len(instances[0]))

	all := make([]*stats, *conc)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *conc; w++ {
		st := &stats{codes: make(map[int]int64)}
		all[w] = st
		// Per-worker jitter RNG: no locks in the hot loop.
		rng := rand.New(rand.NewSource(*seed + int64(w)*7919))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next()
				if i < 0 {
					return
				}
				k := int(i) % len(instances)
				shoot(client, url, bodies[k], instances[k], *cores, pm, *noVerify, *retries, rng, st)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	report(all, elapsed)
	exit := 0
	for _, st := range all {
		if st.verifyFail > 0 {
			exit = 1 // an invalid 200 is never tolerable
		}
		if st.firstErr != "" && !*tolerate {
			exit = 1
		}
	}
	os.Exit(exit)
}

// statusError describes a non-2xx response as "HTTP <status>: <code>:
// <message>" from its error envelope, or with the raw body when the
// body is not an envelope.
func statusError(status int, body []byte) string {
	if d, ok := wire.DecodeError(body); ok {
		return fmt.Sprintf("HTTP %d: %s: %s", status, d.Code, d.Message)
	}
	return fmt.Sprintf("HTTP %d: %s", status, bytes.TrimSpace(body))
}

// backoffWait computes the next retry delay: exponential from 50ms with
// full jitter, capped at 2s; an explicit server Retry-After wins.
func backoffWait(attempt int, retryAfter string, rng *rand.Rand) time.Duration {
	if retryAfter != "" {
		if secs, err := strconv.Atoi(retryAfter); err == nil && secs >= 0 {
			w := time.Duration(secs) * time.Second
			if w > 2*time.Second {
				w = 2 * time.Second
			}
			return w
		}
	}
	base := 50 * time.Millisecond << uint(attempt)
	if base > 2*time.Second {
		base = 2 * time.Second
	}
	return base/2 + time.Duration(rng.Int63n(int64(base/2)+1))
}

// shoot issues one request (with up to `retries` transient-failure
// retries) and records the final outcome into st.
func shoot(client *http.Client, url string, body []byte, ts task.Set, cores int, pm power.Model, noVerify bool, retries int, rng *rand.Rand, st *stats) {
	t0 := time.Now()
	var resp *http.Response
	var payload []byte
	var err error
	for attempt := 0; ; attempt++ {
		resp, err = client.Post(url, "application/json", bytes.NewReader(body))
		retryAfter := ""
		if err == nil {
			payload, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			retryAfter = resp.Header.Get("Retry-After")
		}
		transient := err != nil || wire.RetryableStatus(resp.StatusCode)
		if !transient || attempt >= retries {
			break
		}
		st.retried++
		time.Sleep(backoffWait(attempt, retryAfter, rng))
	}
	lat := float64(time.Since(t0)) / float64(time.Millisecond)
	if err != nil {
		st.codes[-1]++
		if st.firstErr == "" {
			st.firstErr = err.Error()
		}
		return
	}
	st.codes[resp.StatusCode]++
	if resp.StatusCode != http.StatusOK {
		if st.firstErr == "" {
			st.firstErr = statusError(resp.StatusCode, payload)
		}
		return
	}
	var sr wire.ScheduleResponse
	if err := json.Unmarshal(payload, &sr); err != nil {
		st.codes[-1]++
		if st.firstErr == "" {
			st.firstErr = fmt.Sprintf("bad response body: %v", err)
		}
		return
	}
	st.ok++
	st.latencies = append(st.latencies, lat)
	if sr.Cached {
		st.cached++
	}
	if sr.Degraded {
		st.degraded++
	}
	if !noVerify {
		sched := schedule.New(ts, cores)
		for _, seg := range sr.Segments {
			sched.Add(schedule.Segment{
				Task: seg.Task, Core: seg.Core,
				Start: seg.Start, End: seg.End, Frequency: seg.Frequency,
			})
		}
		if violations := check.Validate(sched, ts, cores, pm); len(violations) > 0 {
			st.verifyFail++
			if st.firstErr == "" {
				st.firstErr = fmt.Sprintf("validator: %v", violations[0])
			}
		}
	}
}

// buildInstances loads the fixed instance from file, or generates
// `distinct` paper-default workloads of n tasks each.
func buildInstances(file string, n, distinct int, seed int64) ([]task.Set, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var ts task.Set
		if strings.EqualFold(filepath.Ext(file), ".csv") {
			ts, err = task.ReadCSV(f)
		} else {
			ts, err = task.Read(f)
		}
		if err != nil {
			return nil, err
		}
		return []task.Set{ts}, nil
	}
	if distinct < 1 {
		distinct = 1
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]task.Set, 0, distinct)
	for i := 0; i < distinct; i++ {
		ts, err := task.Generate(rng, task.PaperDefaults(n))
		if err != nil {
			return nil, err
		}
		out = append(out, ts)
	}
	return out, nil
}

// report merges worker tallies and prints the run summary.
func report(all []*stats, elapsed time.Duration) {
	var ok, cached, verifyFail, degraded, retried int64
	codes := make(map[int]int64)
	var lats []float64
	firstErr := ""
	for _, st := range all {
		ok += st.ok
		cached += st.cached
		verifyFail += st.verifyFail
		degraded += st.degraded
		retried += st.retried
		for c, n := range st.codes {
			codes[c] += n
		}
		lats = append(lats, st.latencies...)
		if firstErr == "" {
			firstErr = st.firstErr
		}
	}
	sort.Float64s(lats)
	q := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	var errs int64
	for c, n := range codes {
		if c != http.StatusOK {
			errs += n
		}
	}
	fmt.Printf("requests:   %d ok, %d errors, %d validator failures\n", ok, errs, verifyFail)
	fmt.Printf("throughput: %.1f req/s over %s\n", float64(ok)/elapsed.Seconds(), elapsed.Round(time.Millisecond))
	if len(lats) > 0 {
		fmt.Printf("latency ms: p50=%.3f p90=%.3f p99=%.3f max=%.3f\n", q(0.50), q(0.90), q(0.99), lats[len(lats)-1])
	}
	if ok > 0 {
		fmt.Printf("cache:      %d hits (%.1f%% of ok responses)\n", cached, 100*float64(cached)/float64(ok))
	}
	if degraded > 0 {
		fmt.Printf("degraded:   %d responses served by the fallback chain (%.1f%% of ok)\n",
			degraded, 100*float64(degraded)/float64(ok))
	}
	if retried > 0 {
		fmt.Printf("retries:    %d transient failures retried\n", retried)
	}
	if len(codes) > 1 || codes[http.StatusOK] == 0 {
		keys := make([]int, 0, len(codes))
		for c := range codes {
			keys = append(keys, c)
		}
		sort.Ints(keys)
		for _, c := range keys {
			label := fmt.Sprintf("HTTP %d", c)
			if c == -1 {
				label = "transport error"
			}
			fmt.Printf("  %-16s %d\n", label, codes[c])
		}
	}
	if firstErr != "" {
		fmt.Printf("first error: %s\n", firstErr)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "schedload: "+format+"\n", args...)
	os.Exit(2)
}
