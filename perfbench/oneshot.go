package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/server/wire"
	"repro/internal/task"
)

// oneShotParams sizes a POST /v1/schedule workload.
type oneShotParams struct {
	tasks, cores int
	perSecond    int  // requests per second of --seconds
	repeats      int  // sends per instance (1 or 2)
	sample       int  // first instances fully checked off the clock, with E/E^opt
	backends     int  // schedd instances
	router       bool // send through the cluster router
}

// repeatGap is the distance, in requests, between the two sends of one
// instance: its first response is long cached when the repeat goes out.
const repeatGap = 64

// oneShotOp is the client's record of one request.
type oneShotOp struct {
	ms      float64
	cached  bool
	elapsed float64 // the response's elapsed_ms
	ok      bool
}

// scheduleHead is the part of a ScheduleResponse the per-response
// invariants need; decoding it skips building the segment list.
type scheduleHead struct {
	Algorithm string  `json:"algorithm"`
	Energy    float64 `json:"energy"`
	Verified  bool    `json:"verified"`
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Degraded  bool    `json:"degraded"`
	Sim       *struct {
		Violations []string `json:"violations"`
	} `json:"sim"`
}

// oneShotInputs generates the run's distinct instances and the send
// order: with two sends per instance, firsts go out in blocks of
// repeatGap and each block's repeats follow the next block's firsts.
func oneShotInputs(o options, p oneShotParams, stream string) (insts []task.Set, bodies [][]byte, order []int, err error) {
	n := max(p.perSecond*o.seconds/p.repeats, p.sample)
	seen := make(map[[32]byte]bool, n)
	for i := 0; i < n; i++ {
		ts, err := task.Generate(rng(o.seed, stream, i), task.PaperDefaults(p.tasks))
		if err != nil {
			return nil, nil, nil, err
		}
		body, err := json.Marshal(wire.ScheduleRequest{Algorithm: "S^F2", Cores: p.cores, Model: model, Tasks: ts})
		if err != nil {
			return nil, nil, nil, err
		}
		sum := sha256.Sum256(body)
		if seen[sum] {
			return nil, nil, nil, fmt.Errorf("seed %d repeats instance %d", o.seed, i)
		}
		seen[sum] = true
		insts, bodies = append(insts, ts), append(bodies, body)
	}
	for lo := 0; lo < n; lo += repeatGap {
		hi := min(lo+repeatGap, n)
		for i := lo; i < hi; i++ {
			order = append(order, i)
		}
		if p.repeats == 2 && lo >= repeatGap {
			for i := lo - repeatGap; i < lo; i++ {
				order = append(order, i)
			}
		}
	}
	if p.repeats == 2 {
		for i := (n - 1) / repeatGap * repeatGap; i < n; i++ {
			order = append(order, i)
		}
	}
	return insts, bodies, order, nil
}

func runOneShot(ctx context.Context, b *bench, p oneShotParams) error {
	insts, bodies, order, err := oneShotInputs(b.opt, p, "instance")
	if err != nil {
		return err
	}
	if err := b.setup(ctx, stackSpec{backends: p.backends, router: p.router}); err != nil {
		return err
	}
	defer b.st.close()
	client, tr := newClient()
	defer tr.CloseIdleConnections()
	pm, err := model.Model()
	if err != nil {
		return err
	}
	b.preflight(ctx, client)

	before, rBefore, err := b.st.scrapeAll(ctx, client)
	if err != nil {
		return err
	}
	ops := make([]oneShotOp, len(order))
	sample := make([]*wire.ScheduleResponse, p.sample)
	secs := b.window(func() {
		driveOneShot(ctx, b, client, b.st.front, bodies, order, ops, sample, p.sample, 0)
	})
	after, rAfter, err := b.st.scrapeAll(ctx, client)
	if err != nil {
		return err
	}

	var lat, handler, transport []float64
	var good, misses, hits int
	for _, op := range ops {
		if !op.ok {
			continue
		}
		good++
		lat = append(lat, op.ms)
		handler = append(handler, op.elapsed)
		transport = append(transport, op.ms-op.elapsed)
		if op.cached {
			hits++
		} else {
			misses++
		}
	}

	// /metrics deltas must agree with what the client saw.
	solves := delta(before, after, "schedd_solves_total")
	srvHits := delta(before, after, "schedd_cache_hits_total")
	if p.repeats == 1 && srvHits != 0 {
		b.fail("every instance is new, yet the cache served %v hits", srvHits)
	}
	if int(solves) != misses || int(srvHits) != hits {
		b.fail("server solves %v / cache hits %v != client-observed misses %d / hits %d", solves, srvHits, misses, hits)
	}
	var retries float64
	shareMax := 1.0
	if rAfter != nil {
		retries = rAfter["schedrouter_proxy_retries_total"] - rBefore["schedrouter_proxy_retries_total"]
		var routed, most float64
		for _, url := range b.st.backends {
			name := fmt.Sprintf("schedrouter_backend_requests_total{backend=%q}", strings.TrimPrefix(url, "http://"))
			d := rAfter[name] - rBefore[name]
			routed += d
			most = math.Max(most, d)
		}
		if routed != float64(len(order))+retries {
			b.fail("router sent %v backend requests for %d client requests and %v retries", routed, len(order), retries)
		}
		shareMax = most / math.Max(routed, 1)
	}

	ratios := b.checkSample(insts[:p.sample], sample, p.cores, pm)

	b.set("ops_per_s", float64(good)/secs)
	b.set("latency_p50_ms", percentile(lat, 50))
	b.set("latency_p95_ms", percentile(lat, 95))
	// A one-shot request is its own finish: it returns the final answer.
	b.set("finish_p50_ms", percentile(lat, 50))
	b.set("energy_ratio", mean(ratios))
	if b.rec == nil {
		return nil
	}

	// Traced run: this run's own end-to-end numbers (the recorder was
	// on), the server-side split, then the layer replay.
	b.zeroLayers()
	b.set("trace.latency_p50_ms", percentile(lat, 50))
	b.set("trace.ops_per_s", float64(good)/secs)
	b.set("server.handler_ms", mean(handler))
	b.set("server.transport_ms", mean(transport))
	b.set("server.solves", solves)
	if lookups := solves + srvHits; lookups > 0 {
		b.set("server.cache_hit_ratio", srvHits/lookups)
	}
	b.set("cluster.retries", retries)
	b.set("cluster.backend_share_max", shareMax)
	if p.router {
		b.set("cluster.hop_ms", b.hop(ctx, client, p, ops))
	}
	b.replayOneShot(bodies)
	b.set("check.validate_share", b.report["check.validate_ms"].Value*solves/float64(len(order))/mean(lat))
	return nil
}

// Request IDs of spans: each stream of requests gets its own range.
const (
	ridReplay = 1 << 20
	ridDirect = 2 << 20
)

// driveOneShot sends bodies in order from two closed-loop clients, each
// sending its next request only after the previous response is read.
func driveOneShot(ctx context.Context, b *bench, c *http.Client, base string, bodies [][]byte, order []int, ops []oneShotOp, sample []*wire.ScheduleResponse, keepFirst, ridBase int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(order) || ctx.Err() != nil {
					return
				}
				inst := order[i]
				// Only an instance's first send is kept: its slot is
				// written exactly once.
				keep := inst < keepFirst && i == firstSend(order, inst)
				id := b.rec.begin("http.schedule", ridBase+i, 0)
				op, full, err := sendSchedule(ctx, c, base, "S^F2", bodies[inst], keep)
				b.rec.end(id)
				ops[i] = op
				if keep {
					sample[inst] = full
				}
				b.op(err)
			}
		}()
	}
	wg.Wait()
}

// firstSend returns the position of inst's first send in order.
func firstSend(order []int, inst int) int {
	for i, v := range order {
		if v == inst {
			return i
		}
	}
	return -1
}

// sendSchedule posts one instance and checks the response's cheap
// invariants: 200, verified, not degraded, finite energy, clean sim.
// With keep it also returns the fully decoded response.
func sendSchedule(ctx context.Context, c *http.Client, base, algorithm string, body []byte, keep bool) (oneShotOp, *wire.ScheduleResponse, error) {
	status, resp, ms, err := exchange(ctx, c, http.MethodPost, base+"/v1/schedule", body)
	op := oneShotOp{ms: ms}
	if err != nil {
		return op, nil, err
	}
	if status != http.StatusOK {
		return op, nil, fmt.Errorf("schedule: HTTP %d: %.200s", status, resp)
	}
	var h scheduleHead
	if err := json.Unmarshal(resp, &h); err != nil {
		return op, nil, fmt.Errorf("schedule: decode: %w", err)
	}
	switch {
	case !h.Verified:
		return op, nil, fmt.Errorf("schedule: response not verified")
	case h.Degraded:
		return op, nil, fmt.Errorf("schedule: degraded response")
	case math.IsNaN(h.Energy) || math.IsInf(h.Energy, 0) || h.Energy <= 0:
		return op, nil, fmt.Errorf("schedule: energy %v", h.Energy)
	case h.Algorithm != algorithm:
		return op, nil, fmt.Errorf("schedule: algorithm %q", h.Algorithm)
	case h.Sim == nil || len(h.Sim.Violations) > 0:
		return op, nil, fmt.Errorf("schedule: simulator report missing or violated")
	}
	op.cached, op.elapsed, op.ok = h.Cached, h.ElapsedMS, true
	if !keep {
		return op, nil, nil
	}
	full := new(wire.ScheduleResponse)
	if err := json.Unmarshal(resp, full); err != nil {
		return op, nil, fmt.Errorf("schedule: decode: %w", err)
	}
	return op, full, nil
}
