package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/alloc"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/ideal"
	"repro/internal/interval"
	"repro/internal/server/wire"
	"repro/internal/sim"
	"repro/internal/task"
)

// spanMeans returns the mean duration in ms of the spans with each name.
func spanMeans(spans []span) map[string]float64 {
	sum := map[string]float64{}
	n := map[string]int{}
	for _, s := range spans {
		sum[s.Name] += float64(s.dur()) / 1e6
		n[s.Name]++
	}
	for k := range sum {
		sum[k] /= float64(n[k])
	}
	return sum
}

// setSpanMeans reports the mean of each named span as a per-layer metric.
func (b *bench) setSpanMeans(names map[string]string) {
	means := spanMeans(b.rec.closed())
	for spanName, metricName := range names {
		if v, ok := means[spanName]; ok {
			b.set(metricName, v)
		}
	}
}

// coreSelf reports core.self_ms: the time core.Solver.Schedule spends
// beyond the decomposition, ideal plan and allocation it starts with,
// i.e. packing, frequency finalization and its internal checks. The
// program has no spans inside Schedule, so the three stages are replayed
// standalone on the same input and subtracted.
func (b *bench) coreSelf() {
	m := b.report
	self := m["core.schedule_ms"].Value - m["interval.decompose_ms"].Value - m["ideal.build_ms"].Value - m["alloc.build_ms"].Value
	b.set("core.self_ms", self)
}

// replayStages times the three standalone pipeline stages on ts under
// parent and returns the decomposition's subinterval count.
func (b *bench) replayStages(ts task.Set, m, rid, parent int) (int, error) {
	pm, err := model.Model()
	if err != nil {
		return 0, err
	}
	id := b.rec.begin("interval.decompose", rid, parent)
	d, err := interval.Decompose(ts, 1e-9)
	b.rec.end(id)
	if err != nil {
		return 0, err
	}
	id = b.rec.begin("ideal.build", rid, parent)
	plan, err := ideal.Build(ts, pm)
	b.rec.end(id)
	if err != nil {
		return 0, err
	}
	id = b.rec.begin("alloc.build", rid, parent)
	_, err = alloc.Build(d, m, alloc.DER, plan)
	b.rec.end(id)
	return d.NumSubs(), err
}

// replayOneShot replays every distinct request body through the layers
// a cache-missing POST /v1/schedule runs: decode, the Section V
// pipeline stages, the S^F2 solve, the validator guardrail, the
// simulator and the response encode.
func (b *bench) replayOneShot(bodies [][]byte) {
	solver := core.NewSolver()
	var segs, subs, kb []float64
	for i, body := range bodies {
		rid := ridReplay + i
		root := b.rec.begin("replay.schedule", rid, 0)
		err := func() error {
			id := b.rec.begin("wire.decode", rid, root)
			var req wire.ScheduleRequest
			err := json.Unmarshal(body, &req)
			b.rec.end(id)
			if err != nil {
				return err
			}
			pm, err := req.Model.Model()
			if err != nil {
				return err
			}
			n, err := b.replayStages(req.Tasks, req.Cores, rid, root)
			if err != nil {
				return err
			}
			subs = append(subs, float64(n))
			id = b.rec.begin("core.schedule", rid, root)
			res, err := solver.Schedule(req.Tasks, req.Cores, pm, alloc.DER, core.Options{Tolerance: 1e-9})
			b.rec.end(id)
			if err != nil {
				return err
			}
			segs = append(segs, float64(len(res.Final.Segments)))
			id = b.rec.begin("check.validate", rid, root)
			v := check.Validate(res.Final, req.Tasks, req.Cores, pm)
			b.rec.end(id)
			if len(v) > 0 {
				return fmt.Errorf("replay %d: %v", i, v[0])
			}
			id = b.rec.begin("sim.run", rid, root)
			rep, err := sim.Run(res.Final, pm)
			b.rec.end(id)
			if err != nil {
				return err
			}
			id = b.rec.begin("wire.encode", rid, root)
			out, err := json.Marshal(&wire.ScheduleResponse{
				Version: wire.Version, Algorithm: req.Algorithm, Cores: req.Cores,
				Energy: res.FinalEnergy, BusyTime: res.Final.BusyTime(), Makespan: res.Final.Makespan(),
				Verified: true, Segments: wire.Segments(res.Final), Sim: wire.SimReport(rep),
			})
			b.rec.end(id)
			kb = append(kb, float64(len(out))/1024)
			return err
		}()
		b.rec.end(root)
		if err != nil {
			b.fail("replay %d: %v", i, err)
		}
	}
	b.setSpanMeans(map[string]string{
		"wire.decode": "wire.decode_ms", "interval.decompose": "interval.decompose_ms",
		"ideal.build": "ideal.build_ms", "alloc.build": "alloc.build_ms",
		"core.schedule": "core.schedule_ms", "check.validate": "check.validate_ms",
		"sim.run": "sim.run_ms", "wire.encode": "wire.encode_ms", "opt.solve": "opt.solve_ms",
	})
	b.coreSelf()
	b.set("check.segments", mean(segs))
	b.set("interval.subintervals", mean(subs))
	b.set("wire.response_kb", mean(kb))
}

// hop estimates the router's added latency: a direct stream of fresh
// instances, shaped like the routed one, goes straight to the first
// backend, and routed and direct medians are compared hit-to-hit and
// miss-to-miss, weighted by the routed counts.
func (b *bench) hop(ctx context.Context, c *http.Client, p oneShotParams, routed []oneShotOp) float64 {
	o := b.opt
	o.seconds = max(o.seconds/4, 1)
	_, bodies, order, err := oneShotInputs(o, p, "direct")
	if err != nil {
		b.fail("hop: %v", err)
		return 0
	}
	direct := make([]oneShotOp, len(order))
	driveOneShot(ctx, b, c, b.st.backends[0], bodies, order, direct, nil, 0, ridDirect)
	split := func(ops []oneShotOp) (hit, miss []float64) {
		for _, op := range ops {
			switch {
			case !op.ok:
			case op.cached:
				hit = append(hit, op.ms)
			default:
				miss = append(miss, op.ms)
			}
		}
		return hit, miss
	}
	rh, rm := split(routed)
	dh, dm := split(direct)
	if len(rh) == 0 || len(rm) == 0 || len(dh) == 0 || len(dm) == 0 {
		b.fail("hop: need hits and misses on both paths")
		return 0
	}
	n := float64(len(rh) + len(rm))
	return (float64(len(rh))*(median(rh)-median(dh)) + float64(len(rm))*(median(rm)-median(dm))) / n
}
