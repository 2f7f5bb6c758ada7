package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/dispatch"
	"repro/internal/journal"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/server/wire"
	"repro/internal/sim"
	"repro/internal/task"
)

// Each session replays a seeded arrival trace: Poisson batches at rate
// 1, 1-3 tasks each from the generator zoo's bursty regime. Sessions
// differ a lot in load, so a run holds many short ones: one per second
// of --seconds (about 2 s each on the reference machine).
const (
	sessionBatches = 40
	sessionCores   = 16
)

func sessionTraces(o options) ([]task.Trace, error) {
	n := max(o.seconds, 2)
	out := make([]task.Trace, n)
	for i := range out {
		tr, err := task.GenerateTrace(rng(o.seed, "session", i), task.ArrivalParams{
			Process: task.ArrivalPoisson, Rate: 1, Batches: sessionBatches,
			BatchLo: 1, BatchHi: 3, Regime: task.RegimeBursty,
		})
		if err != nil {
			return nil, err
		}
		out[i] = tr
	}
	return out, nil
}

// sessionRun is the client's record of one session.
type sessionRun struct {
	arriveMS []float64 // arrival POST round trips
	sent     []time.Time
	lagMS    []float64 // arrival send → its replan event on SSE
	finishMS float64
	acked    int
	final    *wire.SessionFinalResponse
	replanMS []float64 // the server's re-plan times, from replan events
}

func runSessions(ctx context.Context, b *bench) error {
	traces, err := sessionTraces(b.opt)
	if err != nil {
		return err
	}
	if err := b.setup(ctx, stackSpec{backends: 1, dataDir: "journal"}); err != nil {
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

	before, _, err := b.st.scrapeAll(ctx, client)
	if err != nil {
		return err
	}
	runs := make([]*sessionRun, len(traces))
	secs := b.window(func() {
		for i, tr := range traces {
			if ctx.Err() != nil {
				return
			}
			runs[i] = b.driveSession(ctx, client, i, tr)
		}
	})
	after, _, err := b.st.scrapeAll(ctx, client)
	if err != nil {
		return err
	}

	var lat, finish, ratios, lag, replan []float64
	acked := 0
	for i, r := range runs {
		if r == nil {
			continue
		}
		acked += r.acked
		lat = append(lat, r.arriveMS...)
		lag = append(lag, r.lagMS...)
		replan = append(replan, r.replanMS...)
		if r.final == nil {
			continue
		}
		finish = append(finish, r.finishMS)
		if err := checkFinal(r.final, pm); err != nil {
			b.fail("session %d: %v", i, err)
			continue
		}
		ratios = append(ratios, r.final.CompetitiveRatio)
	}

	replans := delta(before, after, "schedd_session_replans_total")
	if replans < float64(acked) {
		b.fail("server re-planned %v times for %d acknowledged batches", replans, acked)
	}
	if d := delta(before, after, "schedd_sessions_closed_total"); int(d) != len(traces) {
		b.fail("server closed %v sessions, client finished %d", d, len(traces))
	}
	if d := delta(before, after, "schedd_journal_errors_total"); d != 0 {
		b.fail("%v journal append errors", d)
	}
	records := delta(before, after, "schedd_journal_records_total")
	if records < float64(acked) {
		b.fail("%v journal records for %d acknowledged batches", records, acked)
	}

	b.set("ops_per_s", float64(acked)/secs)
	b.set("latency_p50_ms", percentile(lat, 50))
	b.set("latency_p95_ms", percentile(lat, 95))
	b.set("finish_p50_ms", percentile(finish, 50))
	b.set("energy_ratio", mean(ratios))
	if b.rec == nil {
		return nil
	}

	b.zeroLayers()
	b.set("trace.latency_p50_ms", percentile(lat, 50))
	b.set("trace.ops_per_s", float64(acked)/secs)
	// An arrival response carries no elapsed_ms; the server-side time of
	// an acknowledgement is dominated by its synchronous re-plan, whose
	// duration the replan event reports.
	b.set("server.handler_ms", mean(replan))
	b.set("server.transport_ms", mean(lat)-mean(replan))
	b.set("server.solves", delta(before, after, "schedd_solves_total"))
	b.set("server.sse_lag_ms", percentile(lag, 50))
	b.set("cluster.backend_share_max", 1)
	b.set("dispatch.replans", replans)
	b.set("dispatch.shed", delta(before, after, "schedd_session_shed_tasks_total"))
	b.set("journal.records_per_arrival", records/float64(max(acked, 1)))
	b.replaySessions(ctx, traces, pm)
	b.set("check.validate_share", b.report["check.validate_ms"].Value/mean(lat))
	return nil
}

// driveSession runs one session over HTTP: create, subscribe to its
// events, send every arrival batch in order, then DELETE it.
func (b *bench) driveSession(ctx context.Context, c *http.Client, idx int, tr task.Trace) *sessionRun {
	r := &sessionRun{sent: make([]time.Time, len(tr))}
	base := b.st.front
	body, err := json.Marshal(wire.SessionCreateRequest{Algorithm: "ReplanDER", Cores: sessionCores, Model: model})
	if err != nil {
		b.op(err)
		return r
	}
	status, resp, _, err := exchange(ctx, c, http.MethodPost, base+"/v1/sessions", body)
	var created wire.SessionCreateResponse
	if err == nil && status != http.StatusCreated && status != http.StatusOK {
		err = fmt.Errorf("create session: HTTP %d: %.200s", status, resp)
	}
	if err == nil {
		err = json.Unmarshal(resp, &created)
	}
	b.op(err)
	if err != nil {
		return r
	}
	url := base + "/v1/sessions/" + created.ID

	// The subscriber reads until the server ends the stream after the
	// DELETE; every path below waits for it before returning.
	sseCtx, cancel := context.WithCancel(ctx)
	subscribed := make(chan struct{})
	sseDone := make(chan error, 1)
	var mu sync.Mutex // guards r.sent reads against the sender below
	go func() {
		sseDone <- b.consumeEvents(sseCtx, c, url+"/events", subscribed, func(ev wire.SessionEvent, at time.Time) {
			if ev.Type != dispatch.EventReplan || ev.Replans < 1 || ev.Replans > len(r.sent) {
				return
			}
			mu.Lock()
			sent := r.sent[ev.Replans-1]
			mu.Unlock()
			r.lagMS = append(r.lagMS, float64(at.Sub(sent))/float64(time.Millisecond))
			r.replanMS = append(r.replanMS, ev.LatencyMS)
		})
	}()
	defer func() {
		cancel()
		<-sseDone
	}()
	select {
	case <-subscribed:
	case err := <-sseDone:
		sseDone <- err
		b.op(fmt.Errorf("session %d: events: %v", idx, err))
		return r
	}

	for k, a := range tr {
		body, err := json.Marshal(wire.ArrivalRequest{At: a.At, Tasks: a.Tasks})
		if err != nil {
			b.op(err)
			continue
		}
		mu.Lock()
		r.sent[k] = time.Now()
		mu.Unlock()
		status, resp, ms, err := exchange(ctx, c, http.MethodPost, url+"/tasks", body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("arrive: HTTP %d: %.200s", status, resp)
		}
		var ar wire.ArrivalResponse
		if err == nil {
			err = json.Unmarshal(resp, &ar)
		}
		if err == nil && (ar.Admitted != len(a.Tasks) || ar.Shed != 0) {
			err = fmt.Errorf("arrive: admitted %d, shed %d of %d tasks", ar.Admitted, ar.Shed, len(a.Tasks))
		}
		b.op(err)
		if err == nil {
			r.acked++
			r.arriveMS = append(r.arriveMS, ms)
		}
	}

	status, resp, ms, err := exchange(ctx, c, http.MethodDelete, url, nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("finish: HTTP %d: %.200s", status, resp)
	}
	final := new(wire.SessionFinalResponse)
	if err == nil {
		err = json.Unmarshal(resp, final)
	}
	if err == nil {
		r.final, r.finishMS = final, ms
		// The DELETE closed the session, so the stream must end cleanly.
		select {
		case err = <-sseDone:
			sseDone <- err
		case <-time.After(10 * time.Second):
			err = fmt.Errorf("event stream still open 10s after DELETE")
		}
		if err == nil && len(r.lagMS) != r.acked {
			err = fmt.Errorf("%d replan events for %d acknowledged batches", len(r.lagMS), r.acked)
		}
	}
	b.op(err)
	return r
}

// consumeEvents reads a session's SSE stream, calling fn for every
// event with its receipt time, and closes subscribed once the stream is
// open. It returns nil only if the stream ended with the server's
// graceful terminator, its event ids were gapless and a final event
// arrived.
func (b *bench) consumeEvents(ctx context.Context, c *http.Client, url string, subscribed chan struct{}, fn func(wire.SessionEvent, time.Time)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	close(subscribed)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var data string
	var id, last int64
	final, clean := false, false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			id, _ = strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case strings.HasPrefix(line, ": stream closed"):
			clean = true
		case line == "" && data != "":
			at := time.Now()
			if id != last+1 {
				return fmt.Errorf("event id %d after %d", id, last)
			}
			last = id
			var ev wire.SessionEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return fmt.Errorf("event %d: %w", id, err)
			}
			final = final || ev.Type == dispatch.EventFinal
			fn(ev, at)
			data = ""
		}
	}
	switch {
	case !clean:
		return fmt.Errorf("stream ended without its terminator: %v", sc.Err())
	case !final:
		return fmt.Errorf("stream closed without a final event")
	}
	return nil
}

// checkFinal checks a DELETE report off the clock: nothing missed, no
// violations, a clean optimum, and a schedule the client-side validator
// accepts with the reported energy.
func checkFinal(f *wire.SessionFinalResponse, pm power.Model) error {
	switch {
	case len(f.Missed) > 0:
		return fmt.Errorf("%d tasks missed their deadline", len(f.Missed))
	case len(f.Violations) > 0:
		return fmt.Errorf("violations: %v", f.Violations[0])
	case f.OptError != "":
		return fmt.Errorf("optimum: %s", f.OptError)
	case math.IsNaN(f.CompetitiveRatio) || math.IsInf(f.CompetitiveRatio, 0) || f.CompetitiveRatio <= 0:
		return fmt.Errorf("competitive ratio %v", f.CompetitiveRatio)
	}
	return validateWire(f.Segments, f.Tasks, f.Cores, pm, f.RealizedEnergy)
}

// journalFunc adapts a function to dispatch.Journal.
type journalFunc func(*dispatch.Record) error

func (f journalFunc) Append(rec *dispatch.Record) error { return f(rec) }

// replaySessions drives each trace through dispatch.Session directly,
// with a solve that spans the residual solve and the validator and a
// journal that spans journal.Writer.Append on a real journal. The finish
// runs without the optimum solve; check.Validate, sim.Run and the
// optimum are then replayed on the final report's inputs.
func (b *bench) replaySessions(ctx context.Context, traces []task.Trace, pm power.Model) {
	store, err := journal.Open(b.dir+"/replay-journal", journal.Options{})
	if err != nil {
		b.fail("replay journal: %v", err)
		return
	}
	defer store.Close()
	entry, ok := check.Lookup("ReplanDER")
	if !ok {
		b.fail("ReplanDER is not registered")
		return
	}
	var residual, subs, bytes, segs []float64
	for si, tr := range traces {
		w, err := store.Writer(fmt.Sprintf("replay%d", si))
		if err != nil {
			b.fail("replay journal: %v", err)
			return
		}
		// The session calls Solve and Append synchronously from Arrive
		// and Finish on this goroutine; parent and rid name the span
		// they run under.
		parent, rid := 0, ridReplay+si*1000
		var sets []task.Set
		var written float64
		solve := func(ctx context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
			sets = append(sets, ts)
			id := b.rec.begin("core.schedule", rid, parent)
			s, energy, err := entry.RunSafe(ctx, ts, m, pm)
			b.rec.end(id)
			if err != nil {
				return nil, 0, err
			}
			segs = append(segs, float64(len(s.Segments)))
			id = b.rec.begin("check.validate", rid, parent)
			v := check.Validate(s, ts, m, pm)
			b.rec.end(id)
			if len(v) > 0 {
				return nil, 0, fmt.Errorf("invalid residual schedule: %v", v[0])
			}
			return s, energy, nil
		}
		jr := journalFunc(func(rec *dispatch.Record) error {
			if payload, err := json.Marshal(rec); err == nil {
				written += float64(len(payload) + 8) // the frame header is 8 bytes
			}
			id := b.rec.begin("journal.append", rid, parent)
			err := w.Append(rec)
			b.rec.end(id)
			return err
		})
		sess, err := dispatch.New(dispatch.Config{
			Algorithm: "ReplanDER", Cores: sessionCores, Model: pm,
			Solve: solve, Journal: jr, SkipRatio: true,
		})
		if err != nil {
			b.fail("replay session: %v", err)
			return
		}
		for k, a := range tr {
			rid = ridReplay + si*1000 + k
			parent = b.rec.begin("dispatch.arrive", rid, 0)
			_, shed, err := sess.Arrive(ctx, a.At, a.Tasks)
			b.rec.end(parent)
			parent = 0
			if err != nil || shed > 0 {
				b.fail("replay arrival %d/%d: shed %d, %v", si, k, shed, err)
			}
		}
		bytes = append(bytes, written/float64(len(tr)))
		for k, ts := range sets {
			residual = append(residual, float64(len(ts)))
			n, err := b.replayStages(ts, sessionCores, ridReplay+si*1000+k, 0)
			if err != nil {
				b.fail("replay stages: %v", err)
			}
			subs = append(subs, float64(n))
		}
		rid = ridReplay + si*1000 + 999
		parent = b.rec.begin("dispatch.finish", rid, 0)
		f, err := sess.Finish(ctx)
		b.rec.end(parent)
		parent = 0
		sess.Close()
		if err := w.Close(); err != nil {
			b.fail("replay journal close: %v", err)
		}
		if err != nil {
			b.fail("replay finish: %v", err)
			continue
		}
		b.replayFinish(f, rid, pm)
	}
	b.setSpanMeans(map[string]string{
		"interval.decompose": "interval.decompose_ms", "ideal.build": "ideal.build_ms",
		"alloc.build": "alloc.build_ms", "core.schedule": "core.schedule_ms",
		"check.validate": "check.validate_ms", "finish.sim.run": "sim.run_ms",
		"opt.solve": "opt.solve_ms", "dispatch.arrive": "dispatch.arrive_ms",
		"dispatch.finish": "dispatch.finish_ms", "journal.append": "journal.append_ms",
	})
	b.coreSelf()
	var selfMS []float64
	spans := b.rec.closed()
	self := selfTimes(spans)
	for _, s := range spans {
		if s.Name == "dispatch.arrive" {
			selfMS = append(selfMS, float64(self[s.ID])/1e6)
		}
	}
	b.set("dispatch.self_ms", mean(selfMS))
	b.set("dispatch.residual_tasks", mean(residual))
	b.set("interval.subintervals", mean(subs))
	b.set("journal.bytes_per_arrival", mean(bytes))
	b.set("check.segments", mean(segs))
}

// replayFinish replays the finish's validator, simulator and optimum
// solve on a final report's inputs.
func (b *bench) replayFinish(f *dispatch.FinalReport, rid int, pm power.Model) {
	id := b.rec.begin("finish.check.validate", rid, 0)
	v := check.Validate(f.Schedule, f.Tasks, sessionCores, pm)
	b.rec.end(id)
	if len(v) > 0 {
		b.fail("replay final schedule: %v", v[0])
	}
	id = b.rec.begin("finish.sim.run", rid, 0)
	_, err := sim.Run(f.Schedule, pm)
	b.rec.end(id)
	if err != nil {
		b.fail("replay sim: %v", err)
	}
	id = b.rec.begin("opt.solve", rid, 0)
	_, err = optimum(f.Tasks, sessionCores, pm, 0)
	b.rec.end(id)
	if err != nil {
		b.fail("replay optimum: %v", err)
	}
}
