package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/server/wire"
	"repro/internal/sim"
	"repro/internal/task"
)

// Test-only schedulers whose schedules take the validator long to audit.
// test-late-valid returns a valid 200k-segment schedule just before the
// solve deadline, so the deadline passes while the guardrail audits it;
// test-slow-audit returns at once a schedule of 20k mutually overlapping
// segments whose audit outlasts any test deadline. test-sim-hold
// returns a valid schedule and remembers it, so a test can hold its
// request inside the simulator.
var (
	testSlowAuditStarted = make(chan struct{}, 1)
	testSimHeld          atomic.Pointer[schedule.Schedule]
)

func init() {
	check.Register(check.Entry{
		Name: "test-late-valid",
		Run: func(ctx context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
			s := splitSchedule(ts, m, 25000)
			if dl, ok := ctx.Deadline(); ok {
				time.Sleep(time.Until(dl) - 5*time.Millisecond)
			}
			return s, s.Energy(pm), nil
		},
	})
	check.Register(check.Entry{
		Name: "test-slow-audit",
		Run: func(_ context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
			s := schedule.New(ts, m)
			for k := 0; k < 20000; k++ {
				at := float64(k) * 1e-3
				s.Add(schedule.Segment{Task: k % len(ts), Core: k % m, Start: at, End: at + 100, Frequency: 1})
			}
			testSlowAuditStarted <- struct{}{}
			return s, s.Energy(pm), nil
		},
	})
	check.Register(check.Entry{
		Name: "test-sim-hold",
		Run: func(_ context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
			s := splitSchedule(ts, m, 4)
			testSimHeld.Store(s)
			return s, s.Energy(pm), nil
		},
	})
}

// splitSchedule runs task i alone on core i%m for one time unit at unit
// speed, cut into k equal segments. It is valid for unitTasks.
func splitSchedule(ts task.Set, m, k int) *schedule.Schedule {
	s := schedule.New(ts, m)
	for i := range ts {
		base := float64(i / m)
		for j := 0; j < k; j++ {
			s.Add(schedule.Segment{
				Task: i, Core: i % m, Frequency: 1,
				Start: base + float64(j)/float64(k), End: base + float64(j+1)/float64(k),
			})
		}
	}
	return s
}

// unitTasks is n tasks of unit work, all released at 0 and due at
// ⌈n/m⌉.
func unitTasks(t *testing.T, n, m int) task.Set {
	t.Helper()
	specs := make([][3]float64, n)
	for i := range specs {
		specs[i] = [3]float64{0, 1, float64((n + m - 1) / m)}
	}
	ts, err := task.New(specs...)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// waitIdle waits for every worker slot to be released.
func waitIdle(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for srv.gate.active() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker slot still held 2s after the response")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestValidationHonoursSolveTimeout: the solve returns a valid schedule
// just before its deadline, and the deadline passes while the guardrail
// audits it. The request gets the solve-abort 504, never a 200, and the
// audit stops and frees its slot.
func TestValidationHonoursSolveTimeout(t *testing.T) {
	ts := unitTasks(t, 8, 4)
	if vs := check.Validate(splitSchedule(ts, 4, 100), ts, 4, power.Unit(3, 0.05)); len(vs) > 0 {
		t.Fatalf("fixture schedule is invalid: %v", vs[0])
	}
	srv, hs := newTestServer(t, Config{Workers: 1, SolveTimeout: 100 * time.Millisecond, FallbackAlgorithm: FallbackNone, CacheSize: -1})
	start := time.Now()
	resp, body := postJSON(t, hs.URL+"/v1/schedule", scheduleBody(t, "test-late-valid", ts, 4))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %.200s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("response after %v, deadline was 100ms", elapsed)
	}
	if srv.metrics.canceled.Load() != 1 || srv.metrics.verifyFailures.Load() != 0 {
		t.Fatalf("canceled=%d verifyFailures=%d, want 1 and 0",
			srv.metrics.canceled.Load(), srv.metrics.verifyFailures.Load())
	}
	waitIdle(t, srv)
}

// TestValidationHoldsWorkerSlot: while the guardrail audits a schedule,
// the single worker slot stays taken, so with no admission queue a
// second request is turned away with 429.
func TestValidationHoldsWorkerSlot(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 1, Queue: -1, SolveTimeout: 300 * time.Millisecond, FallbackAlgorithm: FallbackNone, CacheSize: -1})
	ts := unitTasks(t, 8, 4)
	slow := scheduleBody(t, "test-slow-audit", ts, 4)
	statusc := make(chan int, 1)
	go func() {
		resp, err := http.Post(hs.URL+"/v1/schedule", "application/json", bytes.NewReader(slow))
		if err != nil {
			statusc <- 0
			return
		}
		resp.Body.Close()
		statusc <- resp.StatusCode
	}()
	<-testSlowAuditStarted // the solve is done; the audit runs now

	resp, body := postJSON(t, hs.URL+"/v1/schedule", scheduleBody(t, "S^F2", sectionVD(t), 4))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request during the audit: status %d, want 429: %.200s", resp.StatusCode, body)
	}
	if status := <-statusc; status != http.StatusGatewayTimeout {
		t.Fatalf("audited request: status %d, want 504", status)
	}
	waitIdle(t, srv)
}

// TestSimulatorHoldsWorkerSlot: the simulator replays the audited
// schedule while its request still holds the single worker slot, so with
// no admission queue a request arriving meanwhile is turned away with
// 429. The replay still lands in the held request's response.
func TestSimulatorHoldsWorkerSlot(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	simRun = func(s *schedule.Schedule, pm power.Model) (*sim.Report, error) {
		if s == testSimHeld.Load() {
			close(entered)
			<-release
		}
		return sim.Run(s, pm)
	}
	defer func() { simRun = sim.Run }()

	srv, hs := newTestServer(t, Config{Workers: 1, Queue: -1, FallbackAlgorithm: FallbackNone, CacheSize: -1})
	type result struct {
		status int
		body   []byte
	}
	resc := make(chan result, 1)
	hold := scheduleBody(t, "test-sim-hold", unitTasks(t, 8, 4), 4)
	go func() {
		resp, err := http.Post(hs.URL+"/v1/schedule", "application/json", bytes.NewReader(hold))
		if err != nil {
			resc <- result{}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resc <- result{resp.StatusCode, buf.Bytes()}
	}()
	<-entered // solved and audited; the simulator runs now

	resp, body := postJSON(t, hs.URL+"/v1/schedule", scheduleBody(t, "S^F2", sectionVD(t), 4))
	close(release)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request during the simulator: status %d, want 429: %.200s", resp.StatusCode, body)
	}
	held := <-resc
	if held.status != http.StatusOK {
		t.Fatalf("held request: status %d, want 200: %.200s", held.status, held.body)
	}
	var out wire.ScheduleResponse
	if err := json.Unmarshal(held.body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Sim == nil || len(out.Sim.Violations) > 0 || out.Sim.Wakeups != 4 {
		t.Fatalf("held request's sim report %+v, want a clean replay with 4 wakeups", out.Sim)
	}
	waitIdle(t, srv)
}
