package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/server/wire"
	"repro/internal/task"
)

// newJournaledServer builds a Server with the durable journal rooted at
// dir and runs startup recovery before serving.
func newJournaledServer(t *testing.T, dir string) (*Server, *httptest.Server, RecoveryReport) {
	t.Helper()
	srv := New(Config{DataDir: dir})
	rep, err := srv.Recover(context.Background())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(srv.Close)
	return srv, hs, rep
}

// TestServerCrashRecovery kills a journaled server mid-run and restarts
// over the same data dir: unfinished sessions come back under their
// original IDs with their committed prefixes verbatim, a cleanly
// deleted session stays gone, SSE ids replay gaplessly across the
// restart, and the recovered sessions finish with zero violations.
func TestServerCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	_, hsA, repA := newJournaledServer(t, dir)
	if repA.Recovered != 0 || repA.Failed != 0 {
		t.Fatalf("fresh dir recovered something: %+v", repA)
	}

	var ids []string
	for i := 0; i < 2; i++ {
		created := createSession(t, hsA.URL, wire.SessionCreateRequest{
			Cores: 2, Model: wire.ModelJSON{Alpha: 3, P0: 0.05},
		})
		ids = append(ids, created.ID)
		resp, ar := arrive(t, hsA.URL, created.ID, 0, mustTasks(t,
			task.Task{Release: 0, Work: 2, Deadline: 8},
			task.Task{Release: 0, Work: 1, Deadline: 5},
		))
		if resp.StatusCode != http.StatusOK || ar.Admitted != 2 {
			t.Fatalf("arrive: status %d admitted %d", resp.StatusCode, ar.Admitted)
		}
		resp, ar = arrive(t, hsA.URL, created.ID, 3, mustTasks(t,
			task.Task{Release: 3, Work: 2, Deadline: 12},
		))
		if resp.StatusCode != http.StatusOK || ar.Admitted != 1 {
			t.Fatalf("arrive: status %d admitted %d", resp.StatusCode, ar.Admitted)
		}
	}
	// A third session deleted cleanly before the crash must NOT return.
	done := createSession(t, hsA.URL, wire.SessionCreateRequest{
		Cores: 2, Model: wire.ModelJSON{Alpha: 3, P0: 0.05},
	})
	if resp, _ := arrive(t, hsA.URL, done.ID, 0, mustTasks(t,
		task.Task{Release: 0, Work: 1, Deadline: 6},
	)); resp.StatusCode != http.StatusOK {
		t.Fatalf("arrive on done session: %d", resp.StatusCode)
	}
	if dresp, _ := deleteSession(t, hsA.URL, done.ID); dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}

	committedBefore := make(map[string]int)
	for _, id := range ids {
		committedBefore[id] = len(getCommitted(t, hsA.URL, id))
	}

	// "Crash": tear the process state down without draining — no finish
	// records hit the logs, exactly like a SIGKILL.
	hsA.Close()

	srvB, hsB, repB := newJournaledServer(t, dir)
	if repB.Recovered != 2 || repB.Failed != 0 {
		t.Fatalf("recovery report = %+v, want 2 recovered / 0 failed", repB)
	}
	if srvB.sessions.Get(done.ID) != nil {
		t.Fatal("cleanly deleted session resurrected")
	}
	if _, err := os.Stat(filepath.Join(dir, "sessions", done.ID)); !os.IsNotExist(err) {
		t.Fatalf("deleted session's log not garbage-collected: %v", err)
	}

	// readyz surfaces the recovery outcome.
	rresp, err := http.Get(hsB.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready map[string]any
	if err := json.NewDecoder(rresp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if got := ready["sessions_recovered"]; got != float64(2) {
		t.Fatalf("readyz sessions_recovered = %v, want 2", got)
	}

	for _, id := range ids {
		// Committed prefix must survive the crash verbatim (recovery can
		// only extend it, never rewrite it — and with no time advance
		// between crash and check, it must be identical).
		committed := getCommitted(t, hsB.URL, id)
		if len(committed) != committedBefore[id] {
			t.Fatalf("session %s: committed %d segments after crash, %d before",
				id, len(committed), committedBefore[id])
		}
		// The SSE replay ring survives too: a reconnecting client sees
		// ids 1,2,3,... gaplessly as if the crash never happened.
		stream := openSSE(t, hsB.URL+"/v1/sessions/"+id+"/events")
		dresp, final := deleteSession(t, hsB.URL, id)
		if dresp.StatusCode != http.StatusOK {
			t.Fatalf("delete recovered session: %d", dresp.StatusCode)
		}
		if len(final.Violations) != 0 {
			t.Fatalf("recovered session finished with violations: %v", final.Violations)
		}
		if final.Completed != 3 || final.Shed != 0 {
			t.Fatalf("recovered session lost tasks: completed %d shed %d", final.Completed, final.Shed)
		}
		events := stream.collectUntilClosed(t)
		if len(events) == 0 {
			t.Fatal("no events replayed on recovered stream")
		}
		var last int64
		for _, ev := range events {
			seq, err := strconv.ParseInt(ev.id, 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id %q: %v", ev.id, err)
			}
			if seq != last+1 {
				t.Fatalf("SSE id gap across restart: got %d after %d", seq, last)
			}
			last = seq
		}
	}

	// Everything finished cleanly: a third start finds nothing to do.
	_, _, repC := newJournaledServer(t, dir)
	if repC.Recovered != 0 || repC.Failed != 0 {
		t.Fatalf("third start recovered %+v, want nothing", repC)
	}
}

// TestRecoveryCorruptLogFailsSoft corrupts one session's log mid-file:
// that session fails recovery (counted, reported, log kept for
// forensics) while its neighbor recovers normally.
func TestRecoveryCorruptLogFailsSoft(t *testing.T) {
	dir := t.TempDir()
	_, hsA, _ := newJournaledServer(t, dir)
	var ids []string
	for i := 0; i < 2; i++ {
		created := createSession(t, hsA.URL, wire.SessionCreateRequest{
			Cores: 2, Model: wire.ModelJSON{Alpha: 3, P0: 0.05},
		})
		ids = append(ids, created.ID)
		if resp, _ := arrive(t, hsA.URL, created.ID, 0, mustTasks(t,
			task.Task{Release: 0, Work: 2, Deadline: 8},
			task.Task{Release: 0, Work: 1, Deadline: 5},
		)); resp.StatusCode != http.StatusOK {
			t.Fatalf("arrive: %d", resp.StatusCode)
		}
	}
	hsA.Close()

	victim := ids[0]
	seg := filepath.Join(dir, "sessions", victim, "00000001.wal")
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/3] ^= 0x20
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	srvB, _, repB := newJournaledServer(t, dir)
	if repB.Recovered != 1 || repB.Failed != 1 {
		t.Fatalf("recovery report = %+v, want 1 recovered / 1 failed", repB)
	}
	if srvB.sessions.Get(victim) != nil {
		t.Fatal("corrupt session recovered anyway")
	}
	if srvB.sessions.Get(ids[1]) == nil {
		t.Fatal("healthy neighbor not recovered")
	}
	// The corrupt log is kept for forensics, not deleted.
	if _, err := os.Stat(seg); err != nil {
		t.Fatalf("corrupt log vanished: %v", err)
	}
}
