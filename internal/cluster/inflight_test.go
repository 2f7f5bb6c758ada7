package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/wire"
	"repro/internal/task"
)

// TestArrivalInFlightDuringMigration: a migration of a session starts
// while an arrival is in flight on its home. The home admits and
// acknowledges the arrival, so the migration must carry it to the new
// home: restoring from a snapshot taken before it would lose an
// acknowledged arrival, and reaping the old copy under it would answer
// the arrival with a 404.
func TestArrivalInFlightDuringMigration(t *testing.T) {
	srvA := server.New(server.Config{})
	t.Cleanup(srvA.Close)
	var hold atomic.Bool
	entered, release := make(chan struct{}, 1), make(chan struct{})
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hold.Load() && r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/tasks") {
			entered <- struct{}{}
			<-release
		}
		srvA.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(a.Close)
	_, b := newBackendServer(t)
	rt, rhs := newRouter(t, a.URL, b.URL)

	// A session homed on a.
	var id string
	for i := 0; id == ""; i++ {
		if c := fmt.Sprintf("inflight-%d", i); place(c, rt.backends).name == strings.TrimPrefix(a.URL, "http://") {
			id = c
		}
	}
	if resp, body := postJSON(t, rhs.URL+"/v1/sessions", wire.SessionCreateRequest{
		ID: id, Cores: 2, Model: wire.ModelJSON{Alpha: 3, P0: 0.05}, SkipRatio: true,
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	arrival := func(batch int) []byte {
		at := float64(batch * 2)
		ts := task.Set{{Release: at, Work: 1, Deadline: at + 30}, {Release: at, Work: 0.5, Deadline: at + 30}}
		ts.Renumber()
		raw, err := json.Marshal(wire.ArrivalRequest{At: at, Tasks: ts})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if resp, body := postJSON(t, rhs.URL+"/v1/sessions/"+id+"/tasks", json.RawMessage(arrival(0))); resp.StatusCode != http.StatusOK {
		t.Fatalf("arrival 0: status %d: %s", resp.StatusCode, body)
	}

	// Arrival 1 reaches a and waits there while the migration starts.
	hold.Store(true)
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(rhs.URL+"/v1/sessions/"+id+"/tasks", "application/json", bytes.NewReader(arrival(1)))
		if err != nil {
			status <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-entered
	sess := rt.lookup(id)
	home, gen, _, _ := rt.location(sess)
	go rt.migrateFrom(sess, home, gen)
	// Let the arrival through once the migration has either finished
	// (losing the arrival) or is parked behind it.
	for parked := false; !parked; time.Sleep(time.Millisecond) {
		rt.mu.Lock()
		parked = sess.gen != gen || sess.migrating && sess.inflight > 0
		rt.mu.Unlock()
	}
	close(release)
	if s := <-status; s != http.StatusOK {
		t.Fatalf("arrival 1 during the migration: status %d, want 200", s)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if h, g, _, _ := rt.location(sess); g != gen {
			if h == home {
				t.Fatal("session migrated onto its old home")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("migration did not finish after the arrival")
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, rhs.URL+"/v1/sessions/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var final wire.SessionFinalResponse
	if err := json.Unmarshal(body, &final); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d: %s", resp.StatusCode, body)
	}
	if final.Completed != 4 {
		t.Fatalf("completed=%d of the 4 acknowledged tasks", final.Completed)
	}
}
