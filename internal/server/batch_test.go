package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/check"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/server/wire"
)

func batchBody(t *testing.T, items []wire.ScheduleRequest) []byte {
	t.Helper()
	b, err := json.Marshal(wire.BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestScheduleBatch drives POST /v1/schedule/batch with a mix of valid
// and invalid items and checks per-item outcomes, ordering, and that
// every shipped schedule passes the in-band validator guardrail.
func TestScheduleBatch(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	ts := sectionVD(t)
	pm := power.Model{Gamma: 1, Alpha: 3, P0: 0.05}
	model := wire.ModelJSON{Alpha: 3, P0: 0.05}

	items := []wire.ScheduleRequest{
		{Algorithm: "S^F2", Cores: 4, Model: model, Tasks: ts},
		{Algorithm: "S^F1", Cores: 4, Model: model, Tasks: ts},
		{Algorithm: "no-such-algorithm", Cores: 4, Model: model, Tasks: ts},
		{Algorithm: "YDS", Cores: 0, Model: model, Tasks: ts},  // invalid cores
		{Algorithm: "S^F2", Cores: 4, Model: model, Tasks: ts}, // cache hit of item 0
	}
	resp, body := postJSON(t, hs.URL+"/v1/schedule/batch", batchBody(t, items))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br wire.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Version != wire.Version {
		t.Fatalf("batch version = %d, want %d", br.Version, wire.Version)
	}
	if len(br.Items) != len(items) {
		t.Fatalf("got %d items, want %d", len(br.Items), len(items))
	}
	for i, item := range br.Items {
		if item.Index != i {
			t.Fatalf("item %d reports index %d", i, item.Index)
		}
	}

	// Items 0, 1, 4 succeed and must validate client-side.
	for _, i := range []int{0, 1, 4} {
		sr := br.Items[i].Response
		if sr == nil {
			t.Fatalf("item %d failed: %s", i, br.Items[i].Error)
		}
		if !sr.Verified || sr.Energy <= 0 || len(sr.Segments) == 0 {
			t.Fatalf("item %d degenerate: %+v", i, sr)
		}
		sched := schedule.New(ts, sr.Cores)
		for _, seg := range sr.Segments {
			sched.Add(schedule.Segment{
				Task: seg.Task, Core: seg.Core,
				Start: seg.Start, End: seg.End, Frequency: seg.Frequency,
			})
		}
		if v := check.Validate(sched, ts, sr.Cores, pm); len(v) > 0 {
			t.Fatalf("item %d schedule invalid: %v", i, v[0])
		}
	}
	if br.Items[2].Response != nil || br.Items[2].Status != http.StatusNotFound {
		t.Fatalf("item 2 (unknown algorithm): %+v", br.Items[2])
	}
	if br.Items[3].Response != nil || br.Items[3].Status != http.StatusBadRequest {
		t.Fatalf("item 3 (invalid cores): %+v", br.Items[3])
	}
	// Item 4 repeats item 0 and should have been served from the cache
	// (identical canonical key, solved within the same batch).
	if !br.Items[4].Response.Cached {
		t.Log("note: batch item 4 was not a cache hit (races item 0; allowed)")
	}
	if got := srv.Metrics().batches.Load(); got != 1 {
		t.Fatalf("batches metric = %d, want 1", got)
	}
}

func TestScheduleBatchRejectsBadRequests(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	ts := sectionVD(t)
	model := wire.ModelJSON{Alpha: 3, P0: 0.05}

	resp, _ := postJSON(t, hs.URL+"/v1/schedule/batch", batchBody(t, nil))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", resp.StatusCode)
	}

	big := make([]wire.ScheduleRequest, maxBatchItems+1)
	for i := range big {
		big[i] = wire.ScheduleRequest{Algorithm: "S^F2", Cores: 4, Model: model, Tasks: ts}
	}
	resp, _ = postJSON(t, hs.URL+"/v1/schedule/batch", batchBody(t, big))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", resp.StatusCode)
	}

	r, err := http.Get(hs.URL + "/v1/schedule/batch")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d, want 405", r.StatusCode)
	}
}
