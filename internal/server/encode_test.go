package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/server/wire"
	"repro/internal/task"
)

// reencode decodes a response body into v and encodes it again with
// encoding/json, HTML escaping off.
func reencode(t *testing.T, body []byte, v any) []byte {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestScheduleBodyIsEncodingJSON checks the bodies of /v1/schedule (a
// miss and a cache hit) and /v1/schedule/batch against encoding/json:
// every shortest-formatted float round-trips, so a body equals the
// re-encoding of its own decoding exactly when the server wrote what
// encoding/json would have.
func TestScheduleBodyIsEncodingJSON(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	ts, err := task.Generate(rand.New(rand.NewSource(20140901)), task.PaperDefaults(100))
	if err != nil {
		t.Fatal(err)
	}
	body := scheduleBody(t, "S^F2", ts, 16)

	post := func(url string, body []byte) []byte {
		t.Helper()
		resp, payload := postJSON(t, url, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, payload)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(payload)) {
			t.Fatalf("Content-Length %q, body is %d bytes", cl, len(payload))
		}
		return payload
	}

	missBody := post(hs.URL+"/v1/schedule", body)
	var miss wire.ScheduleResponse
	if want := reencode(t, missBody, &miss); !bytes.Equal(missBody, want) {
		t.Fatal("miss body differs from encoding/json")
	}
	if miss.Cached || miss.Sim == nil || len(miss.Segments) < 1000 {
		t.Fatalf("miss: cached=%v sim=%v segments=%d", miss.Cached, miss.Sim != nil, len(miss.Segments))
	}

	hitBody := post(hs.URL+"/v1/schedule", body)
	var hit wire.ScheduleResponse
	if want := reencode(t, hitBody, &hit); !bytes.Equal(hitBody, want) {
		t.Fatal("cache-hit body differs from encoding/json")
	}
	if !hit.Cached {
		t.Fatal("second request was not a cache hit")
	}
	// The hit is the miss re-encoded with "cached":true (and its own
	// elapsed time).
	miss.Cached, miss.ElapsedMS = true, hit.ElapsedMS
	want, err := json.Marshal(miss)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(hit)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("cache hit does not carry the miss's schedule")
	}

	model := wire.ModelJSON{Alpha: 3, P0: 0.05}
	batch := post(hs.URL+"/v1/schedule/batch", batchBody(t, []wire.ScheduleRequest{
		{Algorithm: "S^F2", Cores: 16, Model: model, Tasks: ts}, // cache hit
		{Algorithm: "S^F1", Cores: 4, Model: model, Tasks: sectionVD(t)},
		{Algorithm: "no-such-algorithm", Cores: 4, Model: model, Tasks: ts},
		{Algorithm: "YDS", Cores: 0, Model: model, Tasks: ts},
	}))
	var br wire.BatchResponse
	if want := reencode(t, batch, &br); !bytes.Equal(batch, want) {
		t.Fatal("batch body differs from encoding/json")
	}
	if len(br.Items) != 4 || br.Items[0].Response == nil || !br.Items[0].Response.Cached ||
		br.Items[1].Response == nil || br.Items[2].Code != wire.CodeUnknownAlgorithm {
		t.Fatalf("unexpected batch items: %+v", br.Items)
	}
}
