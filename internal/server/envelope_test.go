package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server/wire"
)

// envelopeCases enumerates every v1 endpoint with a request that must
// fail, so the error shape can be asserted endpoint by endpoint. The
// same table drives the router-side test in internal/cluster.
var envelopeCases = []struct {
	name   string
	method string
	path   string
	body   string
	status int
	code   wire.ErrorCode
}{
	{"schedule", http.MethodPost, "/v1/schedule", "{not json", http.StatusBadRequest, wire.CodeBadRequest},
	{"schedule_batch", http.MethodPost, "/v1/schedule/batch", "{not json", http.StatusBadRequest, wire.CodeBadRequest},
	{"feasible", http.MethodPost, "/v1/feasible", "{not json", http.StatusBadRequest, wire.CodeBadRequest},
	{"algorithms", http.MethodDelete, "/v1/algorithms", "", http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed},
	{"session_create", http.MethodPost, "/v1/sessions", "{not json", http.StatusBadRequest, wire.CodeBadRequest},
	{"session_restore", http.MethodPost, "/v1/sessions/restore", "{not json", http.StatusBadRequest, wire.CodeBadRequest},
	{"session_arrive", http.MethodPost, "/v1/sessions/nosuch/tasks", `{"at":0,"tasks":[]}`, http.StatusNotFound, wire.CodeNotFound},
	{"session_schedule", http.MethodGet, "/v1/sessions/nosuch/schedule", "", http.StatusNotFound, wire.CodeNotFound},
	{"session_events", http.MethodGet, "/v1/sessions/nosuch/events", "", http.StatusNotFound, wire.CodeNotFound},
	{"session_snapshot", http.MethodGet, "/v1/sessions/nosuch/snapshot", "", http.StatusNotFound, wire.CodeNotFound},
	{"session_delete", http.MethodDelete, "/v1/sessions/nosuch", "", http.StatusNotFound, wire.CodeNotFound},
}

func doEnvelopeRequest(t *testing.T, base, method, path, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp, raw
}

// checkEnvelope asserts the unified error shape on a non-2xx body.
func checkEnvelope(t *testing.T, body []byte, status int, code wire.ErrorCode) {
	t.Helper()
	var env wire.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("body is not an envelope: %v\n%s", err, body)
	}
	if env.Version != wire.Version {
		t.Errorf("envelope version = %d, want %d", env.Version, wire.Version)
	}
	if env.Error.Code != code {
		t.Errorf("error code = %q, want %q", env.Error.Code, code)
	}
	if env.Error.Message == "" {
		t.Error("error message is empty")
	}
	if want := wire.RetryableStatus(status); env.Error.Retryable != want {
		t.Errorf("retryable = %t, want %t for status %d", env.Error.Retryable, want, status)
	}
}

// TestErrorEnvelopeEveryEndpoint drives an error through every v1
// endpoint and asserts the unified envelope — the wire-API
// consolidation contract. The _compat cases send the retired ?compat=1
// opt-in, which must no longer change the shape.
func TestErrorEnvelopeEveryEndpoint(t *testing.T) {
	srv := New(Config{Addr: "127.0.0.1:0"})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	for _, tc := range envelopeCases {
		for _, v := range []struct{ suffix, query string }{{"", ""}, {"_compat", "?compat=1"}} {
			t.Run(tc.name+v.suffix, func(t *testing.T) {
				resp, body := doEnvelopeRequest(t, hs.URL, tc.method, tc.path+v.query, tc.body)
				if resp.StatusCode != tc.status {
					t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, body)
				}
				checkEnvelope(t, body, tc.status, tc.code)
			})
		}
	}
}
