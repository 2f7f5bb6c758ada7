package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/power"
	"repro/internal/server/wire"
)

// envelopeError serves status with an error envelope carrying code and
// returns the message schedload must report for it.
func envelopeError(t *testing.T, status int, code wire.ErrorCode) (*httptest.Server, string) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wire.WriteError(w, status, code, "queue full (depth %d)", 64)
	}))
	t.Cleanup(hs.Close)
	return hs, fmt.Sprintf("HTTP %d: %s: queue full (depth 64)", status, code)
}

func TestShootReportsEnvelopeError(t *testing.T) {
	hs, want := envelopeError(t, http.StatusTooManyRequests, wire.CodeOverloaded)
	st := &stats{codes: make(map[int]int64)}
	shoot(hs.Client(), hs.URL, []byte("{}"), nil, 4, power.Unit(3, 0), true, 0, rand.New(rand.NewSource(1)), st)
	if st.codes[http.StatusTooManyRequests] != 1 || st.firstErr != want {
		t.Fatalf("codes %v, firstErr %q; want one 429 and %q", st.codes, st.firstErr, want)
	}
}

func TestPostJSONReportsEnvelopeError(t *testing.T) {
	// 404 is returned at once; 503 is retryable, so it is reported once
	// the (zero) retries are exhausted.
	for _, status := range []int{http.StatusNotFound, http.StatusServiceUnavailable} {
		hs, want := envelopeError(t, status, wire.CodeNotFound)
		got, err := postJSON(streamConfig{}, hs.Client(), rand.New(rand.NewSource(1)),
			http.MethodPost, hs.URL, []byte("{}"), nil, &sessionOutcome{})
		if got != status || err == nil || err.Error() != want {
			t.Fatalf("postJSON = (%d, %v), want (%d, %q)", got, err, status, want)
		}
	}
}

func TestStatusErrorWithoutEnvelope(t *testing.T) {
	if got, want := statusError(404, []byte("404 page not found\n")), "HTTP 404: 404 page not found"; got != want {
		t.Fatalf("statusError = %q, want %q", got, want)
	}
}
