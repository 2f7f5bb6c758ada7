package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// TestWriteJSONUnencodable requires a value encoding/json rejects to be
// answered with the 500 internal envelope, not the requested status and
// an empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	for name, write := range map[string]func(http.ResponseWriter){
		"WriteJSON":     func(w http.ResponseWriter) { WriteJSON(w, http.StatusOK, FeasibleResponse{Speed: math.NaN()}) },
		"WriteSchedule": func(w http.ResponseWriter) { WriteSchedule(w, &ScheduleResponse{Energy: math.Inf(1)}) },
		"WriteBatch": func(w http.ResponseWriter) {
			WriteBatch(w, &BatchResponse{Items: []BatchItem{{Response: &ScheduleResponse{Makespan: math.NaN()}}}})
		},
	} {
		rec := httptest.NewRecorder()
		write(rec)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, want 500", name, rec.Code)
		}
		d, ok := DecodeError(rec.Body.Bytes())
		if !ok || d.Code != CodeInternal || d.Retryable {
			t.Fatalf("%s: body %q is not the internal error envelope", name, rec.Body.Bytes())
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("%s: Content-Length %q for a %d-byte body", name, cl, rec.Body.Len())
		}
	}
}

// TestWriteJSONBody checks the status, headers and body of a good
// response: encoding/json's bytes, HTML left unescaped.
func TestWriteJSONBody(t *testing.T) {
	rec := httptest.NewRecorder()
	v := AlgorithmsResponse{Algorithms: []string{"S^F2", "<&>"}}
	WriteJSON(rec, http.StatusCreated, v)
	want, _ := oracle(v)
	if rec.Code != http.StatusCreated || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("got %d %q, want 201 %q", rec.Code, rec.Body.Bytes(), want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
		t.Fatalf("Content-Length %q, want %d", cl, len(want))
	}
	var back AlgorithmsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &back); err != nil || back.Algorithms[1] != "<&>" {
		t.Fatalf("round trip: %v %v", back, err)
	}
}
