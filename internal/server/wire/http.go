package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// The HTTP helpers below are shared by schedd (internal/server) and the
// routing tier (internal/cluster), so a client cannot tell a
// router-origin body, rejection or event frame from a backend-origin
// one.

// DecodeRequest strictly decodes exactly one JSON value from the request
// body, read under limit bytes: unknown fields and trailing data after
// the value are errors.
func DecodeRequest(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return fmt.Errorf("invalid request body: trailing data after JSON value")
	}
	return nil
}

// WriteJSON emits v as the JSON body of a response with the given
// status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// WriteError emits the error envelope for status, with the message
// formatted from format and args.
func WriteError(w http.ResponseWriter, status int, code ErrorCode, format string, args ...any) {
	WriteJSON(w, status, ErrorEnvelope{
		Version: Version,
		Error: ErrorDetail{
			Code:      code,
			Message:   fmt.Sprintf(format, args...),
			Retryable: RetryableStatus(status),
		},
	})
}

// WriteEvent writes one text/event-stream frame: the id line, the event
// type, and the event's single-line JSON payload as one data line.
func WriteEvent(w io.Writer, id int64, event string, data []byte) error {
	_, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, event, data)
	return err
}

// RetryAfter sets the Retry-After header, in seconds, on an overload or
// draining response.
func RetryAfter(w http.ResponseWriter, seconds int) {
	w.Header().Set("Retry-After", strconv.Itoa(seconds))
}
