package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
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
// status. The body is encoded before the header is written, so a value
// encoding/json rejects (a NaN or infinite float) is answered with the
// 500 internal error envelope instead of the status and an empty body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		writeEncodeError(w, err)
		return
	}
	writeBody(w, status, buf.Bytes())
}

// WriteSchedule emits r, encoded by AppendSchedule, as the 200 body of
// a schedule response.
func WriteSchedule(w http.ResponseWriter, r *ScheduleResponse) {
	writeAppended(w, func(b []byte) ([]byte, error) { return AppendSchedule(b, r) })
}

// WriteBatch emits r, encoded by AppendBatch, as the 200 body of a
// batch response.
func WriteBatch(w http.ResponseWriter, r *BatchResponse) {
	writeAppended(w, func(b []byte) ([]byte, error) { return AppendBatch(b, r) })
}

// bodyPool recycles the buffers schedule bodies are encoded into, as
// encoding/json recycles its own.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// writeAppended encodes a 200 body with appendBody into a pooled buffer
// and writes it, or the 500 envelope when encoding fails.
func writeAppended(w http.ResponseWriter, appendBody func([]byte) ([]byte, error)) {
	bp := bodyPool.Get().(*[]byte)
	body, err := appendBody((*bp)[:0])
	if err != nil {
		writeEncodeError(w, err)
	} else {
		writeBody(w, http.StatusOK, body)
		*bp = body
	}
	bodyPool.Put(bp)
}

// writeBody writes an encoded JSON body in one piece, with its length.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeEncodeError answers a response whose body could not be encoded.
func writeEncodeError(w http.ResponseWriter, err error) {
	WriteError(w, http.StatusInternalServerError, CodeInternal, "encode response: %v", err)
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
