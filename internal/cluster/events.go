package cluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/server/wire"
)

// handleSessionEvents fans a session's SSE stream through the router.
// The router renumbers the id: lines with its own per-subscriber
// counter, so the client sees one gapless, strictly increasing sequence
// across migrations; the backend-origin sequence is used only to drop
// replayed duplicates within a generation. When the upstream connection
// breaks without the graceful terminator, the pump triggers a migration
// and resumes the stream from the session's new home.
func (rt *Router) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess := rt.lookup(id)
	if sess == nil {
		wire.WriteError(w, http.StatusNotFound, wire.CodeNotFound, "unknown session %q", id)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		wire.WriteError(w, http.StatusInternalServerError, wire.CodeInternal, "streaming unsupported by connection")
		return
	}
	// The client's 200 waits until the first upstream subscription is
	// open (or the stream is known to be over): a client that subscribes
	// and then acts on the session must not race the router's own
	// subscribe and miss the session's history.
	started := false
	start := func() {
		if started {
			return
		}
		started = true
		h := w.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-cache")
		h.Set("X-Accel-Buffering", "no")
		w.WriteHeader(http.StatusOK)
		flusher.Flush()
	}
	defer start()
	end := func() {
		start()
		fmt.Fprintf(w, ": stream closed\n\n")
		flusher.Flush()
	}

	var outSeq int64
	lastSeq := int64(-1)
	curEpoch := int64(-1)
	for {
		home, gen, epoch, genCh, closed := rt.locationEpoch(sess)
		if closed || home == nil {
			end()
			return
		}
		if epoch != curEpoch {
			// New hub (migration restored onto a fresh backend): its
			// history starts at the restore point, so everything it sends
			// is new to us. A re-adoption keeps the epoch — the recovered
			// hub replays history we may have already relayed, and the
			// kept lastSeq drops those duplicates.
			curEpoch, lastSeq = epoch, -1
		}
		resp, err := rt.openStream(r.Context(), home, id, r.URL.RawQuery)
		if err != nil {
			go rt.migrateFrom(sess, home, gen)
			if !rt.waitGen(r.Context(), genCh) {
				return
			}
			rt.metrics.streamResumes.Add(1)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			if _, g, _, cl := rt.location(sess); cl || g == gen {
				// Session finished (or was torn down) on its home while we
				// were connecting: the stream is over.
				end()
				return
			}
			continue // migrated between location() and connect: re-resolve
		}
		start()
		graceful := rt.pump(w, flusher, resp.Body, genCh, &outSeq, &lastSeq)
		resp.Body.Close()
		if r.Context().Err() != nil {
			return // client went away
		}
		if graceful {
			if _, g, _, cl := rt.location(sess); !cl && g != gen {
				continue // old copy closed because the session moved on
			}
			end()
			return
		}
		// Mid-stream break without the terminator: the backend died.
		go rt.migrateFrom(sess, home, gen)
		if !rt.waitGen(r.Context(), genCh) {
			return
		}
		rt.metrics.streamResumes.Add(1)
	}
}

// openStream subscribes to a backend's session event stream. The
// request context is the client's: the stream lives until either side
// closes, not until the proxy timeout.
func (rt *Router) openStream(ctx context.Context, b *backend, id, query string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url("/v1/sessions/"+id+"/events", query), nil)
	if err != nil {
		return nil, err
	}
	b.requests.Add(1)
	resp, err := rt.client.Do(req)
	if err != nil {
		b.failures.Add(1)
		return nil, err
	}
	return resp, nil
}

// staleStreamGrace is how long the pump keeps reading an upstream whose
// session has moved on (generation bumped or terminally closed) before
// severing the connection. The grace covers the common in-flight case —
// the terminal DELETE landed on the current home and its graceful
// terminator is about to arrive — while bounding the pathological one:
// the session migrated off a slow-but-alive backend, the best-effort
// reap of the stale copy failed, and the stale stream would otherwise
// stay open and silent forever.
const staleStreamGrace = 2 * time.Second

// pump copies SSE frames from a backend stream to the client,
// renumbering ids and dropping intra-generation duplicates. It returns
// true when the backend ended the stream with the graceful terminator
// comment, false when the connection broke. The router's stop channel
// closes the upstream body so drains cannot hang on an idle stream, and
// the session's generation channel severs it (after a short grace) when
// the session has moved elsewhere — the upstream may be a stale copy
// that will never speak again.
func (rt *Router) pump(w io.Writer, flusher http.Flusher, body io.ReadCloser, genCh chan struct{}, outSeq, lastSeq *int64) bool {
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-rt.stopCh:
			body.Close()
		case <-genCh:
			t := time.NewTimer(staleStreamGrace)
			defer t.Stop()
			select {
			case <-t.C:
				body.Close()
			case <-rt.stopCh:
				body.Close()
			case <-watchDone:
			}
		case <-watchDone:
		}
	}()

	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), maxProxyBody)
	var seq int64 = -1
	var event, data string
	flush := func() bool {
		if event == "" && data == "" {
			return true
		}
		defer func() { seq, event, data = -1, "", "" }()
		if seq >= 0 && seq <= *lastSeq {
			return true // replayed duplicate within this generation
		}
		if seq >= 0 {
			*lastSeq = seq
		}
		*outSeq++
		if err := wire.WriteEvent(w, *outSeq, event, []byte(data)); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if !flush() {
				return false
			}
		case strings.HasPrefix(line, ":"):
			if strings.TrimSpace(strings.TrimPrefix(line, ":")) == "stream closed" {
				flush()
				return true
			}
		case strings.HasPrefix(line, "id:"):
			if v, err := strconv.ParseInt(strings.TrimSpace(line[3:]), 10, 64); err == nil {
				seq = v
			}
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(line[6:])
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(line[5:])
		}
	}
	return false
}

// waitGen blocks until the session's generation channel closes (a
// migration landed), bounded by the client context, router drain, and
// the migration wait budget.
func (rt *Router) waitGen(ctx context.Context, genCh chan struct{}) bool {
	t := time.NewTimer(rt.migrationWait())
	defer t.Stop()
	select {
	case <-genCh:
		return true
	case <-ctx.Done():
		return false
	case <-rt.stopCh:
		return false
	case <-t.C:
		return false
	}
}
