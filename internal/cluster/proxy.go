package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/server/wire"
)

// maxProxyBody caps request and response bodies buffered by the router;
// schedd's own MaxTasks limit rejects oversized instances long before
// this, so the cap only guards against a misbehaving peer.
const maxProxyBody = 64 << 20

// reply is a fully buffered backend response.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// relay copies a backend reply to the client, preserving the headers
// that carry protocol meaning.
func (rp *reply) relay(w http.ResponseWriter) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := rp.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(rp.status)
	w.Write(rp.body)
}

// do performs one buffered proxy exchange against a backend. Transport
// errors count as backend failures; HTTP status interpretation is the
// caller's.
func (rt *Router) do(ctx context.Context, b *backend, method, path, query string, body []byte) (*reply, error) {
	return rt.doTimeout(ctx, rt.cfg.Timeout, b, method, path, query, body)
}

// doTimeout is do with an explicit per-attempt bound; timeout <= 0
// leaves the exchange bounded only by ctx (the terminal DELETE needs
// this: its clairvoyant-optimum solve can legitimately outlast any
// fixed proxy timeout under load, and cutting it off just to retry
// re-runs the same expensive solve).
func (rt *Router) doTimeout(ctx context.Context, timeout time.Duration, b *backend, method, path, query string, body []byte) (*reply, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.url(path, query), rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	b.inflight.Add(1)
	b.requests.Add(1)
	start := rt.cfg.Now()
	resp, err := rt.client.Do(req)
	b.inflight.Add(-1)
	rt.metrics.proxyMS.Observe(rt.cfg.Now().Sub(start).Seconds() * 1e3)
	if err != nil {
		b.failures.Add(1)
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
	if err != nil {
		b.failures.Add(1)
		return nil, err
	}
	return &reply{status: resp.StatusCode, header: resp.Header, body: buf}, nil
}

// pick selects the least-loaded live backend whose breaker admits the
// request, skipping already-tried ones. The returned settle func must be
// called with the outcome (it resolves breaker probes); it is non-nil
// exactly when a backend is returned.
func (rt *Router) pick(tried map[*backend]bool) (*backend, func(ok bool)) {
	var best *backend
	var bestProbe bool
	for _, b := range rt.healthy() {
		if tried[b] {
			continue
		}
		ok, probe := b.br.Admit()
		if !ok {
			continue
		}
		if probe {
			// A probe token was consumed: if this backend loses the
			// load comparison, release the token instead of leaking it.
			if best == nil || b.inflight.Load() < best.inflight.Load() {
				if best != nil && bestProbe {
					best.br.ProbeAborted()
				}
				best, bestProbe = b, true
			} else {
				b.br.ProbeAborted()
			}
			continue
		}
		if best == nil || b.inflight.Load() < best.inflight.Load() {
			if best != nil && bestProbe {
				best.br.ProbeAborted()
			}
			best, bestProbe = b, false
		}
	}
	if best == nil {
		return nil, nil
	}
	settle := func(ok bool) {
		if ok {
			best.br.Success()
		} else {
			best.br.Failure()
		}
	}
	return best, settle
}

// forward routes a buffered one-shot request through the backend pool
// with bounded retries. Retryable failures (transport errors, 429/5xx
// overload statuses) bounce to the next backend; when every candidate
// has been tried and attempts remain, the loop honors the backend's
// Retry-After hint before a fresh pass.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, body []byte) {
	var last *reply
	tried := make(map[*backend]bool)
	attempts := rt.cfg.Retries + 1
	for attempt := 0; attempt < attempts; attempt++ {
		b, settle := rt.pick(tried)
		if b == nil {
			if len(tried) == 0 {
				break // nothing admitted at all
			}
			// Full pass exhausted: honor the strongest Retry-After hint,
			// then start over.
			if !rt.sleepRetryAfter(r.Context(), last) {
				break
			}
			tried = make(map[*backend]bool)
			continue
		}
		tried[b] = true
		if attempt > 0 {
			rt.metrics.retries.Add(1)
		}
		rp, err := rt.do(r.Context(), b, r.Method, r.URL.Path, r.URL.RawQuery, body)
		if err != nil {
			settle(false)
			rt.cfg.Logger.Printf("msg=%q backend=%s path=%s err=%q", "proxy failed", b.name, r.URL.Path, err)
			continue
		}
		if wire.RetryableStatus(rp.status) {
			// 429 is load shedding, not a fault: it must not open the
			// breaker, or a saturated backend would be ejected exactly
			// when its peers are busiest.
			if rp.status == http.StatusTooManyRequests {
				settle(true)
			} else {
				settle(false)
				b.failures.Add(1)
			}
			last = rp
			continue
		}
		settle(true)
		rp.relay(w)
		return
	}
	if last != nil {
		last.relay(w)
		return
	}
	wire.RetryAfter(w, 1)
	wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeUnavailable, "no healthy backend")
}

// sleepRetryAfter pauses for the last reply's Retry-After hint (capped
// at 1s, default 50ms) and reports whether the wait completed.
func (rt *Router) sleepRetryAfter(ctx context.Context, last *reply) bool {
	d := 50 * time.Millisecond
	if last != nil {
		if v, err := strconv.Atoi(last.header.Get("Retry-After")); err == nil && v > 0 {
			d = time.Duration(v) * time.Second
		}
	}
	if d > time.Second {
		d = time.Second
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-rt.stopCh:
		return false
	case <-t.C:
		return true
	}
}

// handleOneShot proxies the stateless endpoints (/v1/schedule,
// /v1/feasible, /v1/algorithms) through the load-balanced pool.
func (rt *Router) handleOneShot(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		wire.RetryAfter(w, 1)
		wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeDraining, "router is draining")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxProxyBody))
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "read body: %v", err)
		return
	}
	if len(body) == 0 {
		body = nil
	}
	rt.forward(w, r, body)
}

// handleBatch scatter-gathers POST /v1/schedule/batch: items are split
// round-robin across the live backends, solved in parallel sub-batches,
// and the outcomes are remapped to the caller's item indices. A
// sub-batch whose backends are all unreachable degrades to per-item 503
// entries rather than failing the whole batch.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		wire.RetryAfter(w, 1)
		wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeDraining, "router is draining")
		return
	}
	if r.Method != http.MethodPost {
		wire.WriteError(w, http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed, "use POST")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxProxyBody))
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "read body: %v", err)
		return
	}
	var req wire.BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "decode: %v", err)
		return
	}
	shards := len(rt.healthy())
	if shards > len(req.Items) {
		shards = len(req.Items)
	}
	if shards <= 1 {
		// Degenerate split: forward the whole batch as-is (this also
		// preserves the backend's validation of empty batches).
		rt.forward(w, r, body)
		return
	}

	start := rt.cfg.Now()
	// Round-robin partition keeps per-shard work balanced even when
	// instance difficulty trends across the batch.
	groups := make([][]int, shards)
	for i := range req.Items {
		groups[i%shards] = append(groups[i%shards], i)
	}
	items := make([]wire.BatchItem, 0, len(req.Items))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, idx := range groups {
		wg.Add(1)
		go func(idx []int) {
			defer wg.Done()
			sub := wire.BatchRequest{Items: make([]wire.ScheduleRequest, len(idx))}
			for j, i := range idx {
				sub.Items[j] = req.Items[i]
			}
			out := rt.subBatch(r, sub, idx)
			mu.Lock()
			items = append(items, out...)
			mu.Unlock()
		}(idx)
	}
	wg.Wait()
	sort.Slice(items, func(i, j int) bool { return items[i].Index < items[j].Index })
	wire.WriteJSON(w, http.StatusOK, wire.BatchResponse{
		Version:   wire.Version,
		Items:     items,
		ElapsedMS: rt.cfg.Now().Sub(start).Seconds() * 1e3,
	})
}

// subBatch solves one scatter shard with the same retry machinery as
// single requests and remaps item indices back to the original batch.
func (rt *Router) subBatch(r *http.Request, sub wire.BatchRequest, idx []int) []wire.BatchItem {
	fail := func(msg string) []wire.BatchItem {
		out := make([]wire.BatchItem, len(idx))
		for j, i := range idx {
			out[j] = wire.BatchItem{
				Index:     i,
				Error:     msg,
				Status:    http.StatusServiceUnavailable,
				Code:      wire.CodeUnavailable,
				Retryable: true,
			}
		}
		return out
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return fail("encode sub-batch: " + err.Error())
	}
	rec := &recorder{header: make(http.Header)}
	// Reuse forward's retry/breaker path by capturing its output.
	req := r.Clone(r.Context())
	rt.forward(rec, req, body)
	if rec.status != http.StatusOK {
		return fail(fmt.Sprintf("sub-batch failed: status %d", rec.status))
	}
	var resp wire.BatchResponse
	if err := json.Unmarshal(rec.body.Bytes(), &resp); err != nil {
		return fail("decode sub-batch: " + err.Error())
	}
	out := make([]wire.BatchItem, 0, len(idx))
	for _, item := range resp.Items {
		if item.Index < 0 || item.Index >= len(idx) {
			continue // backend bug; drop rather than misattribute
		}
		item.Index = idx[item.Index]
		out = append(out, item)
	}
	return out
}

// recorder captures a handler write for in-process reuse of forward.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (rec *recorder) Header() http.Header { return rec.header }
func (rec *recorder) WriteHeader(code int) {
	if rec.status == 0 {
		rec.status = code
	}
}
func (rec *recorder) Write(p []byte) (int, error) {
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	return rec.body.Write(p)
}
