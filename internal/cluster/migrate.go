package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"repro/internal/server/wire"
)

// healthLoop polls every backend's /readyz on HealthInterval. A backend
// is marked down — and its sessions migrated — after HealthFailures
// consecutive failures; one green poll brings it back. Health is
// poll-owned: proxy failures open the breaker but never flip up/down,
// so a single slow request cannot trigger a fleet-wide migration storm.
func (rt *Router) healthLoop() {
	defer close(rt.healthDone)
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stopCh:
			return
		case <-t.C:
		}
		var wg sync.WaitGroup
		for _, b := range rt.backends {
			wg.Add(1)
			go func(b *backend) {
				defer wg.Done()
				rt.checkBackend(b)
			}(b)
		}
		wg.Wait()
	}
}

func (rt *Router) checkBackend(b *backend) {
	// The probe timeout is deliberately much longer than the poll
	// interval: /readyz is cheap, but a backend saturated with solve
	// work can be slow to accept the connection, and a slow-but-alive
	// backend must not be declared down (that triggers a migration
	// storm). A dead backend still fails instantly — its port refuses
	// the connection — so detection latency is governed by
	// HealthInterval × HealthFailures, not by this timeout.
	timeout := 4 * rt.cfg.HealthInterval
	if timeout < time.Second {
		timeout = time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url("/readyz", ""), nil)
	if err != nil {
		return
	}
	resp, err := rt.client.Do(req)
	ok := err == nil && resp.StatusCode == http.StatusOK
	if resp != nil {
		resp.Body.Close()
	}
	if ok {
		b.consecFail.Store(0)
		if !b.up.Swap(true) {
			rt.cfg.Logger.Printf("msg=%q backend=%s", "backend up", b.name)
		}
		return
	}
	n := b.consecFail.Add(1)
	if b.up.Load() && int(n) >= rt.cfg.HealthFailures {
		rt.markDown(b)
	}
}

// markDown flips a backend unhealthy and kicks a migration for every
// session homed on it.
func (rt *Router) markDown(b *backend) {
	if !b.up.Swap(false) {
		return // already down
	}
	rt.cfg.Logger.Printf("msg=%q backend=%s fails=%d", "backend down", b.name, b.consecFail.Load())
	type move struct {
		s   *routedSession
		gen int64
	}
	var moves []move
	rt.mu.Lock()
	for _, s := range rt.sessions {
		if s.home == b && !s.closed {
			moves = append(moves, move{s, s.gen})
		}
	}
	rt.mu.Unlock()
	for _, mv := range moves {
		go rt.migrateFrom(mv.s, b, mv.gen)
	}
}

// migrateFrom moves a session off a failing backend, serialized per
// session: concurrent triggers for the same generation collapse into
// one restore, and triggers that observed an older generation are
// no-ops. Callers that need the new placement re-read location() after
// this returns (or wait on the generation channel).
func (rt *Router) migrateFrom(sess *routedSession, from *backend, observedGen int64) {
	rt.mu.Lock()
	for sess.migrating {
		rt.cond.Wait()
	}
	if sess.closed || sess.gen != observedGen || sess.home != from {
		rt.mu.Unlock()
		return
	}
	sess.migrating = true
	// Requests already proxied to the old home finish first (new ones
	// wait in enter): an arrival it acknowledges is then in the snapshot
	// cached below, or in the live one restoreElsewhere fetches.
	for sess.inflight > 0 {
		rt.cond.Wait()
	}
	if sess.closed {
		sess.migrating = false
		rt.cond.Broadcast()
		rt.mu.Unlock()
		return
	}
	cached := sess.snap
	create := sess.create
	rt.mu.Unlock()

	// Durable backends get a grace window to come back with the session
	// recovered from its journal: re-adopting in place preserves the
	// committed prefix and the event history exactly, where a migration
	// restores from the (possibly stale) last snapshot the router saw.
	if rt.cfg.RecoveryGrace > 0 && rt.waitRecovered(sess.id, from) {
		rt.mu.Lock()
		sess.migrating = false
		if !sess.closed && sess.home == from && sess.gen == observedGen {
			// Same home, same hub (epoch unchanged: the recovered stream
			// replays its journal-seeded ring and the pump dedupes those
			// replays by backend sequence); bump gen so waiting pumps
			// reconnect.
			sess.gen++
			close(sess.genCh)
			sess.genCh = make(chan struct{})
			rt.metrics.readoptions.Add(1)
			rt.cfg.Logger.Printf("msg=%q session=%s backend=%s gen=%d",
				"session re-adopted after backend recovery", sess.id, from.name, sess.gen)
		}
		rt.cond.Broadcast()
		rt.mu.Unlock()
		return
	}

	target, used := rt.restoreElsewhere(sess.id, create, from, cached)

	rt.mu.Lock()
	sess.migrating = false
	if target != nil && !sess.closed {
		old := sess.home
		sess.home = target
		sess.gen++
		sess.hubEpoch++
		sess.snap = used
		close(sess.genCh)
		sess.genCh = make(chan struct{})
		rt.metrics.migrations.Add(1)
		rt.cfg.Logger.Printf("msg=%q session=%s from=%s to=%s gen=%d seq=%d",
			"session migrated", sess.id, old.name, target.name, sess.gen, used.Seq)
		// Best-effort teardown of the stale copy: if the old backend is
		// merely draining (not dead) the copy would otherwise linger
		// until its TTL.
		go rt.reapStaleCopy(old, sess.id)
	} else if target == nil {
		rt.metrics.migrationFails.Add(1)
		rt.cfg.Logger.Printf("msg=%q session=%s from=%s", "migration failed", sess.id, from.name)
	}
	rt.cond.Broadcast()
	rt.mu.Unlock()
}

// restoreElsewhere restores the session on the best live backend other
// than from, preferring a live snapshot (fresher than the cache when
// the source is draining rather than dead).
func (rt *Router) restoreElsewhere(id string, create wire.SessionCreateRequest, from *backend, cached *wire.SessionSnapshot) (*backend, *wire.SessionSnapshot) {
	snap := cached
	probeCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	if live, err := rt.fetchSnapshot(probeCtx, from, id); err == nil {
		snap = live
	}
	cancel()
	if snap == nil {
		rt.cfg.Logger.Printf("msg=%q session=%s", "no snapshot to migrate from", id)
		return nil, nil
	}
	body, err := json.Marshal(wire.SessionRestoreRequest{
		ID:         id,
		Snapshot:   snap,
		DebounceMS: create.DebounceMS,
		Backlog:    create.Backlog,
		SkipRatio:  create.SkipRatio,
	})
	if err != nil {
		return nil, nil
	}
	for _, b := range rank(id, rt.healthy()) {
		if b == from {
			continue
		}
		rp, err := rt.do(context.Background(), b, http.MethodPost, "/v1/sessions/restore", "", body)
		if err != nil {
			continue
		}
		// 409 means the session already lives there — a previous
		// migration attempt succeeded on the backend but the router
		// never learned; adopt it.
		if rp.status == http.StatusCreated || rp.status == http.StatusConflict {
			return b, snap
		}
		rt.cfg.Logger.Printf("msg=%q session=%s backend=%s status=%d", "restore rejected", id, b.name, rp.status)
	}
	return nil, nil
}

// waitRecovered polls the down backend for up to RecoveryGrace, probing
// the session itself rather than /readyz: a 200 on the session's
// schedule endpoint proves the backend is back AND recovered this
// session from its journal. A 404 is a definitive no — the backend
// restarted without the session (no journal, or its recovery failed) —
// and ends the wait early so migration proceeds.
func (rt *Router) waitRecovered(id string, b *backend) bool {
	period := rt.cfg.HealthInterval
	if period <= 0 {
		period = 100 * time.Millisecond
	}
	probeTimeout := 4 * period
	if probeTimeout > time.Second {
		probeTimeout = time.Second
	}
	deadline := rt.cfg.Now().Add(rt.cfg.RecoveryGrace)
	for rt.cfg.Now().Before(deadline) {
		select {
		case <-rt.stopCh:
			return false
		case <-time.After(period):
		}
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url("/v1/sessions/"+id+"/schedule", ""), nil)
		if err != nil {
			cancel()
			return false
		}
		resp, err := rt.client.Do(req)
		cancel()
		if err != nil {
			continue // still down
		}
		code := resp.StatusCode
		resp.Body.Close()
		switch code {
		case http.StatusOK:
			return true
		case http.StatusNotFound:
			return false
		}
		// Anything else (503 draining, 500): keep waiting out the grace.
	}
	return false
}

// reapStaleCopy deletes the pre-migration session copy on its old
// backend. Failures are expected (the usual reason for migration is
// that the backend is dead) and ignored.
func (rt *Router) reapStaleCopy(old *backend, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, _ = rt.do(ctx, old, http.MethodDelete, "/v1/sessions/"+id, "", nil)
}
