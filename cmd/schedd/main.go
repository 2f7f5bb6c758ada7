// Command schedd is the scheduling daemon: a JSON HTTP service that
// solves energy-aware aperiodic-task instances with any scheduler in the
// repository's registry, behind admission control, a solve cache, an
// in-band schedule-verification guardrail, per-algorithm circuit
// breakers with an always-feasible fallback chain, and first-class
// metrics.
//
// Usage:
//
//	schedd [-addr :8080] [-workers N] [-queue 64] [-cache 1024]
//	       [-timeout 5s] [-max-tasks 10000] [-quiet]
//	       [-fallback MaxFreq] [-breaker-threshold 5] [-breaker-cooldown 2s]
//	       [-sessions 256] [-session-ttl 0] [-session-backlog 1024]
//	       [-data-dir DIR] [-fsync interval]
//	       [-faults point=rate,...] [-fault-seed N] [-fault-delay 100ms]
//
// With -data-dir set every session's lifecycle is journaled to a
// crash-recoverable write-ahead log and replayed on the next start:
// committed work, counters, and the SSE event ring survive a SIGKILL.
// -fsync picks the durability policy (always | interval | never); see
// internal/journal. Inspect or repair the logs with cmd/schedjournal.
//
// Endpoints (see internal/server):
//
//	POST /v1/schedule    {"algorithm":"S^F2","cores":4,"model":{"alpha":3,"p0":0.05},"tasks":[...]}
//	POST /v1/feasible    {"cores":4,"speed":1,"tasks":[...]}
//	GET  /v1/algorithms
//	GET  /healthz        liveness
//	GET  /readyz         readiness (503 while draining / all breakers open)
//	GET  /metrics
//	     /debug/pprof/*
//
// Streaming sessions (live dispatch runtime, see internal/dispatch):
//
//	POST   /v1/sessions               open a session
//	POST   /v1/sessions/{id}/tasks    {"at":12.5,"tasks":[...]}
//	GET    /v1/sessions/{id}/schedule committed prefix + plan suffix
//	GET    /v1/sessions/{id}/events   SSE event stream
//	DELETE /v1/sessions/{id}          finish + final competitive-ratio report
//
// Fault injection is OFF unless -faults (or SCHEDD_FAULTS) names at
// least one point with a nonzero rate, e.g.
//
//	schedd -faults solver_panic=0.1,cache_corrupt=0.2 -fault-seed 42
//
// It exists for chaos testing (`make chaos`); never enable it in a real
// deployment.
//
// SIGINT/SIGTERM drain gracefully: in-flight solves finish and every
// live session is run to its horizon with its event stream closed
// (bounded by the grace timeout) while new work is rejected with 503.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/cliflag"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/server"
)

// envDefault returns the environment value when the flag was left at its
// default, so SCHEDD_FAULTS / SCHEDD_FAULT_SEED work in harnesses that
// cannot pass flags.
func envDefault(flagVal, env string) string {
	if flagVal != "" {
		return flagVal
	}
	return os.Getenv(env)
}

func main() {
	fs := cliflag.New("schedd")
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		workers  = fs.Int("workers", 0, "concurrent solves (0 = GOMAXPROCS)")
		queue    = fs.Int("queue", 64, "admission-queue depth before 429")
		cache    = fs.Int("cache", 1024, "solve-cache capacity (-1 disables)")
		timeout  = fs.Duration("timeout", 5*time.Second, "per-request solve deadline")
		maxTasks = fs.Int("max-tasks", 10000, "reject larger instances with 400")
		grace    = fs.Duration("grace", 5*time.Second, "drain timeout on shutdown")
		quiet    = fs.Bool("quiet", false, "suppress per-request log lines")

		fallbackAlg = fs.String("fallback", "", `fallback algorithm for failed solves ("" = MaxFreq, "none" disables)`)
		brThreshold = fs.Int("breaker-threshold", 0, "consecutive failures that open an algorithm's breaker (0 = default 5, negative disables)")
		brCooldown  = fs.Duration("breaker-cooldown", 0, "initial open-breaker cooldown before a half-open probe (0 = default 2s)")
		brMax       = fs.Duration("breaker-max-cooldown", 0, "cap on the exponentially growing cooldown (0 = default 30s)")

		sessionLimit   = fs.Int("sessions", 0, "max concurrent streaming sessions (0 = default 256)")
		sessionTTL     = fs.Duration("session-ttl", 0, "evict sessions idle longer than this (0 disables)")
		sessionBacklog = fs.Int("session-backlog", 0, "default per-session backlog before load-shedding (0 = default 1024)")

		dataDir = fs.String("data-dir", "", "durable session journal directory (empty disables durability)")
		fsyncP  = fs.String("fsync", "interval", "journal fsync policy: always | interval | never")

		faultSpec  = fs.String("faults", "", "fault-injection spec point=rate,... (env SCHEDD_FAULTS); empty disables")
		faultSeed  = fs.Int64("fault-seed", 0, "fault-injection RNG seed (env SCHEDD_FAULT_SEED; 0 = 1)")
		faultDelay = fs.Duration("fault-delay", 0, "duration of injected solver_delay faults (0 = default 100ms)")
	)
	fs.Parse(os.Args[1:])

	fsync, err := journal.ParsePolicy(*fsyncP)
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedd: -fsync: %v\n", err)
		os.Exit(2)
	}

	logOut := io.Writer(os.Stderr)
	if *quiet {
		logOut = io.Discard
	}
	logger := log.New(logOut, "schedd ", log.LstdFlags|log.Lmicroseconds)

	spec := envDefault(*faultSpec, "SCHEDD_FAULTS")
	if spec != "" {
		rates, err := fault.ParseRates(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "schedd: -faults: %v\n", err)
			os.Exit(2)
		}
		seed := *faultSeed
		if seed == 0 {
			if env := os.Getenv("SCHEDD_FAULT_SEED"); env != "" {
				if v, err := strconv.ParseInt(env, 10, 64); err == nil {
					seed = v
				}
			}
		}
		if seed == 0 {
			seed = 1 // the documented "-fault-seed 0 = 1" default
		}
		fault.Enable(fault.New(fault.Plan{Rates: rates, Seed: seed, Delay: *faultDelay}))
		fmt.Fprintf(os.Stderr, "schedd: FAULT INJECTION ACTIVE: %s (seed=%d)\n", spec, seed)
	}

	srv := server.New(server.Config{
		Addr:               *addr,
		Workers:            *workers,
		Queue:              *queue,
		CacheSize:          *cache,
		SolveTimeout:       *timeout,
		MaxTasks:           *maxTasks,
		GraceTimeout:       *grace,
		Logger:             logger,
		FallbackAlgorithm:  *fallbackAlg,
		BreakerThreshold:   *brThreshold,
		BreakerCooldown:    *brCooldown,
		BreakerMaxCooldown: *brMax,
		SessionLimit:       *sessionLimit,
		SessionTTL:         *sessionTTL,
		SessionBacklog:     *sessionBacklog,
		DataDir:            *dataDir,
		Fsync:              fsync,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *dataDir != "" {
		rep, err := srv.Recover(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "schedd: journal recovery: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "schedd: journal %s (fsync=%s): recovered %d sessions, %d failed, %d collected\n",
			*dataDir, fsync, rep.Recovered, rep.Failed, rep.Collected)
	}

	nw := *workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "schedd: listening on %s (workers=%d queue=%d cache=%d timeout=%s)\n",
		*addr, nw, *queue, *cache, *timeout)
	if err := srv.ListenAndServe(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "schedd: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "schedd: bye")
}
