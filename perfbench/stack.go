package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// stackSpec says which serving tiers a workload starts.
type stackSpec struct {
	backends int    // schedd instances
	router   bool   // front them with one cluster router
	dataDir  string // journal directory for every backend ("" = none)
}

// stack is the real serving stack, in this process, on loopback ports.
type stack struct {
	servers  []*server.Server
	backends []string // schedd base URLs
	router   *cluster.Router
	front    string // the URL clients talk to
	https    []*http.Server
	served   sync.WaitGroup
}

// serve starts h on an ephemeral loopback port and returns its base URL.
func (st *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h}
	st.https = append(st.https, hs)
	st.served.Add(1)
	go func() {
		defer st.served.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed from close()
	}()
	return "http://" + ln.Addr().String(), nil
}

// startStack builds the stack and returns once its front answers 200 on
// /readyz. Schedd runs with its default configuration; with a data dir
// it recovers the journal before listening, as cmd/schedd does.
func startStack(ctx context.Context, spec stackSpec) (*stack, error) {
	st := &stack{}
	for i := 0; i < spec.backends; i++ {
		cfg := server.Config{}
		if spec.dataDir != "" {
			cfg.DataDir = fmt.Sprintf("%s/b%d", spec.dataDir, i)
		}
		srv := server.New(cfg)
		st.servers = append(st.servers, srv)
		if cfg.DataDir != "" {
			if _, err := srv.Recover(ctx); err != nil {
				st.close()
				return nil, fmt.Errorf("journal recovery: %w", err)
			}
		}
		url, err := st.serve(srv.Handler())
		if err != nil {
			st.close()
			return nil, err
		}
		st.backends = append(st.backends, url)
	}
	st.front = st.backends[0]
	if spec.router {
		rt, err := cluster.New(cluster.Config{Backends: st.backends})
		if err != nil {
			st.close()
			return nil, err
		}
		st.router = rt
		if st.front, err = st.serve(rt.Handler()); err != nil {
			st.close()
			return nil, err
		}
	}
	if err := waitReady(ctx, st.front); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// waitReady polls /readyz on a fresh connection until it answers 200.
func waitReady(ctx context.Context, base string) error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := c.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("readyz %s: %w", base, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// close stops the router, every listener and connection, and every
// server, and waits for the serving goroutines to return.
func (st *stack) close() {
	if st.router != nil {
		st.router.Close()
	}
	for _, hs := range st.https {
		hs.Close()
	}
	st.served.Wait()
	for _, srv := range st.servers {
		srv.Close()
	}
}

// counters is one scrape of a /metrics page: metric line name (labels
// included) → value.
type counters map[string]float64

// scrape reads base/metrics.
func scrape(ctx context.Context, c *http.Client, base string) (counters, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: HTTP %d", base, resp.StatusCode)
	}
	out := counters{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	return out, nil
}

// scrapeAll scrapes every backend and, when present, the router.
func (st *stack) scrapeAll(ctx context.Context, c *http.Client) ([]counters, counters, error) {
	var bs []counters
	for _, b := range st.backends {
		m, err := scrape(ctx, c, b)
		if err != nil {
			return nil, nil, err
		}
		bs = append(bs, m)
	}
	if st.router == nil {
		return bs, nil, nil
	}
	rm, err := scrape(ctx, c, st.front)
	return bs, rm, err
}

// delta sums after[name]-before[name] over paired scrapes.
func delta(before, after []counters, name string) float64 {
	var d float64
	for i := range after {
		d += after[i][name] - before[i][name]
	}
	return d
}
