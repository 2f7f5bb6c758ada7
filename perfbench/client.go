package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"runtime/metrics"
	"time"
)

// newClient returns an HTTP client that opens at most two connections to
// a host: the benchmark drives at most two at once.
func newClient() (*http.Client, *http.Transport) {
	tr := &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr}, tr
}

// exchange sends one request and reads the whole response. The returned
// latency runs from the send to the last body byte, in milliseconds.
func exchange(ctx context.Context, c *http.Client, method, url string, body []byte) (status int, resp []byte, ms float64, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	r, err := c.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	ms = sinceMS(start)
	if err != nil {
		return r.StatusCode, nil, ms, fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	return r.StatusCode, resp, ms, nil
}

func sinceMS(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// rng derives an independent, reproducible random stream from the run
// seed, a stream name and an index, so every input is a pure function of
// the seed.
func rng(seed int64, stream string, i int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// heapPeak samples the Go heap every few milliseconds until stopped and
// keeps the largest value seen. It covers the whole process: the
// in-process serving stack and the load generator alike.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapSampleEvery = 5 * time.Millisecond

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops sampling and returns the peak in MB (2^20 bytes).
func (h *heapPeak) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
