package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// httpCounts is shared by the clients of one run: HTTP attempts and the
// ones the daemon shed (429/503).
type httpCounts struct {
	attempts atomic.Int64
	shed     atomic.Int64
}

// httpClient is one closed-loop client: a single keep-alive connection
// to a daemon's forwarder, plain net/http (internal/client is a layer
// under test, measured on fleet_coord, and stays out of this path).
type httpClient struct {
	hc     *http.Client
	base   string
	counts *httpCounts
	rec    *recorder
}

func newHTTPClient(base string, counts *httpCounts, rec *recorder) *httpClient {
	return &httpClient{
		hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   60 * time.Second,
		},
		base: base, counts: counts, rec: rec,
	}
}

func (h *httpClient) close() { h.hc.CloseIdleConnections() }

// exchange is one finished HTTP round trip.
type exchange struct {
	status     int
	body       []byte
	header     http.Header
	start, end time.Time
	span       int
}

// do performs one request and reads the whole response inside a span
// named after the route.
func (h *httpClient) do(spanName string, parent, op int, method, path string, body []byte) (exchange, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return exchange{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	ex := exchange{start: time.Now()}
	ex.span = h.rec.begin(spanName, parent, op)
	defer h.rec.end(ex.span)
	h.counts.attempts.Add(1)
	resp, err := h.hc.Do(req)
	if err != nil {
		return ex, err
	}
	defer resp.Body.Close()
	ex.body, err = io.ReadAll(resp.Body)
	ex.end = time.Now()
	ex.status, ex.header = resp.StatusCode, resp.Header
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		h.counts.shed.Add(1)
	}
	return ex, err
}

// expect turns an unexpected status into an error carrying the body.
func (ex exchange) expect(status int) error {
	if ex.status != status {
		return fmt.Errorf("status %d, want %d: %s", ex.status, status, bytes.TrimSpace(ex.body))
	}
	return nil
}

// serverCompute reads the "compute" duration out of a Server-Timing
// response header (GET /coverage reports how long the metric
// computation took); ok is false when the header has no such entry.
func serverCompute(h http.Header) (time.Duration, bool) {
	for _, part := range strings.Split(h.Get("Server-Timing"), ",") {
		name, rest, _ := strings.Cut(strings.TrimSpace(part), ";")
		if name != "compute" {
			continue
		}
		if v, ok := strings.CutPrefix(strings.TrimSpace(rest), "dur="); ok {
			ms, err := strconv.ParseFloat(v, 64)
			if err == nil {
				return time.Duration(ms * float64(time.Millisecond)), true
			}
		}
	}
	return 0, false
}
