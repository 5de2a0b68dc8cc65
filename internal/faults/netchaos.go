package faults

// Network-level fault injection. faults.go mutates *forwarding state* to
// validate that coverage finds data-plane bugs; this file injects
// *infrastructure* faults — worker crashes, hangs, connection resets,
// slow and truncated responses — to validate that the distributed
// coordinator survives them. Both follow the same discipline: faults are
// injected at a single seam (there, rule actions; here, the HTTP
// transport), are deterministic under a seed, and are revertible.

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// NetFault enumerates the network fault operators a ChaosTransport can
// inject into a single HTTP exchange.
type NetFault uint8

const (
	// FaultReset fails the round trip with a connection error before any
	// response bytes arrive — a RST, a refused dial, a dead NIC.
	FaultReset NetFault = iota
	// FaultHang blocks the round trip until the request context is
	// cancelled — a black-holed connection that never answers.
	FaultHang
	// FaultSlow delays the response by the transport's Delay — a
	// straggler node, whose attempt a coordinator ends at its shard
	// timeout and re-dispatches.
	FaultSlow
	// FaultError500 synthesizes a 500 response without reaching the
	// server — a crashing frontend or a broken proxy.
	FaultError500
	// FaultTruncate forwards the request but cuts the response body
	// short mid-stream — a connection dropped during transfer.
	FaultTruncate
)

func (f NetFault) String() string {
	switch f {
	case FaultReset:
		return "reset"
	case FaultHang:
		return "hang"
	case FaultSlow:
		return "slow"
	case FaultError500:
		return "error500"
	case FaultTruncate:
		return "truncate"
	}
	return "unknown"
}

// ChaosTransport wraps an http.RoundTripper and injects network faults
// into a fraction of exchanges. The zero value passes everything through
// untouched; faults turn on per-kind via the P* probabilities. A seeded
// Rand makes a given test's fault schedule reproducible; counters record
// what was actually injected so tests can assert the chaos was real.
//
// ChaosTransport is safe for concurrent use. It is a client-side seam:
// handing it to http.Client.Transport subjects every request from that
// client to the schedule, which is exactly where a coordinator's view of
// a flaky worker lives.
type ChaosTransport struct {
	// Base performs the real exchange; nil means
	// http.DefaultTransport.
	Base http.RoundTripper

	// PReset, PHang, PSlow, P500, PTruncate are independent per-request
	// injection probabilities in [0,1], checked in that order (at most
	// one fault fires per exchange).
	PReset, PHang, PSlow, P500, PTruncate float64

	// Delay is how long FaultSlow stalls a response (default 50ms).
	Delay time.Duration

	// Match restricts injection to requests whose URL path contains the
	// substring; empty matches everything. Lets a test break only
	// /jobs/{id}/trace downloads, say, while health checks stay clean.
	Match string

	// Rand drives the schedule; nil falls back to always-inject-nothing
	// determinism only when all probabilities are zero, so set it (with
	// a fixed seed) whenever any P* is nonzero.
	Rand *rand.Rand

	mu      sync.Mutex
	crashed bool
	counts  map[NetFault]int
}

// Crash makes every subsequent round trip fail with a connection error
// until Revive — a worker process SIGKILLed, not merely flaky. Crash
// ignores Match and probabilities: a dead node is dead for every path.
func (c *ChaosTransport) Crash() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashed = true
}

// Revive undoes Crash — the node restarted. State held server-side was
// still lost; reviving only restores connectivity.
func (c *ChaosTransport) Revive() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashed = false
}

// Counts returns how many faults of each kind were injected so far.
func (c *ChaosTransport) Counts() map[NetFault]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[NetFault]int, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}

// Injected returns the total number of injected faults across kinds.
func (c *ChaosTransport) Injected() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.counts {
		n += v
	}
	return n
}

// pick decides, under the lock, which fault (if any) this exchange
// draws, and records it. Crash dominates everything.
func (c *ChaosTransport) pick(path string) (NetFault, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return FaultReset, true
	}
	if c.Match != "" && !strings.Contains(path, c.Match) {
		return 0, false
	}
	if c.Rand == nil {
		return 0, false
	}
	for _, cand := range []struct {
		p float64
		f NetFault
	}{
		{c.PReset, FaultReset},
		{c.PHang, FaultHang},
		{c.PSlow, FaultSlow},
		{c.P500, FaultError500},
		{c.PTruncate, FaultTruncate},
	} {
		if cand.p > 0 && c.Rand.Float64() < cand.p {
			if c.counts == nil {
				c.counts = map[NetFault]int{}
			}
			c.counts[cand.f]++
			return cand.f, true
		}
	}
	return 0, false
}

// RoundTrip implements http.RoundTripper with the fault schedule
// applied.
func (c *ChaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := c.Base
	if base == nil {
		base = http.DefaultTransport
	}
	fault, inject := c.pick(req.URL.Path)
	if !inject {
		return base.RoundTrip(req)
	}
	switch fault {
	case FaultReset:
		return nil, fmt.Errorf("chaos: connection reset by peer (%s %s)", req.Method, req.URL.Path)
	case FaultHang:
		<-req.Context().Done()
		return nil, fmt.Errorf("chaos: hung connection: %w", req.Context().Err())
	case FaultSlow:
		d := c.Delay
		if d <= 0 {
			d = 50 * time.Millisecond
		}
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-req.Context().Done():
			t.Stop()
			return nil, fmt.Errorf("chaos: slow connection: %w", req.Context().Err())
		}
		return base.RoundTrip(req)
	case FaultError500:
		return &http.Response{
			Status:     "500 Internal Server Error (chaos)",
			StatusCode: http.StatusInternalServerError,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:        http.Header{"Content-Type": {"application/json"}},
			Body:          io.NopCloser(strings.NewReader(`{"error":"chaos: injected server error"}`)),
			ContentLength: -1,
			Request:       req,
		}, nil
	case FaultTruncate:
		resp, err := base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &truncatedBody{rc: resp.Body}
		resp.ContentLength = -1
		resp.Header.Del("Content-Length")
		return resp, nil
	}
	return base.RoundTrip(req)
}

// truncatedBody passes through about half of the first read, then
// reports an unexpected connection drop. The partial prefix is the
// point: a truncated JSON document must fail decoding, not silently
// parse.
type truncatedBody struct {
	rc   io.ReadCloser
	done bool
}

func (t *truncatedBody) Read(p []byte) (int, error) {
	if t.done {
		return 0, fmt.Errorf("chaos: connection dropped mid-body: %w", io.ErrUnexpectedEOF)
	}
	n, err := t.rc.Read(p)
	if n > 1 {
		n /= 2
	}
	t.done = true
	if err != nil && err != io.EOF {
		return n, err
	}
	return n, nil
}

func (t *truncatedBody) Close() error { return t.rc.Close() }
