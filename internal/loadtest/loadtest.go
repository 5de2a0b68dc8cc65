// Package loadtest drives a live yardstick daemon with an open-loop
// request stream and classifies every response, producing the load
// proof for the admission layer: under overload the daemon must answer
// every request with 2xx or a shed (429/503) carrying Retry-After —
// never a connection drop, never a panic 500.
//
// The generator is open-loop on purpose: a ticker fires at the target
// rate regardless of how slowly the server answers, the way a fleet of
// independent reporters actually behaves. (A closed loop that waits for
// each response before sending the next self-throttles exactly when the
// server saturates, which hides the overload the test exists to
// create.) A bounded outstanding-request cap keeps the generator itself
// from hoarding file descriptors; ticks that find the cap exhausted are
// counted as local drops, not sent.
package loadtest

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"yardstick/internal/obs"
)

// Config parameterizes one load run against a live daemon.
type Config struct {
	// BaseURL locates the daemon (e.g. "http://127.0.0.1:8080").
	BaseURL string
	// RPS is the open-loop request rate (default 50).
	RPS float64
	// Duration bounds the generation window (default 10s); in-flight
	// requests are still drained and counted after it ends.
	Duration time.Duration
	// Suites is the suite list each submission asks for (default
	// "default").
	Suites string
	// MaxOutstanding caps concurrently open requests (default 256).
	MaxOutstanding int
	// RequestTimeout bounds each probe (default 10s).
	RequestTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.RPS <= 0 {
		c.RPS = 50
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Suites == "" {
		c.Suites = "default"
	}
	if c.MaxOutstanding <= 0 {
		c.MaxOutstanding = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	return c
}

// Totals classifies every tick of the run. Launched = Accepted + Shed +
// Errors5xx + Errors4xx + TransportErrors; Launched + LocalDrops is the
// number of ticks.
type Totals struct {
	// Launched requests actually went on the wire.
	Launched uint64 `json:"launched"`
	// Accepted answers were 2xx (202 for job submissions).
	Accepted uint64 `json:"accepted"`
	// Shed answers were 429 or 503 — the admission layer saying "not
	// now" instead of falling over.
	Shed uint64 `json:"shed"`
	// ShedNoRetryAfter counts sheds missing the Retry-After header; the
	// admission contract says this must be zero.
	ShedNoRetryAfter uint64 `json:"shed_no_retry_after"`
	// Errors5xx counts non-shed 5xx answers (a panic surfacing as 500
	// lands here); the contract says zero.
	Errors5xx uint64 `json:"errors_5xx"`
	// Errors4xx counts caller-bug answers; a correct config keeps this
	// zero.
	Errors4xx uint64 `json:"errors_4xx"`
	// TransportErrors counts requests that never got an HTTP answer
	// (refused, reset, timed out): the "dropped connection" the
	// admission layer exists to prevent.
	TransportErrors uint64 `json:"transport_errors"`
	// LocalDrops counts ticks skipped because MaxOutstanding was
	// exhausted — generator-side backpressure, not a server fault.
	LocalDrops uint64 `json:"local_drops"`
}

// Latency summarizes one response-time distribution, in seconds.
type Latency struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

func summarize(h *obs.Histogram) Latency {
	l := Latency{Count: h.Count(), P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99)}
	if l.Count > 0 {
		l.Mean = h.Sum() / float64(l.Count)
	}
	return l
}

// Report is the result of one load run — the content of
// BENCH_service.json.
type Report struct {
	Cores           int     `json:"cores"`
	RPS             float64 `json:"rps"`
	DurationSeconds float64 `json:"duration_seconds"`
	Suites          string  `json:"suites"`
	Totals          Totals  `json:"totals"`
	// Accepted is the latency of admitted submissions — the p99 the
	// SLO is stated against.
	Accepted Latency `json:"accepted_latency_seconds"`
	// Shed is the latency of shed answers; shedding must be cheap, or
	// overload protection is itself an overload.
	Shed Latency `json:"shed_latency_seconds"`
}

// Violations returns the ways the run broke the admission contract
// (empty when the daemon behaved).
func (r Report) Violations() []string {
	var v []string
	if r.Totals.Errors5xx > 0 {
		v = append(v, fmt.Sprintf("%d non-shed 5xx responses", r.Totals.Errors5xx))
	}
	if r.Totals.ShedNoRetryAfter > 0 {
		v = append(v, fmt.Sprintf("%d sheds missing Retry-After", r.Totals.ShedNoRetryAfter))
	}
	if r.Totals.TransportErrors > 0 {
		v = append(v, fmt.Sprintf("%d dropped connections", r.Totals.TransportErrors))
	}
	if r.Totals.Launched == 0 {
		v = append(v, "no requests launched")
	}
	return v
}

// Run executes one open-loop load run. It returns early only when ctx
// is cancelled; server misbehavior is recorded in the report, not
// returned as an error, so a failing daemon still yields a full
// accounting.
func Run(ctx context.Context, cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	target := cfg.BaseURL + "/jobs?suite=" + url.QueryEscape(cfg.Suites)
	hc := &http.Client{Timeout: cfg.RequestTimeout}
	reg := obs.NewRegistry()
	accepted := reg.Histogram("accepted_latency_seconds", obs.DefBuckets)
	shed := reg.Histogram("shed_latency_seconds", obs.DefBuckets)

	var t struct {
		launched, accepted, shed, shedNoRA, e5xx, e4xx, transport, localDrops atomic.Uint64
	}
	probe := func() {
		start := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, nil)
		if err != nil {
			t.transport.Add(1)
			return
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.transport.Add(1)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		el := time.Since(start).Seconds()
		switch {
		case resp.StatusCode >= 200 && resp.StatusCode < 300:
			t.accepted.Add(1)
			accepted.Observe(el)
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			t.shed.Add(1)
			shed.Observe(el)
			if resp.Header.Get("Retry-After") == "" {
				t.shedNoRA.Add(1)
			}
		case resp.StatusCode >= 500:
			t.e5xx.Add(1)
		default:
			t.e4xx.Add(1)
		}
	}

	interval := time.Duration(float64(time.Second) / cfg.RPS)
	if interval < 100*time.Microsecond {
		interval = 100 * time.Microsecond // ~10k RPS generator ceiling
	}
	sem := make(chan struct{}, cfg.MaxOutstanding)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.NewTimer(cfg.Duration)
	defer deadline.Stop()
	var wg sync.WaitGroup
generate:
	for {
		select {
		case <-ctx.Done():
			break generate
		case <-deadline.C:
			break generate
		case <-ticker.C:
			select {
			case sem <- struct{}{}:
				t.launched.Add(1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					probe()
				}()
			default:
				t.localDrops.Add(1)
			}
		}
	}
	wg.Wait() // drain in-flight probes so the totals are complete

	rep := Report{
		Cores:           runtime.NumCPU(),
		RPS:             cfg.RPS,
		DurationSeconds: cfg.Duration.Seconds(),
		Suites:          cfg.Suites,
		Totals: Totals{
			Launched:         t.launched.Load(),
			Accepted:         t.accepted.Load(),
			Shed:             t.shed.Load(),
			ShedNoRetryAfter: t.shedNoRA.Load(),
			Errors5xx:        t.e5xx.Load(),
			Errors4xx:        t.e4xx.Load(),
			TransportErrors:  t.transport.Load(),
			LocalDrops:       t.localDrops.Load(),
		},
		Accepted: summarize(accepted),
		Shed:     summarize(shed),
	}
	return rep, ctx.Err()
}
