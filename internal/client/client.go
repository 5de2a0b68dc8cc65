// Package client is the retrying Go client for the Yardstick coverage
// service (package service) that the distributed coordinator
// (internal/coord) uses to drive its workers: push a network, submit a
// suite as a job, wait for it, and fetch the job's coverage fragment,
// span profile and metric snapshot. It wraps only those calls; every
// other endpoint is plain HTTP + JSON, which any tool can speak (a
// testing tool reports coverage by POSTing a trace file to /trace).
//
// The client is built for flaky production networks: every call takes a
// context, each HTTP attempt gets a per-request timeout, and transient
// failures (connection errors, 5xx responses, and 429 shed responses)
// are retried with exponential backoff plus jitter. When the server
// sheds load it attaches a Retry-After hint (seconds or HTTP-date); the
// client honors the hint in place of its own backoff, capped at the
// policy's MaxDelay. Other 4xx responses are never retried — they are
// the caller's bug, not the network's. Retrying is safe for every call
// here: a repeated network push leaves the same network and an empty
// trace, and a duplicate job submission re-runs suites whose coverage
// merges to the same union.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"yardstick/internal/service"
)

// APIError is a non-2xx response from the service, carrying the status
// code and the server's error message. Errors with a 4xx code other
// than 429 are returned without retries.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's Retry-After hint, decoded from either
	// the delay-seconds or the HTTP-date form (0 when absent). Shed
	// responses (429/503 from admission control) carry it.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.StatusCode, e.Message)
}

// RetryPolicy bounds the retry loop. Attempt n waits roughly
// BaseDelay·2ⁿ (capped at MaxDelay) with equal jitter — half the delay
// is deterministic, half uniformly random — so a fleet of reporters
// that failed together does not retry in lockstep.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts, including the first
	// (default 4; values < 1 mean one attempt, i.e. no retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 100ms).
	BaseDelay time.Duration
	// MaxDelay caps the per-attempt backoff (default 3s).
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 3 * time.Second
	}
	return p
}

// Backoff returns the jittered delay before attempt n (n >= 1):
// BaseDelay·2ⁿ⁻¹, capped at MaxDelay, half of it deterministic and half
// uniformly random. Attempts late enough to shift past the int64 range
// wait the cap.
func (p RetryPolicy) Backoff(n int) time.Duration {
	d := p.BaseDelay << (n - 1)
	if d <= 0 || d > p.MaxDelay { // <= 0 guards shift overflow
		d = p.MaxDelay
	}
	return d/2 + rand.N(d/2+1)
}

// retryDelay returns the wait before attempt n (n >= 1). A server
// Retry-After hint on the previous attempt's error takes precedence
// over the policy's own backoff — the server knows when its queue will
// drain better than an exponential guess does — but is still capped at
// MaxDelay so a confused server cannot park the client for an hour.
func (p RetryPolicy) retryDelay(n int, lastErr error) time.Duration {
	var ae *APIError
	if errors.As(lastErr, &ae) && ae.RetryAfter > 0 {
		return min(ae.RetryAfter, p.MaxDelay)
	}
	return p.Backoff(n)
}

// parseRetryAfter decodes a Retry-After header value, which RFC 9110
// allows in two forms: delay-seconds ("120") or an HTTP-date ("Fri, 07
// Aug 2026 10:00:00 GMT"). Returns 0 for absent, malformed, or
// already-elapsed values.
func parseRetryAfter(h string, now time.Time) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// defaultRetry is the retry policy used when WithRetry is not given.
var defaultRetry = RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 3 * time.Second}

// headerCtxKey carries extra request headers on a context.
type headerCtxKey struct{}

// ContextWithHeader returns a context under which every request this
// package issues carries the given header — the run-context propagation
// channel: a coordinator sets X-Run-Id and X-Shard-Id once per dispatch
// and they ride along on the submit, every poll, and the artifact
// fetches without widening any method signature. Calls accumulate; a
// repeated key overrides the earlier value.
func ContextWithHeader(ctx context.Context, key, value string) context.Context {
	prev, _ := ctx.Value(headerCtxKey{}).(http.Header)
	h := prev.Clone() // nil-safe: Clone of nil is nil
	if h == nil {
		h = http.Header{}
	}
	h.Set(key, value)
	return context.WithValue(ctx, headerCtxKey{}, h)
}

// Client talks to one coverage service. The zero value is not usable;
// create with New. A Client is safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	retry   RetryPolicy
	timeout time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (default
// http.DefaultClient).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetry substitutes the retry policy. RetryPolicy{MaxAttempts: 1}
// disables retries.
func WithRetry(p RetryPolicy) Option { return func(c *Client) { c.retry = p.withDefaults() } }

// WithRequestTimeout caps each individual HTTP attempt (default 30s).
// The caller's context still bounds the call as a whole, backoff sleeps
// included.
func WithRequestTimeout(d time.Duration) Option { return func(c *Client) { c.timeout = d } }

// New returns a client for the service at baseURL (e.g.
// "http://cov.internal:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		hc:      http.DefaultClient,
		retry:   defaultRetry,
		timeout: 30 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// attempt runs one HTTP round trip. It returns the response body when
// the status matches wantCode, an *APIError for other statuses, and the
// transport error otherwise.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, wantCode int) ([]byte, error) {
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if extra, ok := ctx.Value(headerCtxKey{}).(http.Header); ok {
		for k, vs := range extra {
			req.Header[k] = vs
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != wantCode {
		var e struct {
			Error string `json:"error"`
		}
		json.Unmarshal(data, &e)
		if e.Error == "" {
			e.Error = strings.TrimSpace(string(data))
		}
		return nil, &APIError{
			StatusCode: resp.StatusCode,
			Message:    e.Error,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()),
		}
	}
	return data, nil
}

// retryable reports whether an attempt error is transient: connection
// errors, 5xx responses, and 429 sheds are; other 4xx responses are
// not.
func retryable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.StatusCode >= 500 || ae.StatusCode == http.StatusTooManyRequests
	}
	return true
}

// do runs attempts under the retry policy and decodes the final body
// into out.
func (c *Client) do(ctx context.Context, method, path string, body []byte, wantCode int, out any) error {
	data, err := c.doRaw(ctx, method, path, body, wantCode)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// doRaw runs attempts under the retry policy and returns the final body
// undecoded — for endpoints whose body is not JSON (a trace arena).
func (c *Client) doRaw(ctx context.Context, method, path string, body []byte, wantCode int) ([]byte, error) {
	var lastErr error
	for n := 0; n < c.retry.MaxAttempts; n++ {
		if n > 0 {
			t := time.NewTimer(c.retry.retryDelay(n, lastErr))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, fmt.Errorf("client: %s %s: %w (last error: %v)", method, path, ctx.Err(), lastErr)
			}
		}
		data, err := c.attempt(ctx, method, path, body, wantCode)
		if err == nil {
			return data, nil
		}
		lastErr = err
		if !retryable(err) || ctx.Err() != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("client: %s %s: giving up after %d attempts: %w", method, path, c.retry.MaxAttempts, lastErr)
}

// LoadNetworkJSON uploads a network in its JSON encoding
// (netmodel.EncodeJSON) with PUT /network, replacing the server's
// network and resetting its trace. A caller loading one network into
// many servers encodes it once.
func (c *Client) LoadNetworkJSON(ctx context.Context, netJSON []byte) (service.NetworkStats, error) {
	var st service.NetworkStats
	err := c.do(ctx, http.MethodPut, "/network", netJSON, http.StatusOK, &st)
	return st, err
}

// NetworkStats fetches the loaded network's stats (GET /network).
func (c *Client) NetworkStats(ctx context.Context) (service.NetworkStats, error) {
	var st service.NetworkStats
	err := c.do(ctx, http.MethodGet, "/network", nil, http.StatusOK, &st)
	return st, err
}

// Stats fetches the server's operational self-report (GET /stats):
// queue depths, shed totals, route latencies, and the full metric
// snapshot — the payload a coordinator federates under a node label.
func (c *Client) Stats(ctx context.Context) (service.StatsReport, error) {
	var out service.StatsReport
	err := c.do(ctx, http.MethodGet, "/stats", nil, http.StatusOK, &out)
	return out, err
}
