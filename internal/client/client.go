// Package client is the Go client for the Yardstick coverage service
// (package service) that the distributed coordinator (internal/coord)
// uses to drive its workers: push a network, submit a suite as a job,
// wait for it, and fetch the job's coverage fragment, span profile and
// metric snapshot. It wraps only those calls; every other endpoint is
// plain HTTP + JSON, which any tool can speak (a testing tool reports
// coverage by POSTing a trace file to /trace).
//
// Every call takes a context and makes exactly one HTTP round trip. It
// returns the decoded answer, an *APIError for any other status — with
// the server's Retry-After hint decoded from either header form — or the
// transport error. The client retries nothing and sets no deadline of its
// own: the caller's context bounds the call. The coordinator decides what
// to retry, because only it knows the fleet: it backs off (honoring the
// hint), then re-dispatches the failed attempt, preferring another node.
// The one loop here is WaitJob's polling, which treats a shed poll as
// "poll again".
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"yardstick/internal/service"
)

// APIError is a response from the service with a status other than the
// one the call expects, carrying the status code and the server's error
// message.
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
	base string
	hc   *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (default
// http.DefaultClient).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// New returns a client for the service at baseURL (e.g.
// "http://cov.internal:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// do runs one round trip and decodes the body into out.
func (c *Client) do(ctx context.Context, method, path string, body []byte, wantCode int, out any) error {
	data, err := c.doRaw(ctx, method, path, body, wantCode)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// doRaw runs one HTTP round trip. It returns the response body undecoded
// when the status matches wantCode, an *APIError for other statuses, and
// the transport error otherwise. Every body is read through
// maxBodyBytes (readBody).
func (c *Client) doRaw(ctx context.Context, method, path string, body []byte, wantCode int) ([]byte, error) {
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
	data, err := readBody(resp, maxBodyBytes)
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

// readBody reads a response body of at most limit decoded bytes. A body
// that declares a longer Content-Length is refused unread, and one that
// runs past limit as it is read — a gzip body, which the transport
// inflates as it goes, carries no decoded length — fails once limit is
// passed, so a small compressed body can never make the client buffer
// more than limit bytes. A truncated or corrupt gzip stream fails with
// the transport's read error.
func readBody(resp *http.Response, limit int64) ([]byte, error) {
	if resp.ContentLength > limit {
		return nil, fmt.Errorf("client: %d-byte response body exceeds the %d-byte bound", resp.ContentLength, limit)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("client: response body exceeds the %d-byte bound", limit)
	}
	return data, nil
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

// Stats fetches the server's operational self-report (GET /stats): the
// facts no series carries, and the full metric snapshot — the payload a
// coordinator federates under a node label.
func (c *Client) Stats(ctx context.Context) (service.StatsReport, error) {
	var out service.StatsReport
	err := c.do(ctx, http.MethodGet, "/stats", nil, http.StatusOK, &out)
	return out, err
}
