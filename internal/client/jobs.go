package client

// Job helpers. POST /jobs answers 202 immediately and lets the caller
// poll, which is what the server's admission layer needs to bound
// concurrent work. SubmitJob and the artifact fetches map one-to-one
// onto the wire API; WaitJob adds the polling loop.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strings"
	"time"

	"yardstick/internal/service"
)

// SubmitJob enqueues an asynchronous run of the given built-in suites
// (POST /jobs), returning the queued job. A full queue answers 503 with a
// Retry-After hint, which the retry policy honors before resubmitting;
// a duplicate submission caused by a lost 202 is wasteful but safe —
// coverage merges by BDD union, so re-running a suite cannot double
// count.
func (c *Client) SubmitJob(ctx context.Context, suites ...string) (service.JobStatus, error) {
	var j service.JobStatus
	path := "/jobs?suite=" + url.QueryEscape(strings.Join(suites, ","))
	err := c.do(ctx, http.MethodPost, path, nil, http.StatusAccepted, &j)
	return j, err
}

// job fetches one job's current state (GET /jobs/{id}). The Result
// payload is set once the job is done.
func (c *Client) job(ctx context.Context, id string) (service.JobStatus, error) {
	var j service.JobStatus
	err := c.do(ctx, http.MethodGet, "/jobs/"+url.PathEscape(id), nil, http.StatusOK, &j)
	return j, err
}

// JobTraceRaw downloads a done job's own coverage fragment
// (GET /jobs/{id}/trace) undecoded. It asks for the checksummed YSS1
// arena, the compact machine-to-machine encoding; a server that predates
// the negotiation answers trace JSON instead, so decode the bytes with a
// sniffing entry point (core.DecodeFragment, core.DecodeTraceJSON), never
// by what was asked for. A coordinator collects fragments concurrently
// and hands them to the one goroutine that owns the canonical BDD
// space. A 409 means the job is not done yet; a 410 means the fragment
// is gone (artifact evicted or the node restarted) and the shard should
// be re-run.
func (c *Client) JobTraceRaw(ctx context.Context, id string) ([]byte, error) {
	ctx = ContextWithHeader(ctx, "Accept", service.TraceArenaMediaType)
	return c.doRaw(ctx, http.MethodGet, "/jobs/"+url.PathEscape(id)+"/trace", nil, http.StatusOK)
}

// JobProfileRaw downloads a done job's span profile as raw JSON
// (GET /jobs/{id}/profile) — the worker-side half of a distributed
// run's timeline. Same ladder as the trace artifact: 409 while the job
// is still running, 410 once the profile has been evicted.
func (c *Client) JobProfileRaw(ctx context.Context, id string) ([]byte, error) {
	var raw json.RawMessage
	err := c.do(ctx, http.MethodGet, "/jobs/"+url.PathEscape(id)+"/profile", nil, http.StatusOK, &raw)
	return raw, err
}

// defaultJobPoll is the poll interval WaitJob uses when the caller
// passes poll <= 0, so that a zero interval never busy-polls the server.
const defaultJobPoll = 250 * time.Millisecond

// WaitJob polls a job until it reaches a terminal state (done, failed,
// or cancelled), pausing between probes (poll <= 0 means 250ms). Each
// pause is equal-jittered — half deterministic, half uniformly random —
// so a fleet of pollers that submitted together does not probe in
// lockstep. A shed poll response (429/503 from admission control) does
// not fail the wait: the job is still running, the server was just busy
// — WaitJob backs off by the server's Retry-After hint (at least one
// poll interval) and keeps polling. Other errors return; reaching a
// terminal state is not an error here even when the state is failed —
// callers decide what a failed job means to them.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (service.JobStatus, error) {
	if poll <= 0 {
		poll = defaultJobPoll
	}
	for {
		j, err := c.job(ctx, id)
		pause := poll/2 + rand.N(poll/2+1)
		if err != nil {
			hint, shed := IsShed(err)
			if !shed || ctx.Err() != nil {
				return j, err
			}
			if hint > pause {
				pause = hint
			}
		} else if j.State.Terminal() {
			return j, nil
		}
		t := time.NewTimer(pause)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return j, fmt.Errorf("client: waiting for job %s: %w", id, ctx.Err())
		}
	}
}

// IsShed reports whether err is a load-shed response (429 or 503 from
// admission control) and returns the server's Retry-After hint when it
// carried one.
func IsShed(err error) (time.Duration, bool) {
	var ae *APIError
	if errors.As(err, &ae) &&
		(ae.StatusCode == http.StatusTooManyRequests || ae.StatusCode == http.StatusServiceUnavailable) {
		return ae.RetryAfter, true
	}
	return 0, false
}
