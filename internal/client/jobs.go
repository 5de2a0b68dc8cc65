package client

// Job helpers. POST /jobs answers 202 with the job once it is finished
// or after a short server-side hold, whichever comes first, and a job
// still queued or running is polled; the queue is what lets the
// server's admission layer bound concurrent work. SubmitJob and the
// artifact fetches map one-to-one onto the wire API; WaitJob adds the
// polling loop.

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
// (POST /jobs), returning the job as it stood when the server answered:
// a job that finished within the server's hold is done (or failed) with
// its result, and only one still queued or running needs WaitJob. A
// full queue answers 503 with a
// Retry-After hint, returned in the *APIError for the caller to honor. A
// caller that resubmits after a lost 202 runs the suite twice, which is
// wasteful but safe: coverage merges by BDD union, so re-running a suite
// cannot double count.
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

// maxBodyBytes bounds the decoded size of any response body the client
// reads. A trace fragment is the largest (JobTraceRaw), and it travels
// gzipped, so one wire byte may inflate about a thousandfold: the bound
// keeps a damaged or hostile worker from making the coordinator buffer
// without limit. A fragment is 12 bytes per BDD node it reaches, so
// 1 GiB is far beyond any shard's.
const maxBodyBytes = 1 << 30

// JobTraceRaw downloads a done job's own coverage fragment
// (GET /jobs/{id}/trace) undecoded. It asks for the checksummed YSS1
// arena, the compact machine-to-machine encoding that carries the
// network's fingerprint; a server may answer JSON all the same, so check
// the bytes (core.IsSnapshotArena). The HTTP transport asks for gzip and
// inflates the body (unless the *http.Client's transport disables
// compression), so the bytes returned are the arena itself, at most
// maxBodyBytes of it. A coordinator collects fragments
// concurrently and hands them to the one goroutine that owns the
// canonical BDD space. Any failure fails the call, not retried here: a 409 means the
// job is not done yet; a 410 means the fragment is gone (artifact evicted
// or the node restarted) and the shard should be re-run; a 5xx, a
// dropped connection, a body past the bound or a truncated or corrupt
// gzip stream leaves the re-run to the caller, which may choose another
// node.
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
// or cancelled), pausing between probes (poll <= 0 means 250ms). A
// caller whose SubmitJob already answered a terminal job has nothing to
// wait for. Each
// pause is equal-jittered — half deterministic, half uniformly random —
// so a fleet of pollers that submitted together does not probe in
// lockstep. Any error ends the wait, a shed included (the daemon never
// sheds a poll; a proxy in front of it might), and is returned for the
// caller's own retry layer; reaching a terminal state is not an error
// here even when the state is failed — callers decide what a failed job
// means to them.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (service.JobStatus, error) {
	if poll <= 0 {
		poll = defaultJobPoll
	}
	for {
		j, err := c.job(ctx, id)
		if err != nil || j.State.Terminal() {
			return j, err
		}
		t := time.NewTimer(poll/2 + rand.N(poll/2+1))
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
