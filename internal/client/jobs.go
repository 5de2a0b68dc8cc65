package client

// Async run helpers. POST /run holds the connection for the entire
// evaluation; the /jobs API instead answers 202 immediately and lets
// the caller poll, which is what the server's admission layer needs to
// bound concurrent work. SubmitJob/Job/CancelJob map one-to-one onto
// the wire API; WaitJob adds the polling loop; RunAsync composes
// submit-and-wait into a drop-in asynchronous replacement for Run.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"yardstick/internal/core"
	"yardstick/internal/netmodel"
	"yardstick/internal/service"
)

// SubmitJob enqueues an asynchronous run of the given built-in suites
// (POST /jobs), returning the queued job. workers <= 0 leaves the
// worker count to the server. A full queue answers 503 with a
// Retry-After hint, which the retry policy honors before resubmitting;
// a duplicate submission caused by a lost 202 is wasteful but safe —
// coverage merges by BDD union, so re-running a suite cannot double
// count.
func (c *Client) SubmitJob(ctx context.Context, workers int, suites ...string) (service.JobStatus, error) {
	var j service.JobStatus
	path := "/jobs?suite=" + url.QueryEscape(strings.Join(suites, ","))
	if workers > 0 {
		path += "&workers=" + strconv.Itoa(workers)
	}
	err := c.do(ctx, http.MethodPost, path, nil, http.StatusAccepted, &j)
	return j, err
}

// Job fetches one job's current state (GET /jobs/{id}). The Result
// payload is set once the job is done.
func (c *Client) Job(ctx context.Context, id string) (service.JobStatus, error) {
	var j service.JobStatus
	err := c.do(ctx, http.MethodGet, "/jobs/"+url.PathEscape(id), nil, http.StatusOK, &j)
	return j, err
}

// Jobs lists the server's retained jobs with queue stats (GET /jobs).
// The server caps the response at its default page size; use ListJobs
// to filter by state and walk the full list page by page.
func (c *Client) Jobs(ctx context.Context) (service.JobList, error) {
	var out service.JobList
	err := c.do(ctx, http.MethodGet, "/jobs", nil, http.StatusOK, &out)
	return out, err
}

// JobsQuery selects a window of the server's job list: an optional
// state filter ("queued", "running", "done", "failed", "cancelled";
// empty = all) and an offset/limit page (Limit <= 0 = the server's
// default page size; the server hard-caps oversized limits).
type JobsQuery struct {
	State         string
	Offset, Limit int
}

// JobPage is one page of the job list plus the paging metadata the
// server returns in headers: the filtered total and whether rows remain
// past this page.
type JobPage struct {
	service.JobList
	// Total is the number of jobs matching the filter server-side
	// (X-Total-Count) — not the page length.
	Total int
	// More reports that the server advertised a next page (a Link
	// rel="next" header); continue with Offset advanced by len(Jobs).
	More bool
}

// ListJobs fetches one page of the server's retained jobs
// (GET /jobs?state=&offset=&limit=).
func (c *Client) ListJobs(ctx context.Context, q JobsQuery) (JobPage, error) {
	v := url.Values{}
	if q.State != "" {
		v.Set("state", q.State)
	}
	if q.Offset > 0 {
		v.Set("offset", strconv.Itoa(q.Offset))
	}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	path := "/jobs"
	if len(v) > 0 {
		path += "?" + v.Encode()
	}
	var page JobPage
	hdr, err := c.doHeader(ctx, http.MethodGet, path, nil, http.StatusOK, &page.JobList)
	if err != nil {
		return page, err
	}
	if t := hdr.Get("X-Total-Count"); t != "" {
		if n, aerr := strconv.Atoi(t); aerr == nil {
			page.Total = n
		}
	}
	page.More = strings.Contains(hdr.Get("Link"), `rel="next"`)
	return page, nil
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
	raw, _, err := c.doRaw(ctx, http.MethodGet, "/jobs/"+url.PathEscape(id)+"/trace", nil, http.StatusOK)
	return raw, err
}

// JobTrace downloads a done job's coverage fragment and decodes it
// against net — which must be (a deterministic replica of) the network
// the job ran against; an arena fragment recorded against any other
// network is core.ErrSnapshotMismatch. Decoding writes net's BDD space;
// keep it single-threaded with other symbolic work.
func (c *Client) JobTrace(ctx context.Context, id string, net *netmodel.Network) (*core.Trace, error) {
	raw, err := c.JobTraceRaw(ctx, id)
	if err != nil {
		return nil, err
	}
	return core.DecodeTraceJSON(net, bytes.NewReader(raw))
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

// CancelJob cancels a queued or running job (DELETE /jobs/{id}). A job
// that already finished answers 409, surfaced as an *APIError.
func (c *Client) CancelJob(ctx context.Context, id string) (service.JobStatus, error) {
	var j service.JobStatus
	err := c.do(ctx, http.MethodDelete, "/jobs/"+url.PathEscape(id), nil, http.StatusOK, &j)
	return j, err
}

// DefaultJobPoll is the poll interval WaitJob uses when the caller
// passes poll <= 0 — the guard that keeps RunAsync's WaitJob(ctx, id, 0)
// from busy-polling the server.
const DefaultJobPoll = 250 * time.Millisecond

// WaitJob polls a job until it reaches a terminal state (done, failed,
// or cancelled), pausing between probes (poll <= 0 means
// DefaultJobPoll). Each pause is equal-jittered — half deterministic,
// half uniformly random — so a fleet of pollers that submitted together
// does not probe in lockstep. A shed poll response (429/503 from
// admission control) does not fail the wait: the job is still running,
// the server was just busy — WaitJob backs off by the server's
// Retry-After hint (at least one poll interval) and keeps polling.
// Other errors return; reaching a terminal state is not an error here
// even when the state is failed — callers decide what a failed job
// means to them.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (service.JobStatus, error) {
	if poll <= 0 {
		poll = DefaultJobPoll
	}
	for {
		j, err := c.Job(ctx, id)
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

// RunAsync submits the suites as a job and waits for it: the
// asynchronous equivalent of Run, for callers who want backpressure-
// aware submission without managing the poll loop themselves. A job
// that ends failed or cancelled returns an error carrying the server's
// reason.
func (c *Client) RunAsync(ctx context.Context, workers int, suites ...string) ([]service.RunResult, error) {
	j, err := c.SubmitJob(ctx, workers, suites...)
	if err != nil {
		return nil, err
	}
	if j, err = c.WaitJob(ctx, j.ID, 0); err != nil {
		return nil, err
	}
	if j.Error != "" || len(j.Result) == 0 {
		return nil, fmt.Errorf("client: job %s %s: %s", j.ID, j.State, j.Error)
	}
	var out []service.RunResult
	if err := json.Unmarshal(j.Result, &out); err != nil {
		return nil, fmt.Errorf("client: job %s result: %w", j.ID, err)
	}
	return out, nil
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
