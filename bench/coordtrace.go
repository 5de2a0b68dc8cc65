package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"yardstick/internal/client"
	"yardstick/internal/coord"
	"yardstick/internal/jobs"
	"yardstick/internal/netmodel"
)

// The traced fleet_coord op runs the coordinator in-process with the
// binary's flags, through internal/client, with a transport that puts a
// span around every HTTP exchange and keeps what it needs to time the
// fragment codecs afterwards.

// fleetCapture is what the tracing transport collected over one run.
type fleetCapture struct {
	mu        sync.Mutex
	attempts  int
	retryable int                  // exchanges that failed or were answered 429/502/503/504
	shed      int                  // answered 429 or 503
	fragments [][]byte             // GET /jobs/{id}/trace bodies
	shards    map[string]*shardObs // job id -> first and last sighting
}

type shardObs struct {
	start, end time.Time
}

// tracingTransport records one span per exchange under parent.
type tracingTransport struct {
	next   http.RoundTripper
	rec    *recorder
	parent int
	op     int
	cap    *fleetCapture
}

// routeSpan names the span for a request the coordinator's client made
// and extracts the job id when the path has one.
func routeSpan(method, path string) (span, jobID string) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case method == http.MethodPut && path == "/network":
		return "coord.load_network", ""
	case method == http.MethodPost && path == "/jobs":
		return "service.post_jobs", ""
	case len(parts) == 2 && parts[0] == "jobs":
		return "service.get_job", parts[1]
	case len(parts) == 3 && parts[0] == "jobs" && parts[2] == "trace":
		return "coord.fragment_fetch", parts[1]
	case len(parts) == 3 && parts[0] == "jobs" && parts[2] == "profile":
		return "coord.profile_fetch", parts[1]
	}
	return "client.other", ""
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name, jobID := routeSpan(req.Method, req.URL.Path)
	start := time.Now()
	id := t.rec.begin(name, t.parent, t.op)
	resp, err := t.next.RoundTrip(req)
	var body []byte
	if err == nil {
		// Read the body here so the span covers the transfer, then hand
		// the client an in-memory copy.
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	t.rec.end(id)
	end := time.Now()

	c := t.cap
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempts++
	if err != nil {
		c.retryable++
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		c.shed++
		c.retryable++
	case http.StatusBadGateway, http.StatusGatewayTimeout:
		c.retryable++
	}
	switch name {
	case "service.post_jobs":
		var j jobs.Job
		if json.Unmarshal(body, &j) == nil && j.ID != "" {
			c.shards[j.ID] = &shardObs{start: start, end: end}
		}
	case "service.get_job":
		var j jobs.Job
		if json.Unmarshal(body, &j) == nil && j.State == jobs.StateDone {
			t.rec.add("jobs.queue_wait", t.parent, t.op, j.Submitted, j.Started)
			t.rec.add("jobs.run", t.parent, t.op, j.Started, j.Finished)
		}
	case "coord.fragment_fetch":
		if resp.StatusCode == http.StatusOK {
			c.fragments = append(c.fragments, body)
		}
		if s := c.shards[jobID]; s != nil {
			s.end = end
		}
	}
	return resp, nil
}

// shadowOp is one traced fleet_coord op.
func (w *fleetWL) shadowOp(rec *recorder, i int) error {
	op := rec.begin("coord.run", 0, i)
	defer rec.end(op)
	var n *netmodel.Network
	var err error
	rec.time("netmodel.json_decode", op, i, func() { n, err = netmodel.DecodeJSON(bytes.NewReader(w.in.json)) })
	if err != nil {
		return err
	}
	cp := &fleetCapture{shards: map[string]*shardObs{}}
	w.captures = append(w.captures, cp)
	base := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	defer base.CloseIdleConnections()
	hc := &http.Client{Transport: &tracingTransport{next: base, rec: rec, parent: op, op: i, cap: cp}}
	co, err := coord.New(coord.Config{
		Nodes:       []string{w.ds[0].url(), w.ds[1].url()},
		Net:         n,
		NewClient:   func(base string) *client.Client { return client.New(base, client.WithHTTPClient(hc)) },
		Rounds:      coordRounds,
		Concurrency: 2,
		Poll:        pollEvery,
	})
	if err != nil {
		return err
	}
	res, err := co.Run(context.Background(), allSuites...)
	if err != nil {
		return err
	}
	for _, nr := range res.Nodes {
		w.dispatched += nr.Dispatched
		w.succeeded += nr.Succeeded
	}
	if !res.Complete {
		return errors.New("run incomplete")
	}
	var table string
	rec.time("core.metric_table", op, i, func() { table, _, _, err = coverageRows(n, res.Trace) })
	if err != nil {
		return err
	}
	if table != w.ref.table {
		return errors.New("coverage table differs from oracle")
	}
	return nil
}
