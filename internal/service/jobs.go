package service

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"yardstick/internal/core"
	"yardstick/internal/engine"
	"yardstick/internal/jobs"
	"yardstick/internal/obs"
	"yardstick/internal/testkit"
)

// The run API: the job queue is the daemon's only way to evaluate a
// suite, which is what lets the admission layer bound the daemon's
// concurrent work: the queue is the buffer, its depth is the
// backpressure signal, and a full queue sheds with 503 + Retry-After
// instead of stacking goroutines on the evaluation mutex. POST /jobs
// answers 202 once the job is finished or after a short hold
// (submitHold), whichever comes first, with the job as it then stands:
// a fast job comes back done with its result, a longer one is polled
// (or cancelled) at its Location.
//
//	POST   /jobs?suite=a,b               submit; 202 + Location: /jobs/{id},
//	                                     the job finished or as the hold
//	                                     left it
//	GET    /jobs                         list retained jobs (oldest first;
//	                                     ?state= filters, ?offset=/?limit=
//	                                     page — the response is hard-capped
//	                                     and carries X-Total-Count plus a
//	                                     Link rel="next" header when more
//	                                     rows remain)
//	GET    /jobs/{id}                    poll one job; Result set once done
//	GET    /jobs/{id}/trace              a done job's own coverage fragment:
//	                                     trace JSON by default, the YSS1
//	                                     arena when Accept names
//	                                     TraceArenaMediaType, gzipped
//	                                     when Accept-Encoding names gzip
//	                                     (409 until
//	                                     done, 410 once evicted — only the
//	                                     QueueDepth newest finished jobs
//	                                     keep artifacts, besides the
//	                                     QueueDepth newest shard
//	                                     fragments not yet fetched — or
//	                                     after a restart)
//	GET    /jobs/{id}/profile            a finished job's span profile
//	                                     (JSON; 409 until finished, 410
//	                                     once evicted or after a restart)
//	DELETE /jobs/{id}                    cancel a queued or running job
//
// Completed jobs are retained for the configured TTL and — when
// WithSnapshot is active — persisted next to the trace snapshot under
// the same network fingerprint, so a poller can fetch a finished job's
// result even across a daemon restart. Jobs caught queued or running
// by a restart come back failed with an explicit reason.

// JobStatus is the wire form of an async job (the POST /jobs and GET
// /jobs/{id} body).
type JobStatus = jobs.Job

// JobList is the GET /jobs response body.
type JobList struct {
	Jobs  []JobStatus `json:"jobs"`
	Stats jobs.Stats  `json:"stats"`
}

// runJob is the queue's Runner: it resolves the suite, serializes on
// the evaluation mutex like every other endpoint that reads or writes
// the engine, and returns the run results as the job's opaque result
// payload. The queue has already bounded ctx with the run-timeout and
// wires DELETE /jobs/{id} into its cancellation.
//
// The job records its coverage into a private fragment first and only
// then folds the fragment into the accumulated trace — both live in the
// canonical space, so the fold is a cheap same-space union. The fragment
// is what GET /jobs/{id}/trace exports: a distributed coordinator needs
// exactly this shard's contribution, not whatever else the node has
// accumulated.
func (s *Server) runJob(ctx context.Context, spec jobs.Spec) (json.RawMessage, error) {
	// The goroutine runs under pprof labels for the job (and, when this
	// is a shard of a distributed run, the run and shard IDs), so a
	// -pprof-addr CPU profile attributes samples to specific runs.
	labels := []string{"job", jobs.JobID(ctx)}
	if spec.RunID != "" {
		labels = append(labels, "run", spec.RunID)
	}
	if spec.Shard != "" {
		labels = append(labels, "shard", spec.Shard)
	}
	var raw json.RawMessage
	var err error
	pprof.Do(ctx, pprof.Labels(labels...), func(ctx context.Context) {
		raw, err = s.runJobLabeled(ctx, spec)
	})
	return raw, err
}

// runJobLabeled is runJob's body, running under the job's pprof labels.
func (s *Server) runJobLabeled(ctx context.Context, spec jobs.Spec) (json.RawMessage, error) {
	suite, err := testkit.BuiltinSuite(spec.Suites)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.unlock()
	if s.eng.Net() == nil {
		return nil, engine.ErrNoNetwork
	}
	jobID := jobs.JobID(ctx)
	sp := obs.NewRoot("service.job", s.metrics)
	sp.SetTag("job", jobID)
	if spec.RunID != "" {
		sp.SetTag("run", spec.RunID)
		s.logger.Info("running distributed shard",
			"job", jobID, "run", spec.RunID, "shard", spec.Shard)
	}
	if spec.Shard != "" {
		sp.SetTag("shard", spec.Shard)
	}
	// One deferred finish path: end the span, store its profile for
	// GET /jobs/{id}/profile (even for aborted runs — a partial profile
	// still explains where the time went), then hand it to the observer.
	defer func() {
		sp.EndStage()
		s.storeJobProfileLocked(jobID, sp)
		if s.spanObserver != nil {
			s.spanObserver(sp)
		}
	}()
	ctx = obs.ContextWithSpan(ctx, sp)
	frag := core.NewTrace()
	// The suite runs as the service.evaluate stage — a worker-side span
	// beneath the job root even for a sequential run, which is what a
	// coordinator's cross-node timeline links to.
	results, err := s.eng.Run(ctx, "service.evaluate", suite, frag)
	// Whatever coverage the run managed to record is kept, even when the
	// run aborted: the trace is a monotonic union, and folding the
	// fragment into it is not something a cancelled job cancels.
	if merr := s.eng.MergeTrace(context.WithoutCancel(ctx), frag); err == nil {
		err = merr
	}
	if err != nil {
		return nil, fmt.Errorf("run aborted: %w", err)
	}
	s.storeJobTraceLocked(jobID, frag, spec.RunID != "")
	var out []RunResult
	for _, res := range results {
		rr := RunResult{
			Name:    res.Name,
			Kind:    string(res.Kind),
			Checks:  res.Checks,
			Pass:    res.Pass(),
			Errored: res.Errored(),
			Error:   res.Err,
		}
		for i, f := range res.Failures {
			if i == 10 {
				rr.Failures = append(rr.Failures, fmt.Sprintf("... %d more", len(res.Failures)-10))
				break
			}
			rr.Failures = append(rr.Failures, fmt.Sprintf("%s: %s", s.eng.Net().Device(f.Device).Name, f.Detail))
		}
		out = append(out, rr)
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("encode results: %w", err)
	}
	return raw, nil
}

// TraceArenaMediaType is the media type of the checksummed YSS1 trace
// arena (core.EncodeFragmentArena). GET /jobs/{id}/trace answers with it
// when the request's Accept header names it, and with trace JSON — the
// human-readable export — otherwise.
const TraceArenaMediaType = "application/vnd.yardstick.trace-arena"

// jobFragment is a done job's coverage fragment: the canonical-space
// trace the job recorded until its arena exists, and each wire encoding,
// built on first fetch. Encoding is deferred because most jobs'
// fragments are never read (only a coordinator fetches them) and it is
// BDD-manager work under s.mu; a fetch pays it once, for the one format
// it asked for. Once the arena exists it is the fragment: the trace is
// dropped, and a later JSON fetch imports the arena into the canonical
// space — where every node of it already exists — to encode the JSON.
type jobFragment struct {
	trace       *core.Trace
	arena, json []byte
}

// jobArtifacts are one finished job's retained exports.
type jobArtifacts struct {
	frag    *jobFragment // nil unless the job is done
	profile []byte       // the span profile as JSON
	// pinned marks a distributed shard's fragment that no coordinator
	// has fetched yet: it is bounded in pinnedOrder, not artifactOrder
	// (see artifactsLocked).
	pinned bool
}

// artifactsLocked returns job id's artifact entry, making one when the
// job has none yet. An entry is kept while it is among the QueueDepth
// newest of its FIFO, so a store costs O(1) amortized and the artifact
// memory is bounded whatever the TTL. A pinned entry (pin: a distributed
// shard's done fragment) has a FIFO of its own, pinnedOrder, until the
// coordinator fetches it and it joins artifactOrder: a coordinator
// learns that a shard is done only at its next poll, and however many
// unsharded jobs finish in between, the fragment is still there for it;
// only QueueDepth newer unfetched shards evict it. Job records and their
// results stay for the TTL. Callers hold s.mu.
func (s *Server) artifactsLocked(id string, pin bool) *jobArtifacts {
	if a, ok := s.artifacts[id]; ok {
		return a
	}
	a := &jobArtifacts{pinned: pin}
	s.artifacts[id] = a
	if pin {
		s.retainLocked(&s.pinnedOrder, id)
	} else {
		s.retainLocked(&s.artifactOrder, id)
	}
	return a
}

// retainLocked appends id to the FIFO order, evicting the FIFO's oldest
// entry past QueueDepth. Callers hold s.mu.
func (s *Server) retainLocked(order *[]string, id string) {
	*order = append(*order, id)
	if len(*order) > s.jobs.Config().QueueDepth {
		delete(s.artifacts, (*order)[0])
		*order = (*order)[1:]
	}
}

// unpinLocked moves a pinned entry from pinnedOrder to artifactOrder.
// Callers hold s.mu.
func (s *Server) unpinLocked(id string, a *jobArtifacts) {
	if a.pinned {
		a.pinned = false
		s.pinnedOrder = slices.DeleteFunc(s.pinnedOrder, func(p string) bool { return p == id })
		s.retainLocked(&s.artifactOrder, id)
	}
}

// storeJobTraceLocked retains a done job's coverage fragment for
// GET /jobs/{id}/trace, pinned when the job is a distributed shard.
// Callers hold s.mu.
func (s *Server) storeJobTraceLocked(id string, frag *core.Trace, shard bool) {
	s.artifactsLocked(id, shard).frag = &jobFragment{trace: frag}
}

// jobTraceLocked returns a retained fragment in the requested encoding,
// building and caching it on first use; ok is false when the job has no
// retained fragment. Encoding is BDD-manager work: callers hold s.mu,
// and it runs guarded so a cancelled fetch fails the request, not the
// daemon.
func (s *Server) jobTraceLocked(ctx context.Context, id string, arena bool) (data []byte, ok bool, err error) {
	a, ok := s.artifacts[id]
	if !ok || a.frag == nil {
		return nil, false, nil
	}
	f := a.frag
	switch {
	case arena && f.arena == nil:
		if f.arena, err = s.eng.EncodeFragment(ctx, f.trace, true); err != nil {
			return nil, true, err
		}
		f.trace = nil
	case !arena && f.json == nil:
		t := f.trace
		if t == nil {
			if t, err = s.eng.DecodeFragment(ctx, f.arena); err != nil {
				return nil, true, err
			}
		}
		if f.json, err = s.eng.EncodeFragment(ctx, t, false); err != nil {
			return nil, true, err
		}
	}
	s.unpinLocked(id, a)
	if arena {
		return f.arena, true, nil
	}
	return f.json, true, nil
}

// storeJobProfileLocked serializes a finished job's span profile for
// GET /jobs/{id}/profile. Callers hold s.mu.
func (s *Server) storeJobProfileLocked(id string, sp *obs.Span) {
	var buf bytes.Buffer
	if err := sp.Profile().EncodeJSON(&buf); err != nil {
		s.logger.Error("encoding job span profile", "job", id, "err", err)
		return
	}
	s.artifactsLocked(id, false).profile = buf.Bytes()
}

// getJobProfile serves a finished job's span profile as JSON — the
// worker-side half of a distributed run's timeline. Same ladder as the
// trace artifact: 404 unknown, 409 + Retry-After while the job still
// runs, 410 once the profile has been evicted or lost to a restart.
// Unlike the trace, failed and cancelled jobs do serve their (partial)
// profile: a timeline that explains where an aborted shard's time went
// is exactly what the abort investigation needs.
func (s *Server) getJobProfile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	if !j.State.Terminal() {
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterInflight))
		httpError(w, http.StatusConflict, "job %s is %s; profile available once finished", id, j.State)
		return
	}
	s.mu.Lock()
	var data []byte
	if a, ok := s.artifacts[id]; ok {
		data = a.profile
	}
	s.unlock()
	if data == nil {
		httpError(w, http.StatusGone, "job %s profile no longer available (evicted or daemon restarted)", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// getJobTrace serves a done job's own coverage fragment, negotiating the
// encoding on Accept: the YSS1 arena for a peer that asks for
// TraceArenaMediaType, trace JSON for everyone else (browsers, curl);
// and the content coding on Accept-Encoding: gzip when it is named,
// the identity body otherwise.
// The status codes draw the coordinator's re-dispatch map: 404 means
// the job never existed here (or was swept — resubmit), 409 means poll
// again (the job is not done), and 410 means the result is done but
// the fragment is gone (artifacts are memory-only; a restarted daemon
// keeps the job record, not the trace) — re-run the shard, the merge
// being idempotent makes that exact.
func (s *Server) getJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	if !j.State.Terminal() {
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterInflight))
		httpError(w, http.StatusConflict, "job %s is %s; trace available once done", id, j.State)
		return
	}
	if j.State != jobs.StateDone {
		httpError(w, http.StatusConflict, "job %s ended %s; no trace", id, j.State)
		return
	}
	// The arena media type is the only one this endpoint negotiates, and
	// only a peer that wants it names it: its presence anywhere in Accept
	// selects it, q-values ignored.
	arena := strings.Contains(r.Header.Get("Accept"), TraceArenaMediaType)
	s.mu.Lock()
	data, ok, err := s.jobTraceLocked(r.Context(), id, arena)
	s.unlock()
	if !ok {
		httpError(w, http.StatusGone, "job %s trace no longer available (evicted or daemon restarted); re-run the shard", id)
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode job %s trace: %v", id, err)
		return
	}
	ct := "application/json"
	if arena {
		ct = TraceArenaMediaType
	}
	w.Header().Set("Content-Type", ct)
	w.Header().Set("Vary", "Accept, Accept-Encoding")
	// Compression runs after s.mu is released, so it never holds up
	// evaluation.
	if acceptsGzip(r.Header) {
		data = s.gzip.compress(data)
		w.Header().Set("Content-Encoding", "gzip")
	}
	// An explicit length lets the receiver tell a dropped connection from
	// a complete body before it spends a checksum on it.
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// acceptsGzip reports whether the request's Accept-Encoding names gzip
// with a q-value above zero. Go's HTTP transport sends "gzip" on its
// own and decompresses the answer, so a Go peer gets a compressed
// fragment without asking; curl gets one only with --compressed.
func acceptsGzip(h http.Header) bool {
	for _, v := range h.Values("Accept-Encoding") {
		for _, coding := range strings.Split(v, ",") {
			name, params, _ := strings.Cut(coding, ";")
			if !strings.EqualFold(strings.TrimSpace(name), "gzip") {
				continue
			}
			q, ok := strings.CutPrefix(strings.TrimSpace(params), "q=")
			if !ok {
				return true
			}
			f, err := strconv.ParseFloat(q, 64)
			return err == nil && f > 0
		}
	}
	return false
}

// gzipper compresses response bodies at gzip.BestSpeed through one
// reused writer: a flate writer is about 1 MB, so the server keeps one
// (made on first use) instead of a sync.Pool, which every collection
// empties. The trace fragments it compresses are BDD node records that
// shrink about 3× at that level, in about a millisecond per 100 KB.
type gzipper struct {
	mu sync.Mutex
	w  *gzip.Writer
}

// compress returns data gzipped.
func (g *gzipper) compress(data []byte) []byte {
	var buf bytes.Buffer
	buf.Grow(len(data)/2 + 64)
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.w == nil {
		g.w, _ = gzip.NewWriterLevel(&buf, gzip.BestSpeed) // a valid level cannot fail
	} else {
		g.w.Reset(&buf)
	}
	g.w.Write(data) // a bytes.Buffer cannot fail
	g.w.Close()
	g.w.Reset(io.Discard) // hold no reference to buf
	return buf.Bytes()
}

// Run-context propagation headers. The coordinator mints a run ID per
// distributed run and a shard ID per dispatch and sends both on every
// job submission; the worker threads them through the job record into
// its span tags, log lines, and pprof labels.
const (
	HeaderRunID   = "X-Run-Id"
	HeaderShardID = "X-Shard-Id"
)

// runContextValue validates one run-context header value: at most 64
// bytes of [A-Za-z0-9._:/-]. Anything else is treated as absent — these
// values become observability identifiers, not free-form data.
func runContextValue(v string) string {
	if v == "" || len(v) > 64 {
		return ""
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == ':' || c == '/' || c == '-':
		default:
			return ""
		}
	}
	return v
}

// submitHold is how long POST /jobs holds its answer for the job to
// finish. A warm daemon runs a job in a few milliseconds, so most
// submits answer with the finished job and the caller never polls; a
// longer job answers with its state at the end of the hold and is
// polled as before.
const submitHold = 100 * time.Millisecond

// postJob submits a job under admission control, then holds the 202
// answer until the job is terminal or submitHold has passed, whichever
// comes first; draining or a cancelled request ends the hold at once.
// The hold holds no admission slot: it waits, it does not compute.
func (s *Server) postJob(w http.ResponseWriter, r *http.Request) {
	release, ok := s.acquire(w, "/jobs")
	if !ok {
		return
	}
	j, ok := s.submitJob(w, r)
	release()
	if !ok {
		return
	}
	j = s.awaitJob(r.Context(), j, submitHold)
	w.Header().Set("Location", "/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j)
}

// awaitJob waits until job j is terminal, hold has passed, draining
// starts or ctx is done, whichever comes first, and returns the job as
// it then stands.
func (s *Server) awaitJob(ctx context.Context, j jobs.Job, hold time.Duration) jobs.Job {
	finished, ok := s.jobs.Finished(j.ID)
	if !ok {
		return j
	}
	t := time.NewTimer(hold)
	defer t.Stop()
	select {
	case <-finished:
	case <-t.C:
	case <-s.drainSignal():
	case <-ctx.Done():
	}
	if now, ok := s.jobs.Get(j.ID); ok {
		return now
	}
	return j
}

// submitJob validates a POST /jobs request and enqueues its job. A
// rejected request has been answered and ok is false.
func (s *Server) submitJob(w http.ResponseWriter, r *http.Request) (j jobs.Job, ok bool) {
	// Validate up front so a bad suite fails the submit with a 400 now,
	// not the job with a failure later.
	if _, err := testkit.BuiltinSuite(r.URL.Query().Get("suite")); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return j, false
	}
	j, err := s.jobs.Submit(jobs.Spec{
		Suites: r.URL.Query().Get("suite"),
		// Run context rides in on headers (the coordinator's
		// client.ContextWithHeader channel, extending the X-Request-Id
		// plumbing); the values reach span tags, log lines, and pprof
		// labels, so hostile bytes are rejected rather than carried.
		RunID: runContextValue(r.Header.Get(HeaderRunID)),
		Shard: runContextValue(r.Header.Get(HeaderShardID)),
	})
	if errors.Is(err, jobs.ErrQueueFull) {
		s.shed(w, "/jobs", "queue_full", http.StatusServiceUnavailable,
			RetryAfterQueueFull, "job queue full (depth %d)", s.jobs.Config().QueueDepth)
		return j, false
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "submit: %v", err)
		return j, false
	}
	return j, true
}

// Job-list paging bounds. TTL-retained jobs accumulate between sweeps,
// so the response is hard-capped: DefaultJobsPage rows unless ?limit=
// asks for fewer (or more, up to MaxJobsPage). X-Total-Count always
// carries the filtered total and a Link rel="next" header points at the
// next page while rows remain, so a coordinator can page the whole list
// without ever provoking an unbounded response.
const (
	DefaultJobsPage = 100
	MaxJobsPage     = 500
)

// listQuery is the parsed GET /jobs query: an optional state filter and
// an offset/limit window.
type listQuery struct {
	state         jobs.State // "" = all
	offset, limit int
}

func parseListQuery(r *http.Request) (listQuery, error) {
	q := listQuery{limit: DefaultJobsPage}
	if v := r.URL.Query().Get("state"); v != "" {
		switch st := jobs.State(v); st {
		case jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed, jobs.StateCancelled:
			q.state = st
		default:
			return q, fmt.Errorf("state: unknown state %q", v)
		}
	}
	if v := r.URL.Query().Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return q, fmt.Errorf("offset: %q is not a non-negative integer", v)
		}
		q.offset = n
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return q, fmt.Errorf("limit: %q is not a positive integer", v)
		}
		q.limit = min(n, MaxJobsPage)
	}
	return q, nil
}

func (s *Server) listJobs(w http.ResponseWriter, r *http.Request) {
	q, err := parseListQuery(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	all := s.jobs.Jobs()
	if q.state != "" {
		kept := all[:0]
		for _, j := range all {
			if j.State == q.state {
				kept = append(kept, j)
			}
		}
		all = kept
	}
	total := len(all)
	w.Header().Set("X-Total-Count", strconv.Itoa(total))
	start := min(q.offset, total)
	end := min(start+q.limit, total)
	if end < total {
		next := fmt.Sprintf("/jobs?offset=%d&limit=%d", end, q.limit)
		if q.state != "" {
			next += "&state=" + string(q.state)
		}
		w.Header().Set("Link", fmt.Sprintf("<%s>; rel=%q", next, "next"))
	}
	writeJSON(w, http.StatusOK, JobList{Jobs: all[start:end], Stats: s.jobs.Stats()})
}

func (s *Server) getJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) deleteJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
	case errors.Is(err, jobs.ErrFinished):
		httpError(w, http.StatusConflict, "job %s already %s", j.ID, j.State)
	case err != nil:
		httpError(w, http.StatusInternalServerError, "cancel: %v", err)
	default:
		writeJSON(w, http.StatusOK, j)
	}
}

// RunJobs runs the job queue's worker until ctx is cancelled and the
// worker has exited — the same blocking lifecycle shape as
// RunCheckpointer. The daemon runs it in a goroutine and waits for it
// before the final checkpoint, so persisted job states are settled.
func (s *Server) RunJobs(ctx context.Context) {
	s.jobs.Start(ctx)
	s.jobs.Wait()
}

// flushJobGauges refreshes the queue-health gauges in the metrics
// registry; called at scrape time so /metrics always reflects the
// current queue shape.
func (s *Server) flushJobGauges() {
	st := s.jobs.Stats()
	s.metrics.Gauge("yardstick_jobs_queue_depth").Set(float64(st.Depth))
	s.metrics.Gauge("yardstick_jobs_running").Set(float64(st.Running))
	s.metrics.Gauge("yardstick_jobs_retained").Set(float64(st.Retained))
}

// checkpointJobsLocked persists the job records next to the trace
// snapshot under the same network fingerprint. Callers hold s.mu.
func (s *Server) checkpointJobsLocked() error {
	if s.jobsPath == "" || s.eng.Net() == nil {
		return nil
	}
	return jobs.Save(s.jobsPath, s.eng.Fingerprint(), s.jobs.Records())
}

// restoreJobsLocked recovers persisted job records. Missing files and
// fingerprint mismatches are tolerated (stale records are discarded).
// Callers hold s.mu.
func (s *Server) restoreJobsLocked() (int, error) {
	if s.jobsPath == "" || s.eng.Net() == nil {
		return 0, nil
	}
	recs, err := jobs.Load(s.jobsPath, s.eng.Fingerprint())
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return 0, nil
	case errors.Is(err, jobs.ErrMismatch):
		s.logger.Warn("job records recorded against a different network; discarding", "path", s.jobsPath)
		return 0, nil
	case err != nil:
		return 0, err
	}
	recovered, interrupted := s.jobs.Restore(recs)
	if interrupted > 0 {
		s.logger.Warn("jobs interrupted by restart surfaced as failed", "count", interrupted)
	}
	return recovered, nil
}
