// Package jobs is the asynchronous admission layer behind the coverage
// service's POST /jobs API: a bounded FIFO queue feeding one worker, so
// a long-running coverage run no longer ties an HTTP connection
// up for its whole duration and a burst of submissions degrades into
// explicit load-shedding (ErrQueueFull → 503 + Retry-After at the HTTP
// layer) instead of an unbounded pile-up on the evaluation mutex.
//
// A job moves through a small state machine:
//
//	queued ──▶ running ──▶ done
//	   │          │    └──▶ failed     (runner error, panic, budget, ctx)
//	   └──────────┴───────▶ cancelled  (DELETE /jobs/{id})
//
// done, failed, and cancelled are terminal. Terminal jobs are retained
// for Config.TTL so pollers can fetch results, then swept. The queue
// itself never inspects what a job computes: the Runner callback returns
// an opaque json.RawMessage, which keeps this package free of service
// and evaluation dependencies (and therefore trivially testable).
//
// Persistence (persist.go) rides the service's fingerprinted-snapshot
// path: Records serializes every job, Save/Load wrap the same
// atomic-rename + network-fingerprint discipline as core trace
// snapshots, and Restore recovers terminal jobs verbatim while
// surfacing jobs that were queued or running at the crash as failed
// with an explicit reason — a restart never silently loses a job, it
// converts it into a diagnosable failure.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// State is a job's position in the lifecycle state machine.
type State string

// Job states. Done, Failed, and Cancelled are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final (the job will never run
// again and its Result/Error fields are settled).
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Spec is what a job was asked to do — the queue carries it opaquely to
// the Runner.
type Spec struct {
	// Suites is the comma-separated built-in suite list, as POST /jobs
	// takes it in ?suite= (testkit.BuiltinSuite's syntax).
	Suites string `json:"suites"`
	// RunID is the distributed run this job belongs to, minted by the
	// coordinator and delivered in the X-Run-Id submit header ("" for a
	// standalone job). The job's span tree, logs, and pprof labels carry
	// it so fleet-wide profiles can be joined per run.
	RunID string `json:"runId,omitempty"`
	// Shard identifies which shard of the run this job executes (from
	// the X-Shard-Id submit header; "" for standalone jobs).
	Shard string `json:"shard,omitempty"`
}

// Job is the externally visible snapshot of one job — what GET
// /jobs/{id} serves and what persistence records. Zero timestamps mean
// "not reached yet" (a queued job has no Started).
type Job struct {
	ID        string          `json:"id"`
	Spec      Spec            `json:"spec"`
	State     State           `json:"state"`
	Submitted time.Time       `json:"submitted"`
	Started   time.Time       `json:"started"`
	Finished  time.Time       `json:"finished"`
	Result    json.RawMessage `json:"result,omitempty"`
	Error     string          `json:"error,omitempty"`
}

// Runner executes one job's work under ctx (cancelled on DELETE, on the
// per-job run-timeout, and on queue shutdown) and returns the job's
// result as opaque JSON. A panic in the runner fails the job, not the
// worker.
type Runner func(ctx context.Context, spec Spec) (json.RawMessage, error)

// Config sizes a Queue.
type Config struct {
	// QueueDepth bounds how many jobs may wait (default 64). Submit
	// returns ErrQueueFull past it — the admission signal the HTTP layer
	// turns into 503 + Retry-After.
	QueueDepth int
	// RunTimeout bounds each job's execution context (0 = unbounded).
	RunTimeout time.Duration
	// TTL is how long terminal jobs are retained for polling before the
	// janitor sweeps them (default 1h).
	TTL time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.TTL <= 0 {
		c.TTL = time.Hour
	}
	return c
}

// Sentinel errors for Submit and Cancel.
var (
	// ErrQueueFull rejects a Submit when QueueDepth jobs are already
	// waiting — the backpressure signal.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrNotFound is returned for an unknown (or already swept) job ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrFinished rejects a Cancel of a job already in a terminal state.
	ErrFinished = errors.New("jobs: job already finished")
)

// job is the internal mutable record; Job snapshots of it are handed
// out under the queue mutex.
type job struct {
	Job
	cancel context.CancelFunc // non-nil only while running
}

// Queue is a bounded FIFO job queue drained by one worker: the service
// evaluates one run at a time under its own lock, so a second worker
// would only wait on that lock while its job read as running and the
// backlog read one short. Create with New, start the worker with Start,
// and stop it by cancelling Start's context (then Wait). All methods are safe for concurrent use;
// Submit/Get/Cancel work even before Start (jobs simply wait).
type Queue struct {
	run Runner
	cfg Config

	// wake has one slot: Submit leaves a token there so an idle worker
	// looks at waiting again.
	wake chan struct{}

	mu   sync.Mutex
	jobs map[string]*job
	// waiting holds the queued jobs, oldest first: Submit sheds once it
	// holds QueueDepth, and a job cancelled while queued leaves it at once.
	waiting []*job
	running int
	// lifetime counters (monotonic; surfaced by Stats)
	submitted, done, failed, cancelled, shedFull uint64

	wg sync.WaitGroup
}

// New returns a queue executing jobs with run. The worker does not
// start until Start.
func New(run Runner, cfg Config) *Queue {
	cfg = cfg.withDefaults()
	return &Queue{
		run:  run,
		cfg:  cfg,
		wake: make(chan struct{}, 1),
		jobs: map[string]*job{},
	}
}

// Config reports the queue's effective (defaulted) configuration.
func (q *Queue) Config() Config { return q.cfg }

// Start launches the worker and the TTL janitor. Both exit when ctx is
// cancelled; a job running at that moment has its own context
// cancelled and finishes as failed (context.Canceled) — the state
// persistence then reports after a restart.
func (q *Queue) Start(ctx context.Context) {
	q.wg.Add(2)
	go q.worker(ctx)
	go q.janitor(ctx)
}

// Wait blocks until every goroutine Start launched has exited. Call
// after cancelling Start's context and before persisting Records, so
// the saved states are settled.
func (q *Queue) Wait() { q.wg.Wait() }

// newID returns a 16-hex-char random job ID (the same shape as request
// IDs). Randomness failures degrade to a timestamp-derived ID rather
// than failing the submit.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("%016x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Submit enqueues a job, returning its snapshot (State queued) or
// ErrQueueFull when QueueDepth jobs are already waiting.
func (q *Queue) Submit(spec Spec) (Job, error) {
	j := &job{Job: Job{
		ID:        newID(),
		Spec:      spec,
		State:     StateQueued,
		Submitted: time.Now(),
	}}
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.waiting) >= q.cfg.QueueDepth {
		q.shedFull++
		return Job{}, ErrQueueFull
	}
	q.waiting = append(q.waiting, j)
	q.jobs[j.ID] = j
	q.submitted++
	select {
	case q.wake <- struct{}{}:
	default: // a token is already pending
	}
	return j.Job, nil
}

// Get returns a snapshot of the job, or false for an unknown ID.
func (q *Queue) Get(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, false
	}
	return j.Job, true
}

// Jobs returns a snapshot of every retained job, oldest submission
// first.
func (q *Queue) Jobs() []Job {
	q.mu.Lock()
	out := make([]Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		out = append(out, j.Job)
	}
	q.mu.Unlock()
	sort.Slice(out, func(i, k int) bool {
		if !out[i].Submitted.Equal(out[k].Submitted) {
			return out[i].Submitted.Before(out[k].Submitted)
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// Cancel moves a queued job straight to cancelled, or aborts a running
// job by cancelling its context (the worker then finalizes it as
// cancelled). Cancelling a terminal job returns its snapshot with
// ErrFinished; an unknown ID returns ErrNotFound.
func (q *Queue) Cancel(id string) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	switch j.State {
	case StateQueued:
		q.waiting = slices.DeleteFunc(q.waiting, func(w *job) bool { return w == j })
		j.State = StateCancelled
		j.Error = "cancelled before start"
		j.Finished = time.Now()
		q.cancelled++
	case StateRunning:
		j.State = StateCancelled
		j.Error = "cancelled while running"
		j.cancel()
	default:
		return j.Job, ErrFinished
	}
	return j.Job, nil
}

func (q *Queue) worker(ctx context.Context) {
	defer q.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case <-q.wake:
		}
		// The select is unordered: a cancelled ctx and a pending token can
		// both fire. Never start new work during shutdown — a job left
		// waiting stays in the map as queued, for persistence to report.
		for ctx.Err() == nil && q.exec(ctx) {
		}
	}
}

// jobIDKey carries the executing job's ID on its context, so a Runner
// can key side artifacts (the coverage service keys per-job trace
// exports) without widening the Runner signature.
type jobIDKey struct{}

// JobID returns the ID of the job a Runner is executing, when ctx is a
// job execution context ("" otherwise).
func JobID(ctx context.Context) string {
	id, _ := ctx.Value(jobIDKey{}).(string)
	return id
}

// exec runs the oldest waiting job to a terminal state, reporting false
// when none is waiting.
func (q *Queue) exec(ctx context.Context) bool {
	q.mu.Lock()
	if len(q.waiting) == 0 {
		q.mu.Unlock()
		return false
	}
	j := q.waiting[0]
	q.waiting = slices.Delete(q.waiting, 0, 1)
	jctx, cancel := q.jobContext(ctx)
	jctx = context.WithValue(jctx, jobIDKey{}, j.ID)
	j.State = StateRunning
	j.Started = time.Now()
	j.cancel = cancel
	q.running++
	q.mu.Unlock()

	res, err := q.safeRun(jctx, j.Spec)
	cancel()

	q.mu.Lock()
	q.running--
	j.cancel = nil
	j.Finished = time.Now()
	switch {
	case j.State == StateCancelled:
		// A DELETE raced the run to completion; the cancel verdict (and
		// its reason, set by Cancel) wins regardless of the run's outcome.
		q.cancelled++
	case err != nil:
		j.State = StateFailed
		j.Error = err.Error()
		q.failed++
	default:
		j.State = StateDone
		j.Result = res
		q.done++
	}
	q.mu.Unlock()
	return true
}

// jobContext derives one job's execution context: the worker context
// (queue shutdown) bounded by the configured run-timeout.
func (q *Queue) jobContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if q.cfg.RunTimeout > 0 {
		return context.WithTimeout(ctx, q.cfg.RunTimeout)
	}
	return context.WithCancel(ctx)
}

// safeRun isolates runner panics: a panicking job fails; the worker
// survives to take the next one.
func (q *Queue) safeRun(ctx context.Context, spec Spec) (res json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("job panicked: %v", r)
		}
	}()
	return q.run(ctx, spec)
}

// janitor sweeps expired terminal jobs every quarter-TTL (clamped to
// [1s, 1m] so tiny TTLs don't spin and huge ones still converge).
func (q *Queue) janitor(ctx context.Context) {
	defer q.wg.Done()
	interval := q.cfg.TTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			q.Sweep(time.Now())
		}
	}
}

// Sweep drops terminal jobs that finished more than TTL before now and
// reports how many were removed. Exported for tests and for operators
// embedding the queue without the janitor.
func (q *Queue) Sweep(now time.Time) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for id, j := range q.jobs {
		if j.State.Terminal() && !j.Finished.IsZero() && now.Sub(j.Finished) > q.cfg.TTL {
			delete(q.jobs, id)
			n++
		}
	}
	return n
}

// Stats is a point-in-time queue health snapshot (served by GET /jobs
// and flushed into the metrics registry at scrape time).
type Stats struct {
	// Depth is the number of jobs waiting to run.
	Depth int `json:"depth"`
	// Capacity is the configured QueueDepth.
	Capacity int `json:"capacity"`
	// Running is the number of jobs currently executing.
	Running int `json:"running"`
	// Retained is the number of jobs held in memory, terminal ones
	// (pre-TTL) included.
	Retained  int    `json:"retained"`
	Submitted uint64 `json:"submitted"`
	Done      uint64 `json:"done"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	// ShedFull counts Submits rejected with ErrQueueFull.
	ShedFull uint64 `json:"shedFull"`
}

// Saturated reports whether the queue has no admission headroom (the
// /readyz queue_saturated condition).
func (s Stats) Saturated() bool { return s.Depth >= s.Capacity }

// Stats returns current queue statistics.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{
		Depth:     len(q.waiting),
		Capacity:  q.cfg.QueueDepth,
		Running:   q.running,
		Retained:  len(q.jobs),
		Submitted: q.submitted,
		Done:      q.done,
		Failed:    q.failed,
		Cancelled: q.cancelled,
		ShedFull:  q.shedFull,
	}
}
