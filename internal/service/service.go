// Package service exposes Yardstick as an HTTP service — the shape it
// has in production (§7: "Yardstick is deployed in Azure as part of a
// service to evaluate the impact of changes"). A server holds one
// network and one accumulating coverage trace; testing tools report
// coverage remotely by POSTing trace fragments (the §5.1 markPacket/
// markRule feed, serialized as BDD cubes), or ask the server to run its
// built-in suites; engineers read metrics, role breakdowns, and gap
// reports. Every endpoint is plain HTTP with JSON bodies (trace fragments
// may also be YSS1 arenas); the distributed coordinator drives the ones
// it needs through package client.
//
// Endpoints (every route Handler mounts):
//
//	PUT    /network            load a network (JSON body; ?format=text for the text format)
//	PATCH  /network            apply a rule-level delta document (internal/delta)
//	                           without resetting the trace (see delta.go)
//	GET    /network            current network stats and fingerprint
//	POST   /trace              merge a trace fragment (trace JSON or YSS1 arena)
//	GET    /trace              download the accumulated trace
//	DELETE /trace              reset the trace
//	POST   /jobs               run built-in tests (?suite=a,b) server-side as
//	                           a queued job that accumulates coverage
//	                           (sharded across the WithWorkers pool when it
//	                           is above one): 202 + Location: /jobs/{id},
//	                           answered once the job is finished or after
//	                           a short hold (see jobs.go)
//	GET    /jobs               list retained jobs and queue stats
//	                           (?state= filter, ?offset=/?limit= paging with
//	                           X-Total-Count and Link rel="next" headers)
//	GET    /jobs/{id}          poll one job; its results once done
//	DELETE /jobs/{id}          cancel a queued or running job (409 once finished)
//	GET    /jobs/{id}/trace    a done job's own coverage fragment — trace JSON,
//	                           or the YSS1 arena when Accept names
//	                           TraceArenaMediaType — the shard-collection
//	                           feed of the distributed coordinator
//	                           (internal/coord)
//	GET    /jobs/{id}/profile  a done job's span profile (JSON), the worker
//	                           half of a distributed run's timeline
//	GET    /coverage           headline metrics + per-role rows
//	GET    /gaps               untested rules by origin and role
//	GET    /healthz            liveness: 200 once the process serves traffic
//	GET    /readyz             readiness: 200 when ready; 503 with a reason
//	                           body (no_network, draining, queue_saturated)
//	GET    /metrics            Prometheus text exposition: every count the
//	                           daemon keeps about itself (engine, shed,
//	                           route, queue and churn figures)
//	GET    /stats              the facts no series carries (uptime, trace
//	                           size, in-flight requests, delta rule and mark
//	                           counts) and the metric snapshot a coordinator
//	                           federates
//
// The service is the edge of internal/engine: a handler decodes and
// validates the request, takes the server lock (an Engine is not safe for
// concurrent use, so requests are serialized; WithWorkers(n > 1)
// parallelises within one run), makes one engine call under the
// request's context — tightened by WithRunTimeout, so a disconnected
// client or an expired deadline aborts the symbolic work — and maps the
// outcome to a status: 409 without a network or against a stale
// fingerprint, 400 for a malformed body, 503 + Retry-After for an aborted
// evaluation. What an abort leaves behind is the engine's contract
// (partial coverage is kept; a test that panics is an errored RunResult).
//
// Around that sits the hardening for long-running deployment: panics
// are recovered (500, logged stack, server survives), request bodies are
// size-capped (413), requests are logged, and compute-heavy endpoints
// pass admission control (admission.go) — a concurrency cap sheds with
// 429 + Retry-After, a full job queue with 503 + Retry-After, and a
// draining server sheds everything while /readyz steers load balancers
// away. With WithSnapshot the accumulated trace is checkpointed to an
// atomic-rename file, periodically and on shutdown, and recovered on
// startup when its network fingerprint matches the loaded network.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"yardstick/internal/core"
	"yardstick/internal/engine"
	"yardstick/internal/hdr"
	"yardstick/internal/jobs"
	"yardstick/internal/netmodel"
	"yardstick/internal/obs"
	"yardstick/internal/report"
	"yardstick/internal/sharded"
)

// DefaultMaxBody is the request-body size cap when WithMaxBody is not
// given. Trace fragments for large networks run to a few MB of BDD
// cubes; 64 MiB leaves ample headroom.
const DefaultMaxBody int64 = 64 << 20

// Server is the HTTP coverage service. Create with New and mount via
// Handler.
type Server struct {
	mu sync.Mutex
	// eng is everything the handlers evaluate against: the loaded network
	// (none until the first PUT), the accumulated trace, the coverage view
	// over the two, the fingerprint and the replica pool. s.mu serializes
	// calls into it; a PUT of a different network replaces it whole.
	eng *engine.Engine
	// delta counts the rules and marks PATCH /network moved, reported
	// in /stats.
	delta DeltaReport

	logger       *slog.Logger
	metrics      *obs.Registry
	started      time.Time
	maxBody      int64
	runTimeout   time.Duration
	workers      int
	snapPath     string
	snapInterval time.Duration

	// Async admission layer (admission.go, jobs.go). The queue exists
	// unconditionally — jobs simply wait until RunJobs starts its worker —
	// so the /jobs API needs no "is it enabled" branch anywhere.
	jobs     *jobs.Queue
	jobsPath string // job-records snapshot, derived from snapPath
	// artifacts holds each finished job's exports, keyed by job ID: its
	// own coverage fragment (done jobs only), the GET /jobs/{id}/trace
	// export a distributed coordinator collects shard results through,
	// and its span profile, the GET /jobs/{id}/profile export the
	// coordinator stitches into a cross-node run timeline. At most
	// QueueDepth jobs keep artifacts, the oldest evicted first, besides
	// at most QueueDepth shard fragments no coordinator has fetched yet
	// (see artifactsLocked), and they are memory-only: after an eviction
	// or a restart the endpoints answer 410 Gone and the coordinator
	// re-dispatches the shard (merge is idempotent).
	artifacts map[string]*jobArtifacts
	// artifactOrder lists the unpinned IDs in artifacts, oldest first.
	artifactOrder []string
	// pinnedOrder lists the IDs pinned in artifacts, oldest first.
	pinnedOrder []string
	// spanObserver, when set (WithSpanObserver), receives every request
	// root span after it ends — the test hook the span-leak suite uses
	// to assert no span in its Profile is Open on all paths, panics included.
	spanObserver func(*obs.Span)
	queueDepth   int
	jobTTL       time.Duration
	maxInflight  int
	inflight     atomic.Int64
	// drained is closed while the server drains (see SetDraining): it is
	// the draining state, and closing it ends every POST /jobs hold;
	// drainMu guards its replacement.
	drainMu sync.Mutex
	drained chan struct{}
}

// Option configures a Server.
type Option func(*Server)

// WithLogger routes request and panic logs to l (default: slog.Default).
// The same structured logger serves the middleware chain, snapshot
// recovery, and the checkpointer drain path.
func WithLogger(l *slog.Logger) Option { return func(s *Server) { s.logger = l } }

// WithMaxBody caps request-body size at n bytes (default DefaultMaxBody).
func WithMaxBody(n int64) Option { return func(s *Server) { s.maxBody = n } }

// WithRunTimeout bounds the compute-heavy work: GET /coverage, GET /gaps
// and PATCH /network each run under a deadline of d on top of the
// client's own cancellation (r.Context()), and so does every job a
// POST /jobs submits (a job past it ends failed). Zero or negative means
// no server-side deadline.
func WithRunTimeout(d time.Duration) Option { return func(s *Server) { s.runTimeout = d } }

// WithWorkers sets how many workers every job shards its suite across
// (default 1 — every run sequential). Above one, the loaded network is
// replicated once per worker as an arena clone of its BDD space, built
// lazily on the first run and reused until the network changes.
func WithWorkers(n int) Option { return func(s *Server) { s.workers = n } }

// WithSnapshot enables crash-safe persistence: the accumulated trace is
// checkpointed to path every interval (see RunCheckpointer) and on
// Checkpoint calls, and Restore recovers it on startup. Job records
// ride along in a sibling file (path + ".jobs") under the same network
// fingerprint, so completed async jobs survive a restart too. An
// interval <= 0 keeps the default of one minute.
func WithSnapshot(path string, interval time.Duration) Option {
	return func(s *Server) {
		s.snapPath = path
		s.jobsPath = path + ".jobs"
		if interval > 0 {
			s.snapInterval = interval
		}
	}
}

// WithJobQueue sizes the async-run admission layer: depth bounds how
// many submitted jobs may wait (a full queue sheds POST /jobs with
// 503 + Retry-After; default 64) and how many finished jobs keep their
// fragment and profile (and, apart, how many shard fragments wait for
// their coordinator's fetch), and ttl is how long finished jobs stay
// pollable before they are swept (default 1h). One worker drains the
// queue: runs hold the evaluation lock, so jobs evaluate one at a time
// whatever WithWorkers says (that sets each run's parallelism).
func WithJobQueue(depth int, ttl time.Duration) Option {
	return func(s *Server) {
		s.queueDepth = depth
		s.jobTTL = ttl
	}
}

// WithAdmission caps concurrent compute-heavy requests (PATCH /network,
// POST /jobs submissions, GET /coverage, GET /gaps): past the cap,
// requests are shed with 429 + Retry-After instead of queueing on the
// evaluation mutex. A POST /jobs counts until its job is queued, not
// through the hold that follows. 0 (the default) disables the cap.
func WithAdmission(maxInflight int) Option {
	return func(s *Server) {
		if maxInflight > 0 {
			s.maxInflight = maxInflight
		}
	}
}

// WithSpanObserver registers fn to receive every request root span
// after it has ended. Spans may still be mutated by the observer's
// caller's goroutine only; treat them as read-only. Intended for tests
// asserting span hygiene (no open spans left behind on any path).
func WithSpanObserver(fn func(*obs.Span)) Option {
	return func(s *Server) { s.spanObserver = fn }
}

// New returns a server with no network loaded.
func New(opts ...Option) *Server {
	s := &Server{
		artifacts:    map[string]*jobArtifacts{},
		drained:      make(chan struct{}),
		logger:       slog.Default(),
		metrics:      obs.NewRegistry(),
		started:      time.Now(),
		maxBody:      DefaultMaxBody,
		snapInterval: time.Minute,
	}
	for _, o := range opts {
		o(s)
	}
	s.eng = s.newEngine(nil)
	// The queue wraps the server's own runner, so it is built after the
	// options settle sizing (run-timeout, depth, TTL).
	s.jobs = jobs.New(s.runJob, jobs.Config{
		QueueDepth: s.queueDepth,
		RunTimeout: s.runTimeout,
		TTL:        s.jobTTL,
	})
	hdr.RegisterHelp(s.metrics)
	s.metrics.SetHelp(sharded.MetricRuns, "Sharded suite runs")
	s.metrics.SetHelp(sharded.MetricWorkerRuns, "Per-worker shard executions")
	s.metrics.SetHelp(sharded.MetricBudgetTrips, "Shard runs that tripped their BDD budget")
	s.metrics.SetHelp(sharded.MetricWorkers, "Workers the last sharded run used")
	s.metrics.SetHelp("yardstick_stage_duration_seconds", "Stage latency, by stage name")
	s.metrics.SetHelp("yardstick_http_shed_total", "Requests shed by admission control, by route and reason")
	s.metrics.SetHelp("yardstick_jobs_queue_depth", "Jobs waiting in the queue")
	s.metrics.SetHelp("yardstick_jobs_running", "Jobs currently executing")
	s.metrics.SetHelp("yardstick_jobs_retained", "Jobs held in memory, finished ones included")
	s.metrics.SetHelp(MetricNetworkResets, "Full network replacements that reset the trace and replica pool")
	s.metrics.SetHelp(MetricDeltaApplied, "Rule-level delta documents applied via PATCH /network")
	s.metrics.SetHelp(engine.MetricCoverageReads, "Reads of the coverage view, by whether any device had to be re-derived")
	s.metrics.SetHelp(engine.MetricCoverageRefreshDevices, "Devices re-derived by coverage view refreshes")
	s.metrics.SetHelp(engine.MetricEngineNodes, "Nodes in the canonical BDD manager")
	s.metrics.SetHelp(engine.MetricEngineUniqueSlots, "Unique-table slots of the canonical BDD manager")
	s.metrics.SetHelp(engine.MetricEngineUniqueLoad, "Unique-table load factor of the canonical BDD manager, kept below 0.75 by resizing")
	s.metrics.SetHelp(engine.MetricEngineCacheSlots, "Op-cache slots of the canonical BDD manager")
	s.metrics.SetHelp(engine.MetricEngineSatFracEntries, "SatFraction memo entries of the canonical BDD manager")
	return s
}

// newEngine returns the engine for net (nil: none loaded yet), its
// replica pool sized by WithWorkers.
func (s *Server) newEngine(net *netmodel.Network) *engine.Engine {
	return engine.New(net, engine.Config{Workers: s.workers})
}

// WithNetwork returns a server pre-loaded with a network.
func WithNetwork(net *netmodel.Network, opts ...Option) *Server {
	s := New(opts...)
	s.eng = s.newEngine(net)
	return s
}

// Handler returns the service's HTTP handler, wrapped in the hardening
// middleware chain (panic recovery, request logging, body-size limits).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /network", s.putNetwork)
	mux.HandleFunc("PATCH /network", s.admit("/network", s.patchNetwork))
	mux.HandleFunc("GET /network", s.getNetwork)
	mux.HandleFunc("POST /trace", s.postTrace)
	mux.HandleFunc("GET /trace", s.getTrace)
	mux.HandleFunc("DELETE /trace", s.deleteTrace)
	mux.HandleFunc("POST /jobs", s.postJob)
	mux.HandleFunc("GET /jobs", s.listJobs)
	mux.HandleFunc("GET /jobs/{id}", s.getJob)
	mux.HandleFunc("GET /jobs/{id}/trace", s.getJobTrace)
	mux.HandleFunc("GET /jobs/{id}/profile", s.getJobProfile)
	mux.HandleFunc("DELETE /jobs/{id}", s.deleteJob)
	mux.HandleFunc("GET /coverage", s.admit("/coverage", s.getCoverage))
	mux.HandleFunc("GET /gaps", s.admit("/gaps", s.getGaps))
	mux.HandleFunc("GET /healthz", s.getHealthz)
	mux.HandleFunc("GET /readyz", s.getReadyz)
	mux.HandleFunc("GET /metrics", s.getMetrics)
	mux.HandleFunc("GET /stats", s.getStats)
	// LogRequests sits outermost so its deferred log line also covers
	// requests that panic (Recover, inside, has already answered 500 by
	// the time the line is emitted).
	return Chain(mux,
		LogRequests(s.logger),
		Recover(s.logger),
		Instrument(s.metrics),
		LimitBody(s.maxBody),
	)
}

// unlock settles the canonical manager's counter movement into the
// metrics registry and releases s.mu. Every holder of s.mu releases it
// here, so the registry holds all completed work and a scrape never
// waits on the lock.
func (s *Server) unlock() {
	s.eng.SettleStats(s.metrics)
	s.mu.Unlock()
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeError maps a request-body decode failure to a status code:
// bodies truncated by the LimitBody middleware are the client's fault
// at 413, everything else is a plain bad request.
func decodeError(w http.ResponseWriter, what string, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		httpError(w, http.StatusRequestEntityTooLarge, "parse %s: body exceeds %d bytes", what, mbe.Limit)
		return
	}
	httpError(w, http.StatusBadRequest, "parse %s: %v", what, err)
}

// fingerprintConflict answers 409 to a body that names another network
// than the loaded one (a delta's base, a trace arena's fingerprint),
// carrying the current fingerprint so the client can re-read and retry.
func fingerprintConflict(w http.ResponseWriter, err error, current string) {
	writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error(), "current": current})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) putNetwork(w http.ResponseWriter, r *http.Request) {
	var (
		net *netmodel.Network
		err error
	)
	switch r.URL.Query().Get("format") {
	case "", "json":
		net, err = netmodel.DecodeJSON(r.Body)
	case "text":
		net, err = netmodel.ParseText(r.Body)
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q", r.URL.Query().Get("format"))
		return
	}
	if err != nil {
		decodeError(w, "network", err)
		return
	}
	// The new network's engine is built, and the network hashed, before
	// the lock is taken: nothing else can see it yet.
	next := s.newEngine(net)
	fp := next.Fingerprint()
	s.mu.Lock()
	defer s.unlock()
	// Idempotent re-upload: loading a byte-identical network again is a
	// no-op that keeps the accumulated trace, the replica pool, and the
	// retained job fragments — deploy pipelines PUT unconditionally, and
	// coverage must not evaporate when nothing changed.
	if s.eng.Net() != nil && fp == s.eng.Fingerprint() {
		body := statsBody(s.eng)
		body.Unchanged = true
		writeJSON(w, http.StatusOK, body)
		return
	}
	if s.eng.Net() != nil {
		s.metrics.Counter(MetricNetworkResets).Inc()
	}
	// A new network invalidates the old trace, replica pool and counter
	// baseline — all the old engine's — and the job fragments, which
	// decode against the old network.
	s.eng = next
	s.artifacts = map[string]*jobArtifacts{}
	s.artifactOrder, s.pinnedOrder = nil, nil
	writeJSON(w, http.StatusOK, statsBody(next))
}

// NetworkStats is the GET /network (and PUT /network) response body.
type NetworkStats struct {
	Family  string `json:"family"`
	Devices int    `json:"devices"`
	Ifaces  int    `json:"ifaces"`
	Links   int    `json:"links"`
	Rules   int    `json:"rules"`
	// Fingerprint identifies the loaded network — the base a PATCH
	// /network delta document must name.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Unchanged marks a PUT that matched the loaded network's
	// fingerprint and therefore kept the trace and replica pool.
	Unchanged bool `json:"unchanged,omitempty"`
}

func statsBody(eng *engine.Engine) NetworkStats {
	st := eng.Net().Stats()
	return NetworkStats{
		Family:      eng.Net().Family().String(),
		Devices:     st.Devices,
		Ifaces:      st.Ifaces,
		Links:       st.Links,
		Rules:       st.Rules,
		Fingerprint: eng.Fingerprint(),
	}
}

func (s *Server) getNetwork(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.unlock()
	if s.eng.Net() == nil {
		httpError(w, http.StatusNotFound, "no network loaded")
		return
	}
	writeJSON(w, http.StatusOK, statsBody(s.eng))
}

// TraceStats is the POST /trace response body: the size of the
// accumulated trace after the merge.
type TraceStats struct {
	Locations   int `json:"locations"`
	MarkedRules int `json:"markedRules"`
}

func (s *Server) postTrace(w http.ResponseWriter, r *http.Request) {
	// The body is read before the lock is taken, as PUT and PATCH do: a
	// slow uploader must not stall every endpoint that needs s.mu.
	data, err := io.ReadAll(r.Body)
	if err != nil {
		decodeError(w, "trace", err)
		return
	}
	s.mu.Lock()
	defer s.unlock()
	_, err = s.eng.Merge(r.Context(), data)
	switch {
	case errors.Is(err, engine.ErrNoNetwork):
		httpError(w, http.StatusConflict, "%v", err)
		return
	case errors.Is(err, core.ErrSnapshotMismatch):
		// A well-formed arena recorded against another network.
		fingerprintConflict(w, err, s.eng.Fingerprint())
		return
	case err != nil:
		decodeError(w, "trace", err)
		return
	}
	st := s.eng.Trace().Stats()
	writeJSON(w, http.StatusOK, TraceStats{
		Locations:   st.Locations,
		MarkedRules: st.MarkedRules,
	})
}

func (s *Server) getTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.unlock()
	// Buffer the encoding so a failure can still produce a clean 500
	// instead of corrupting an already-started 200 response.
	data, err := s.eng.EncodeFragment(r.Context(), s.eng.Trace(), false)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode trace: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (s *Server) deleteTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.unlock()
	s.eng.ResetTrace()
	w.WriteHeader(http.StatusNoContent)
}

// RunResult is one element of a done job's result (GET /jobs/{id}).
type RunResult struct {
	Name     string   `json:"name"`
	Kind     string   `json:"kind"`
	Checks   int      `json:"checks"`
	Pass     bool     `json:"pass"`
	Failures []string `json:"failures,omitempty"`
	// Errored marks a test that terminated abnormally (panic, budget,
	// cancellation) — a third state distinct from pass/fail; Error
	// carries the reason.
	Errored bool   `json:"errored,omitempty"`
	Error   string `json:"error,omitempty"`
}

// endSpan ends a request root span (EndStage feeds the stage latency
// histogram) and hands it to the WithSpanObserver hook, which sees it
// only after it is settled. The single finish path for request roots,
// deferred so panic and cancellation exits still pass through it.
func (s *Server) endSpan(sp *obs.Span) {
	sp.EndStage()
	if s.spanObserver != nil && sp != nil {
		s.spanObserver(sp)
	}
}

// evalContext derives the evaluation context for a compute-heavy
// endpoint: the request context (client disconnection cancels the
// work) bounded by the WithRunTimeout deadline.
func (s *Server) evalContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.runTimeout > 0 {
		return context.WithTimeout(r.Context(), s.runTimeout)
	}
	return context.WithCancel(r.Context())
}

// abortError maps an aborted evaluation to a response. The daemon
// installs no BDD budget (bdd.Limits): an evaluation is bounded only by
// the client's cancellation and the WithRunTimeout deadline, and either
// maps to 503 (the work was valid, the server declined to finish it),
// with the context error in the body. The Retry-After hint keeps the 503
// within the backpressure contract: every refusal tells the client when
// to come back.
func abortError(w http.ResponseWriter, what string, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(RetryAfterInflight))
	httpError(w, http.StatusServiceUnavailable, "%s aborted: %v", what, err)
}

// CoverageReport is the GET /coverage response body: the coverage table
// only. The BDD engine's health counters are series in /metrics.
type CoverageReport struct {
	Total  MetricsRow   `json:"total"`
	ByRole []MetricsRow `json:"byRole"`
}

// MetricsRow is one group's coverage metrics.
type MetricsRow struct {
	Group            string  `json:"group"`
	Devices          int     `json:"devices"`
	DeviceFractional float64 `json:"deviceFractional"`
	IfaceFractional  float64 `json:"ifaceFractional"`
	RuleFractional   float64 `json:"ruleFractional"`
	RuleWeighted     float64 `json:"ruleWeighted"`
}

func toMetricsRow(m report.Metrics) MetricsRow {
	return MetricsRow{
		Group:            m.Label,
		Devices:          m.Devices,
		DeviceFractional: m.DeviceFractional,
		IfaceFractional:  m.IfaceFractional,
		RuleFractional:   m.RuleFractional,
		RuleWeighted:     m.RuleWeighted,
	}
}

// readView is the shared front of the coverage view's two readers (GET
// /coverage, GET /gaps): under the request's evaluation context and a
// root span named span, it runs fold over the up-to-date view as the
// coverage.refresh stage, whose span records how many devices and rules
// the refresh took. It reports the time spent computing, or answers the
// error itself (409 without a network, 503 on an aborted evaluation) and
// returns ok false. Callers hold s.mu.
func (s *Server) readView(w http.ResponseWriter, r *http.Request, span, what string, fold func(*core.Coverage)) (compute time.Duration, ok bool) {
	if s.eng.Net() == nil {
		httpError(w, http.StatusConflict, "no network loaded")
		return 0, false
	}
	ctx, cancel := s.evalContext(r)
	defer cancel()
	start := time.Now()
	sp := obs.NewRoot(span, s.metrics)
	err := s.eng.View(obs.ContextWithSpan(ctx, sp), "coverage.refresh", fold)
	s.endSpan(sp)
	compute = time.Since(start)
	if err != nil {
		abortError(w, what, err)
		return 0, false
	}
	return compute, true
}

// serverTiming sets the Server-Timing header (before writeJSON starts
// the response): how the request's time since start split between the
// coverage computation and the stats/serialization tail.
func serverTiming(w http.ResponseWriter, start time.Time, compute time.Duration) {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	w.Header().Set("Server-Timing", fmt.Sprintf("compute;dur=%.2f, stats;dur=%.2f",
		ms(compute), ms(time.Since(start))-ms(compute)))
}

func (s *Server) getCoverage(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.unlock()
	start := time.Now()
	var body CoverageReport
	compute, ok := s.readView(w, r, "service.coverage", "coverage", func(cov *core.Coverage) {
		body.Total = toMetricsRow(report.Total(cov, "total"))
		for _, row := range report.ByRole(cov, cov.Net.Roles()) {
			body.ByRole = append(body.ByRole, toMetricsRow(row))
		}
	})
	if !ok {
		return
	}
	serverTiming(w, start, compute)
	writeJSON(w, http.StatusOK, body)
}

// getMetrics serves the Prometheus text exposition. It takes no lock:
// the canonical manager's counters were settled into the registry when
// s.mu was last released (see unlock), so a scrape reflects all
// completed work and answers while a job runs.
func (s *Server) getMetrics(w http.ResponseWriter, r *http.Request) {
	s.flushJobGauges()
	w.Header().Set("Content-Type", obs.ContentType)
	s.metrics.WritePrometheus(w)
}

// StatsReport is the GET /stats response body: the facts no series
// carries, and the metric snapshot a coordinator federates (labels as
// raw JSON objects, histogram buckets with finite edges). Every count
// /metrics exposes is read there; the queue, network and readiness
// routes serve their own state.
type StatsReport struct {
	UptimeSeconds  float64 `json:"uptimeSeconds"`
	Goroutines     int     `json:"goroutines"`
	TraceLocations int     `json:"traceLocations"`
	MarkedRules    int     `json:"markedRules"`
	// InFlight is how many heavy requests admission control has admitted
	// and not yet finished.
	InFlight int64 `json:"inflight"`
	// Delta reports the rules and marks applied deltas moved.
	Delta   DeltaReport  `json:"delta"`
	Metrics []obs.Metric `json:"metrics"`
}

func (s *Server) getStats(w http.ResponseWriter, r *http.Request) {
	s.flushJobGauges()
	s.mu.Lock()
	ts := s.eng.Trace().Stats()
	delta := s.delta
	s.unlock()
	writeJSON(w, http.StatusOK, StatsReport{
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Goroutines:     runtime.NumGoroutine(),
		TraceLocations: ts.Locations,
		MarkedRules:    ts.MarkedRules,
		InFlight:       s.inflight.Load(),
		Delta:          delta,
		Metrics:        s.metrics.Snapshot(),
	})
}

// Gap is one element of the GET /gaps response body.
type Gap struct {
	Origin string `json:"origin"`
	Role   string `json:"role"`
	Count  int    `json:"count"`
}

func (s *Server) getGaps(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.unlock()
	start := time.Now()
	out := []Gap{}
	compute, ok := s.readView(w, r, "service.gaps", "gap report", func(cov *core.Coverage) {
		for _, g := range report.Gaps(cov) {
			out = append(out, Gap{Origin: string(g.Origin), Role: string(g.Role), Count: g.Count})
		}
	})
	if !ok {
		return
	}
	serverTiming(w, start, compute)
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) getHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ReadyReport is the GET /readyz response body. When unready, Reason is
// one of "draining" (shutdown has begun — route elsewhere),
// "queue_saturated" (the job queue has no admission headroom), or
// "no_network" (nothing loaded yet).
type ReadyReport struct {
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

// getReadyz reports readiness with an explicit reason body, so load
// balancers and operators can tell "never came up" from "overloaded"
// from "going away" without reading logs.
func (s *Server) getReadyz(w http.ResponseWriter, r *http.Request) {
	reason := ""
	switch {
	case s.isDraining():
		reason = "draining"
	case func() bool { s.mu.Lock(); defer s.unlock(); return s.eng.Net() == nil }():
		reason = "no_network"
	case s.jobs.Stats().Saturated():
		reason = "queue_saturated"
	}
	if reason != "" {
		if reason != "no_network" {
			// Transient unreadiness comes with a retry hint; an unloaded
			// network needs an operator, not a retry loop.
			w.Header().Set("Retry-After", strconv.Itoa(RetryAfterQueueFull))
		}
		writeJSON(w, http.StatusServiceUnavailable, ReadyReport{Status: "unready", Reason: reason})
		return
	}
	writeJSON(w, http.StatusOK, ReadyReport{Status: "ready"})
}

// Checkpoint writes the current trace and job records to their snapshot
// files (atomic rename; see core.SaveSnapshotArena and jobs.Save). The
// trace goes out as a YSS1 arena — sets persisted as a BDD dump, no cube
// extraction — under the cached network fingerprint, so a checkpoint
// never re-encodes the network. It is a no-op without WithSnapshot or
// before a network is loaded.
func (s *Server) Checkpoint() error {
	s.mu.Lock()
	defer s.unlock()
	if s.snapPath == "" || s.eng.Net() == nil {
		return nil
	}
	if err := s.eng.Snapshot(s.snapPath); err != nil {
		return err
	}
	return s.checkpointJobsLocked()
}

// Restore recovers the trace from the snapshot file. It reports whether
// a snapshot was merged: a missing file or a fingerprint mismatch
// (snapshot recorded against a different network) is not an error — the
// stale snapshot is discarded and the server starts from the current
// trace. A checkpoint in the JSON format daemons wrote before the arena
// codec still loads, with a deprecation warning; the next Checkpoint
// rewrites it as an arena. It is a no-op without WithSnapshot or before
// a network is loaded.
func (s *Server) Restore() (bool, error) {
	s.mu.Lock()
	defer s.unlock()
	if s.snapPath == "" || s.eng.Net() == nil {
		return false, nil
	}
	// Job records recover independently of the trace: a missing or
	// mismatched trace snapshot must not discard completed job results,
	// and vice versa.
	if _, err := s.restoreJobsLocked(); err != nil {
		return false, fmt.Errorf("restore job records: %w", err)
	}
	// The kept signature supplies no context; startup is not cancellable.
	legacy, err := s.eng.Restore(context.TODO(), s.snapPath)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return false, nil
	case errors.Is(err, core.ErrSnapshotMismatch):
		s.logger.Warn("snapshot recorded against a different network; discarding", "path", s.snapPath)
		return false, nil
	case err != nil:
		return false, err
	}
	if legacy {
		s.logger.Warn("restored a JSON trace checkpoint; the format is deprecated and the next checkpoint rewrites it as an arena", "path", s.snapPath)
	}
	return true, nil
}

// RunCheckpointer checkpoints every WithSnapshot interval until ctx is
// done, then takes a final checkpoint so shutdown never loses trace
// state. It returns immediately when persistence is not configured.
func (s *Server) RunCheckpointer(ctx context.Context) {
	s.mu.Lock()
	path, interval := s.snapPath, s.snapInterval
	s.unlock()
	if path == "" {
		return
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if err := s.Checkpoint(); err != nil {
				s.logger.Error("checkpoint failed", "err", err)
			}
		case <-ctx.Done():
			if err := s.Checkpoint(); err != nil {
				s.logger.Error("final checkpoint failed", "err", err)
			}
			return
		}
	}
}
