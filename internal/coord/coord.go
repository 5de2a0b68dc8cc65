// Package coord runs a test suite across a fleet of yardstickd worker
// nodes and merges their coverage into one exact trace — the paper's
// deployment story (§7: testing tools report coverage to a service)
// scaled out, with the failure handling a real fleet needs.
//
// The shape is partition → dispatch → collect → merge:
//
//   - Partition: the suite names that split by source (reach and
//     pingmesh; testkit.Suite.SplitTogether) form one shard, first in
//     each round, and every other name becomes a shard of its own. The
//     group shares one job and so one fragment: each ping records where
//     the flood from its source has already marked its hops, and costs
//     nothing there, where in a fragment of its own every hop would pay
//     a singleton and an Or. The list is a pure function of the names,
//     optionally repeated for -rounds (re-running a shard is free because
//     coverage merges by BDD union).
//   - Dispatch: a node is pushed the network only when GET /network says
//     it holds a different one (or none). Shards are submitted through
//     the async /jobs API of each worker and polled to completion; the
//     per-shard fragment comes back via GET /jobs/{id}/trace as a
//     checksummed YSS1 arena (core.EncodeFragmentArena), negotiated on
//     Accept and gzipped on the wire (the HTTP transport asks for gzip
//     and inflates the body); any other body, one past the client's
//     bound on a decoded body, or a broken gzip stream fails the attempt.
//   - Merge: one merger goroutine owns the coordinator's BDD space for
//     the length of the run. It decodes each fragment as it lands,
//     importing the arena straight into that space — rule and location
//     IDs are indices, identical across deterministic replicas, so only
//     the symbolic sets need building there — and folds it into one
//     trace by same-space union while other shards still run.
//     A fragment that fails its checksum, its format checks or the
//     network fingerprint fails the attempt that fetched it, and the
//     shard is dispatched again.
//
// Every robustness decision leans on one invariant: merging is an
// idempotent, commutative union, so it is always safe to run a shard
// again, anywhere. That turns retries, re-dispatch after a node dies or
// straggles, and duplicate execution after a lost response from
// correctness hazards into pure scheduling choices.
//
// Failure handling, from mildest to worst:
//
//   - Any failed call (connection error, HTTP failure, a shed), a failed
//     job, or a lost or damaged fragment fails its attempt at once: the
//     client makes one round trip per call and retries nothing. Every
//     attempt is one job on one node, so a straggler fails its attempt
//     too, when ShardTimeout expires. This attempt loop is the fleet's
//     one retry layer. It backs off with jittered exponential delay,
//     stretched to a shed's Retry-After hint (capped at 5s), and
//     re-dispatches the shard on a different node when one can be
//     claimed.
//   - A node whose attempts fail repeatedly (a shed does not count) trips
//     a circuit breaker: it stops receiving shards for a cooldown, then a
//     single half-open probe decides whether it rejoins the rotation. Its
//     queued work is re-dispatched to healthy nodes.
//   - When no healthy node remains, the run degrades gracefully: Run
//     returns an explicit partial Result (per-shard status, Complete
//     false) instead of an error or a hang.
package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"yardstick/internal/client"
	"yardstick/internal/core"
	"yardstick/internal/engine"
	"yardstick/internal/jobs"
	"yardstick/internal/netmodel"
	"yardstick/internal/obs"
	"yardstick/internal/service"
	"yardstick/internal/testkit"
)

// Config describes the fleet and the run.
type Config struct {
	// Nodes are the worker base URLs (http://host:port). At least one.
	Nodes []string

	// Net is the coordinator's replica of the network under test. A node
	// that does not already hold it (by fingerprint) is pushed it before
	// its first shard (PUT /network), and it is the space shard fragments
	// decode into. The run's merger goroutine owns its BDD space until
	// Run returns; do not evaluate against it meanwhile.
	Net *netmodel.Network

	// NewClient builds the client for one node. nil means
	// client.New(base); tests inject clients whose transports carry
	// chaos faults.
	NewClient func(base string) *client.Client

	// Rounds repeats the shard list this many times (<= 0 means 1).
	// Extra rounds add no coverage — merge is idempotent — but stretch
	// the run, which is how the chaos tests and the CI cluster-smoke
	// keep a kill window open.
	Rounds int

	// Concurrency bounds in-flight shards (<= 0 means 2 per node).
	Concurrency int

	// ShardTimeout bounds one dispatch attempt end to end: submit, poll
	// to terminal, download the fragment (<= 0 means 60s). The client
	// sets no deadline of its own, so this is what turns a hung or
	// straggling worker into a retryable failure.
	ShardTimeout time.Duration

	// MaxAttempts bounds dispatch attempts per shard, first try
	// included (<= 0 means 3).
	MaxAttempts int

	// Backoff is the base delay between a shard's attempts, doubled per
	// attempt with equal jitter; a server Retry-After hint is honored
	// when larger (<= 0 means 100ms).
	Backoff time.Duration

	// Poll is the job poll interval (<= 0 means the client's 250ms),
	// for a job that was not finished when its submit answered.
	Poll time.Duration

	// FailureThreshold is the consecutive-failure count that trips a
	// node's circuit breaker (<= 0 means 3). Sheds do not count: a
	// shedding node is busy, not broken.
	FailureThreshold int

	// Cooldown is how long a tripped breaker stays open before one
	// half-open probe may test the node again (<= 0 means 2s).
	Cooldown time.Duration

	// FederationMaxAge is how long a worker's last scraped metric
	// snapshot stays in the coordinator's fleet view after the worker
	// stops answering (<= 0 means obs.DefaultFederationMaxAge). See
	// observe.go.
	FederationMaxAge time.Duration

	// Logger receives dispatch/retry/trip events. nil discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.NewClient == nil {
		c.NewClient = func(base string) *client.Client { return client.New(base) }
	}
	if c.Rounds <= 0 {
		c.Rounds = 1
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 2 * len(c.Nodes)
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 60 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = 100 * time.Millisecond
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Breaker states. closed = healthy rotation; open = cooling off after
// FailureThreshold consecutive failures; half-open = one probe in
// flight deciding reinstatement.
type breakerState uint8

const (
	stClosed breakerState = iota
	stOpen
	stHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case stClosed:
		return "closed"
	case stOpen:
		return "open"
	case stHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// node is one worker plus its health accounting.
type node struct {
	base string
	c    *client.Client

	// loadSem (capacity 1) serializes network checks and pushes so
	// concurrent shards do not race redundant GET and PUT /network calls
	// at the same node. A channel rather than a mutex, so an attempt whose
	// context ends stops waiting for it.
	loadSem chan struct{}

	// loaded: the node was seen holding the run's network — a matching
	// GET /network fingerprint or an acknowledged push — and has not
	// failed an attempt since. Cleared at the start of every run.
	loaded atomic.Bool

	mu       sync.Mutex
	state    breakerState
	fails    int // consecutive non-shed failures
	openedAt time.Time
	inflight int

	// Counters for the end-of-run report.
	dispatched, succeeded, failed, sheds, trips int
}

// stateNow returns the breaker state.
func (n *node) stateNow() breakerState {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state
}

func (n *node) inflightNow() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.inflight
}

// claimProbe moves an open breaker past its cooldown to half-open and
// claims the single probe slot. Only one caller wins until the probe
// resolves.
func (n *node) claimProbe(now time.Time, cooldown time.Duration) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.state != stOpen || now.Sub(n.openedAt) < cooldown {
		return false
	}
	n.state = stHalfOpen
	return true
}

func (n *node) acquire() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.inflight++
	n.dispatched++
}

func (n *node) release() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.inflight--
}

// onSuccess closes the breaker (a half-open probe that succeeds
// reinstates the node) and clears the failure streak.
func (n *node) onSuccess() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.succeeded++
	n.fails = 0
	n.state = stClosed
}

// onFailure records a non-shed failure: the streak grows, and crossing
// the threshold — or failing the half-open probe — opens the breaker.
// Reports whether this failure tripped it. Whatever went wrong, the
// node may have restarted or been handed another network since it was
// last checked, so its next attempt re-reads GET /network first.
func (n *node) onFailure(now time.Time, threshold int) bool {
	n.loaded.Store(false)
	n.mu.Lock()
	defer n.mu.Unlock()
	n.failed++
	n.fails++
	if n.state == stHalfOpen || (n.state == stClosed && n.fails >= threshold) {
		n.state = stOpen
		n.openedAt = now
		n.trips++
		return true
	}
	return false
}

// onShed records a load-shed: counted for the report, invisible to the
// breaker (a node shedding load is doing its job). A half-open probe
// that comes back shed still reinstates the node — it is alive.
func (n *node) onShed() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sheds++
	if n.state == stHalfOpen {
		n.state = stClosed
		n.fails = 0
	}
}

// onNeutral ends an attempt without judging the node — the run's
// context ended under it, which says nothing about node health. A
// half-open probe cut short that way rolls back to open so another probe
// can run.
func (n *node) onNeutral() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.state == stHalfOpen {
		n.state = stOpen
	}
}

func (n *node) report() NodeReport {
	n.mu.Lock()
	defer n.mu.Unlock()
	return NodeReport{
		Node: n.base, State: n.state.String(),
		Dispatched: n.dispatched, Succeeded: n.succeeded,
		Failed: n.failed, Sheds: n.sheds, Trips: n.trips,
	}
}

// ShardStatus is one shard's outcome in the Result.
type ShardStatus struct {
	ID int `json:"id"`
	// Suite is the job's suite: one built-in name, or the split group's
	// names joined by commas ("reach,pingmesh"), which run on one trace.
	Suite    string `json:"suite"`
	Round    int    `json:"round"`
	Node     string `json:"node,omitempty"` // node that completed it
	Attempts int    `json:"attempts"`
	Done     bool   `json:"done"`
	Error    string `json:"error,omitempty"`
	Fragment        // of the winning attempt
}

// Fragment is one fetched fragment's accounting: its decoded size (the
// arena's bytes, not the gzipped bytes that crossed the wire), and the
// time spent fetching it, decoding it into the coordinator's space, and
// folding it into the merged trace.
type Fragment struct {
	FragmentBytes int     `json:"fragmentBytes,omitempty"`
	FetchMs       float64 `json:"fetchMs,omitempty"`
	DecodeMs      float64 `json:"decodeMs,omitempty"`
	MergeMs       float64 `json:"mergeMs,omitempty"`
}

// Totals is a run's wire and merge accounting: the per-shard fragment
// figures summed over the shards that completed, plus how many nodes
// were pushed the network and how many were found already holding it.
type Totals struct {
	FragmentBytes      int64   `json:"fragmentBytes"`
	FetchMs            float64 `json:"fetchMs"`
	DecodeMs           float64 `json:"decodeMs"`
	MergeMs            float64 `json:"mergeMs"`
	NetworkPushes      int     `json:"networkPushes"`
	NetworkPushSkipped int     `json:"networkPushSkipped"`
}

// NodeReport is one node's health accounting in the Result.
type NodeReport struct {
	Node       string `json:"node"`
	State      string `json:"state"` // breaker state at end of run
	Dispatched int    `json:"dispatched"`
	Succeeded  int    `json:"succeeded"`
	Failed     int    `json:"failed"`
	Sheds      int    `json:"sheds"`
	Trips      int    `json:"trips"`
}

// Result is a distributed run's outcome. Complete false is the graceful
// degradation contract: the trace still holds the union of every shard
// that did finish, and Shards says exactly which did not and why — the
// distributed analogue of the Errored test verdict, which never vouches
// for what it could not check.
type Result struct {
	// RunID is the run's minted identity, carried on every dispatch as
	// the X-Run-Id header and tagged through every span in Timeline.
	RunID    string
	Shards   []ShardStatus
	Nodes    []NodeReport
	Totals   Totals
	Complete bool
	// Trace is the merged coverage in Config.Net's space.
	Trace *core.Trace
	// Tests holds one result set per suite name, from the done shard with
	// the lowest ID that ran it (repeated rounds re-run identical tests).
	// A split group's shard is scattered back, one result per name.
	Tests map[string][]service.RunResult
	// Timeline is the cross-node span tree: the coordinator's own
	// dispatch span with each shard's span — its attempts, their
	// codec.decode and transfer stages, and beneath it the worker-side
	// job profile fetched from GET /jobs/{id}/profile — grafted in.
	// Render with obs.WriteFlameProfile; worker subtrees carry node and
	// run tags.
	Timeline *obs.SpanProfile
}

// Coordinator dispatches shards across the fleet. Create with New;
// node health (breaker state, counters) persists across Run calls.
type Coordinator struct {
	cfg     Config
	nodes   []*node
	metrics *obs.Registry
	fed     *obs.Federation
}

// New validates the config and prepares the fleet.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("coord: no nodes")
	}
	if cfg.Net == nil {
		return nil, errors.New("coord: no network replica")
	}
	cfg = cfg.withDefaults()
	co := &Coordinator{
		cfg:     cfg,
		metrics: obs.NewRegistry(),
		fed:     obs.NewFederation(cfg.FederationMaxAge),
	}
	registerCoordHelp(co.metrics)
	for _, base := range cfg.Nodes {
		co.nodes = append(co.nodes, &node{base: base, c: cfg.NewClient(base), loadSem: make(chan struct{}, 1)})
	}
	return co, nil
}

// NodeReports returns every node's current health accounting (the same
// rows Result.Nodes carries at the end of a run) — what the
// coordinator's own /stats serves mid-run.
func (co *Coordinator) NodeReports() []NodeReport {
	out := make([]NodeReport, 0, len(co.nodes))
	for _, n := range co.nodes {
		out = append(out, n.report())
	}
	return out
}

// run is the state one Run call shares across its shards.
type run struct {
	id string
	// fingerprint identifies Config.Net: what a node's GET /network must
	// answer for the push to be skipped, and what every arena fragment
	// must carry to be merged.
	fingerprint string
	// netJSON encodes Config.Net for PUT /network — at most once per run,
	// and only if some node turns out to need the push. The network is
	// encoded once per run, by the fingerprint: a frozen network keeps
	// its encoding, so these bytes are a copy of it.
	netJSON func() ([]byte, error)
	// merges hands fetched fragments to the merger goroutine.
	merges            chan func(*engine.Engine)
	pushes, pushSkips atomic.Int64
}

// shardRun is a ShardStatus plus the shard's observability state: the
// coordinator-side span and the worker-side profile fetched from the
// winning node.
type shardRun struct {
	ShardStatus
	// names are the suite names the shard runs, Suite joined.
	names   []string
	run     *run
	results []service.RunResult
	span    *obs.Span
	// workerProfile is the winning job's span profile (nil when the
	// fetch failed or decoded malformed — best-effort by design).
	workerProfile *obs.SpanProfile
}

// shardID is the shard's wire identity within its run (the X-Shard-Id
// header value).
func (sh *shardRun) shardID() string { return fmt.Sprintf("s%d", sh.ID) }

// Run partitions the suites into shards, dispatches them across the
// fleet, and merges the fragments as they arrive. The error return
// covers only setup problems and context cancellation; fleet failures
// degrade into the Result (Complete false, per-shard errors). A
// cancelled run returns its error together with the partial Result —
// whatever had merged, and the timeline saying where the time went.
func (co *Coordinator) Run(ctx context.Context, suites ...string) (*Result, error) {
	if len(suites) == 0 {
		return nil, errors.New("coord: no suites")
	}
	// The run's engine: Config.Net, its fingerprint, and the trace the
	// fragments merge into.
	eng := engine.New(co.cfg.Net, engine.Config{})
	// Every run gets a minted identity. The run ID rides on each
	// dispatch as X-Run-Id (workers tag their span trees, logs, and
	// pprof labels with it), and the root span anchors the coordinator's
	// half of the cross-node timeline.
	r := &run{
		id:          newRunID(),
		fingerprint: eng.Fingerprint(),
		netJSON: sync.OnceValues(func() ([]byte, error) {
			var buf bytes.Buffer
			err := co.cfg.Net.EncodeJSON(&buf)
			return buf.Bytes(), err
		}),
		merges: make(chan func(*engine.Engine)),
	}
	root := obs.NewRoot("coord.run", co.metrics)
	root.SetTag("run", r.id)
	root.Set("suites", int64(len(suites)))
	defer root.End()
	co.cfg.Logger.Info("coord: run starting", "run", r.id, "suites", suites, "rounds", co.cfg.Rounds)

	perRound := partition(suites)
	shards := make([]*shardRun, 0, len(perRound)*co.cfg.Rounds)
	for round := 0; round < co.cfg.Rounds; round++ {
		for _, names := range perRound {
			shards = append(shards, &shardRun{
				ShardStatus: ShardStatus{ID: len(shards), Suite: strings.Join(names, ","), Round: round},
				names:       names,
				run:         r,
			})
		}
	}
	root.Set("shards", int64(len(shards)))
	// What a node held at the end of the last run says nothing about now.
	for _, n := range co.nodes {
		n.loaded.Store(false)
	}

	// The merger owns the engine — and with it the coordinator's BDD
	// space — for the whole run; dispatch workers only move bytes. It
	// stops after the last dispatch worker has: every attempt runs on its
	// shard's goroutine, so nothing sends after the close.
	// Fragments are merged one at a time — decode and union are both
	// work for the single-threaded manager — in arrival order, which does
	// not affect the union (it is commutative), only node numbering.
	mergerDone := make(chan struct{})
	go func() {
		defer close(mergerDone)
		for merge := range r.merges {
			merge(eng)
		}
	}()

	// Dispatch: a fixed worker pool pulls shards off a channel.
	dsp := root.Child("coord.dispatch")
	feed := make(chan *shardRun)
	var wg sync.WaitGroup
	for i := 0; i < co.cfg.Concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sh := range feed {
				co.runShard(ctx, sh)
			}
		}()
	}
	for _, sh := range shards {
		feed <- sh
	}
	close(feed)
	wg.Wait()
	close(r.merges)
	<-mergerDone
	dsp.End()
	root.End()

	res := co.collect(r, shards, eng.Trace())
	res.Timeline = assembleTimeline(root, shards)
	if err := ctx.Err(); err != nil {
		res.Complete = false
		return res, fmt.Errorf("coord: run cancelled: %w", err)
	}
	return res, nil
}

// partition is one round's shard list, a pure function of the suite
// names. The names that resolve to one test in the split group
// (testkit.Suite.SplitTogether, the rule the in-process sharded engine
// splits by) form one shard, first because it is the longest; every
// other name, an unknown one included, is a shard of its own, so its
// error surfaces as the worker reports it.
func partition(suites []string) [][]string {
	tests := make(testkit.Suite, len(suites))
	for i, name := range suites {
		if s, err := testkit.BuiltinSuite(name); err == nil && len(s) == 1 {
			tests[i] = s[0]
		}
	}
	var group []string
	var rest [][]string
	for i, split := range tests.SplitTogether() {
		if split {
			group = append(group, suites[i])
		} else {
			rest = append(rest, suites[i:i+1])
		}
	}
	if group == nil {
		return rest
	}
	return append([][]string{group}, rest...)
}

// assembleTimeline stitches the run's cross-node span tree: the run
// root's own profile, with each shard's span — carrying the worker-side
// job profile beneath it — grafted under the dispatch stage. Assembly
// happens at the profile level because the worker half arrives as an
// imported SpanProfile, not a live span.
func assembleTimeline(root *obs.Span, shards []*shardRun) *obs.SpanProfile {
	tl := root.Profile()
	var dispatch *obs.SpanProfile
	for _, c := range tl.Children {
		if c.Name == "coord.dispatch" {
			dispatch = c
		}
	}
	if dispatch == nil { // cannot happen; guard keeps the graft total
		dispatch = tl
	}
	for _, sh := range shards {
		p := sh.span.Profile()
		p.Attach(sh.workerProfile)
		dispatch.Attach(p)
	}
	return tl
}

// merge has the merger goroutine decode raw and fold it into the run's
// trace, and waits for the verdict. The fragment is one guarded stage of
// the engine, its codec.decode and transfer spans under span: a damaged
// body fails the fragment, not the process, and is rejected before it
// touches the manager. No context is watched, so nothing aborts a merge:
// the merger outlives every attempt and each merge is milliseconds of
// work, so neither side can be left waiting.
func (r *run) merge(raw []byte, span *obs.Span) (t engine.MergeTiming, err error) {
	done := make(chan struct{})
	r.merges <- func(eng *engine.Engine) {
		defer close(done)
		t, err = eng.Merge(obs.ContextWithSpan(context.Background(), span), raw)
	}
	<-done
	return t, err
}

// collect assembles the Result once every shard has settled and the
// merger has stopped.
func (co *Coordinator) collect(r *run, shards []*shardRun, merged *core.Trace) *Result {
	res := &Result{RunID: r.id, Complete: true, Trace: merged, Tests: map[string][]service.RunResult{}}
	for _, sh := range shards {
		if sh.Done {
			for i, name := range sh.names {
				// A group's names are one test each, in its job's order.
				rr := sh.results
				if len(sh.names) > 1 {
					rr = nil
					if i < len(sh.results) {
						rr = sh.results[i : i+1]
					}
				}
				if _, ok := res.Tests[name]; !ok && rr != nil {
					res.Tests[name] = rr
				}
			}
			res.Totals.FragmentBytes += int64(sh.FragmentBytes)
			res.Totals.FetchMs += sh.FetchMs
			res.Totals.DecodeMs += sh.DecodeMs
			res.Totals.MergeMs += sh.MergeMs
		} else {
			res.Complete = false
		}
		res.Shards = append(res.Shards, sh.ShardStatus)
	}
	res.Totals.NetworkPushes = int(r.pushes.Load())
	res.Totals.NetworkPushSkipped = int(r.pushSkips.Load())
	res.Nodes = co.NodeReports()
	return res
}

// runShard drives one shard to completion or to attempt exhaustion.
func (co *Coordinator) runShard(ctx context.Context, sh *shardRun) {
	// The shard span is its own root, not a child of the run root: the
	// timeline grafts it (plus the fetched worker profile) in at the
	// profile level (assembleTimeline), and keeping it out of the live
	// tree keeps concurrent shard spans from contending on one parent.
	// Ended with End, not EndStage — per-shard latency goes to the
	// suite-labelled histogram instead of exploding the shared stage
	// histogram's name space.
	sh.span = obs.NewRoot("coord.shard", co.metrics)
	sh.span.SetTag("run", sh.run.id)
	sh.span.SetTag("shard", sh.shardID())
	sh.span.SetTag("suite", sh.Suite)
	start := time.Now()
	defer func() {
		sh.span.Set("attempts", int64(sh.Attempts))
		if sh.Node != "" {
			sh.span.SetTag("node", sh.Node)
		}
		sh.span.End()
		if sh.Done {
			co.metrics.Histogram(MetricShardDuration, obs.DefBuckets, "suite", sh.Suite).
				ObserveSince(start)
		}
	}()
	// Run context rides to the worker on headers, on every request of
	// every attempt: submit, polls, artifact fetches.
	ctx = client.ContextWithHeader(ctx, service.HeaderRunID, sh.run.id)
	ctx = client.ContextWithHeader(ctx, service.HeaderShardID, sh.shardID())

	var lastErr error
	var lastNode *node
	for attempt := 1; attempt <= co.cfg.MaxAttempts; attempt++ {
		if ctx.Err() != nil {
			lastErr = ctx.Err()
			break
		}
		sh.Attempts = attempt
		if attempt > 1 {
			co.metrics.Counter(MetricRedispatch).Inc()
		}
		// Prefer a node other than the one that just failed this shard
		// (a one-node fleet retries in place).
		n := co.waitForNode(ctx, lastNode)
		if n == nil {
			lastErr = errors.New("no healthy node")
			co.cfg.Logger.Warn("coord: no healthy node for shard",
				"shard", sh.ID, "suite", sh.Suite, "attempt", attempt)
			continue
		}
		err := co.dispatch(ctx, sh, n)
		if err == nil {
			sh.Done = true
			sh.Error = ""
			return
		}
		lastErr = err
		lastNode = n
		co.cfg.Logger.Warn("coord: shard attempt failed",
			"shard", sh.ID, "suite", sh.Suite, "node", n.base, "attempt", attempt, "err", err)
		co.backoff(ctx, attempt, err)
	}
	if lastErr != nil {
		sh.Error = lastErr.Error()
	}
}

// waitForNode claims a node for a shard, preferring any node but avoid
// (the one that just failed it): another node if one can be claimed now,
// else avoid itself if it can. Only when no node can be claimed does it
// wait — bounded by the cooldown plus slack, so a dead fleet degrades
// instead of hanging.
func (co *Coordinator) waitForNode(ctx context.Context, avoid *node) *node {
	deadline := time.Now().Add(co.cfg.Cooldown + co.cfg.Backoff + 50*time.Millisecond)
	for {
		n := co.claim(avoid)
		if n == nil && avoid != nil {
			n = co.claim(nil)
		}
		if n != nil {
			return n
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return nil
		}
		co.metrics.Counter(MetricNodeWaits).Inc()
		t := time.NewTimer(10 * time.Millisecond)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}
}

// claim claims a node other than exclude without waiting, or returns
// nil. A tripped node whose cooldown has elapsed takes priority as a
// half-open probe — the probe IS a real shard dispatch, and it must
// outrank the healthy nodes, or a fleet with any capacity left would
// never re-admit a recovered node. Otherwise the closed node with the
// least in-flight work wins.
func (co *Coordinator) claim(exclude *node) *node {
	var best *node
	now := time.Now()
	for _, n := range co.nodes {
		if n != exclude && n.claimProbe(now, co.cfg.Cooldown) {
			co.cfg.Logger.Info("coord: probing node", "node", n.base)
			best = n
			break
		}
	}
	if best == nil {
		for _, n := range co.nodes {
			if n == exclude || n.stateNow() != stClosed {
				continue
			}
			if best == nil || n.inflightNow() < best.inflightNow() {
				best = n
			}
		}
	}
	if best != nil {
		best.acquire()
	}
	return best
}

// dispatch runs one attempt of a shard on a claimed node, bounded by
// ShardTimeout, then judges the node by the outcome and releases the
// claim. A straggler's attempt times out, counts as the node's failure,
// and runShard re-dispatches the shard, preferring another node.
func (co *Coordinator) dispatch(ctx context.Context, sh *shardRun, n *node) error {
	actx, cancel := context.WithTimeout(ctx, co.cfg.ShardTimeout)
	defer cancel()
	asp := sh.span.Child("coord.attempt")
	asp.SetTag("node", n.base)
	out, err := co.attemptOn(actx, sh, n, asp)
	verdict := "success"
	switch {
	case err == nil:
		n.onSuccess()
	case ctx.Err() != nil:
		// The run's context ended, which says nothing about the node.
		verdict = "neutral"
		n.onNeutral()
	default:
		if _, shed := client.IsShed(err); shed {
			verdict = "shed"
			n.onShed()
		} else {
			verdict = "failure"
			if n.onFailure(time.Now(), co.cfg.FailureThreshold) {
				co.cfg.Logger.Warn("coord: breaker tripped", "node", n.base)
			}
		}
	}
	co.metrics.Counter(MetricDispatch, "node", n.base, "outcome", verdict).Inc()
	asp.SetTag("outcome", verdict)
	asp.End()
	n.release()
	if err != nil {
		return fmt.Errorf("node %s: %w", n.base, err)
	}
	sh.Node = n.base
	sh.results = out.results
	sh.workerProfile = out.profile
	sh.Fragment = out.Fragment
	return nil
}

// shardOut is one successful attempt's collected payload.
type shardOut struct {
	Fragment
	results []service.RunResult
	// profile is the job's worker-side span profile (nil when
	// unavailable — its fetch is best-effort).
	profile *obs.SpanProfile
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// attemptOn runs a shard once on one node: ensure the network is
// loaded, submit, poll to terminal unless the submit answered a finished
// job, download the fragment, and see it
// through the merger. A lost response after the job actually ran leaves
// a duplicate execution behind on retry — safe, merge is idempotent — so
// no cleanup pass is needed. A worker that restarted fails its jobs for
// want of a network, and one handed a different network returns
// fragments the merger rejects (core.ErrSnapshotMismatch); either way
// the failure makes the node's next attempt re-read GET /network
// (node.onFailure), which tells both apart from a healthy node without
// parsing anyone's error text.
func (co *Coordinator) attemptOn(ctx context.Context, sh *shardRun, n *node, asp *obs.Span) (shardOut, error) {
	var out shardOut
	r := sh.run
	if err := co.ensureLoaded(ctx, r, n); err != nil {
		return out, fmt.Errorf("load network: %w", err)
	}
	j, err := n.c.SubmitJob(ctx, sh.names...)
	if err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	// The submit answers with a job that finished within the server's
	// hold; only a longer one is polled. WaitJob returns a zero status
	// on error; the submitted ID names the job in that error.
	if id := j.ID; !j.State.Terminal() {
		if j, err = n.c.WaitJob(ctx, id, co.cfg.Poll); err != nil {
			return out, fmt.Errorf("wait job %s: %w", id, err)
		}
	}
	if j.State != jobs.StateDone {
		return out, fmt.Errorf("job %s %s: %s", j.ID, j.State, j.Error)
	}
	t0 := time.Now()
	raw, err := n.c.JobTraceRaw(ctx, j.ID)
	if err != nil {
		// 410 Gone (artifact lost to a restart) lands here: the retry
		// re-runs the shard, which regenerates the fragment.
		return out, fmt.Errorf("fetch trace %s: %w", j.ID, err)
	}
	out.FetchMs = ms(time.Since(t0))
	out.FragmentBytes = len(raw)
	co.metrics.Counter(MetricFragmentBytes).Add(uint64(len(raw)))
	// Only an arena carries the fingerprint the merge checks against the
	// run's network; cube JSON would merge into whatever network it meets.
	if !core.IsSnapshotArena(raw) {
		return out, fmt.Errorf("fragment of job %s: body is not a YSS1 arena", j.ID)
	}
	// A fragment that does not decode and merge is a failed attempt: its
	// coverage is unknown, so the shard cannot claim it.
	took, err := r.merge(raw, asp)
	if err != nil {
		return out, fmt.Errorf("fragment of job %s: %w", j.ID, err)
	}
	out.DecodeMs, out.MergeMs = ms(took.Decode), ms(took.Merge)
	if len(j.Result) > 0 {
		if uerr := json.Unmarshal(j.Result, &out.results); uerr != nil {
			return out, fmt.Errorf("decode job %s result: %w", j.ID, uerr)
		}
	}
	// The worker-side span profile is observability, not coverage: its
	// fetch is best-effort and can never fail the shard. Malformed bytes
	// are counted and dropped — obs.DecodeSpanProfile guarantees no
	// input panics the coordinator.
	if praw, perr := n.c.JobProfileRaw(ctx, j.ID); perr != nil {
		co.metrics.Counter(MetricProfileFetchFailures).Inc()
		co.cfg.Logger.Info("coord: job profile unavailable", "node", n.base, "job", j.ID, "err", perr)
	} else if out.profile, perr = obs.DecodeSpanProfile(praw); perr != nil {
		co.metrics.Counter(MetricProfileDecodeFailures).Inc()
		co.cfg.Logger.Warn("coord: job profile malformed", "node", n.base, "job", j.ID, "err", perr)
	}
	return out, nil
}

// ensureLoaded makes sure a node holds the run's network before it is
// given a shard, serialized per node: GET /network, and a PUT only when
// the node answers a different fingerprint or 404 (nothing loaded).
func (co *Coordinator) ensureLoaded(ctx context.Context, r *run, n *node) error {
	select {
	case n.loadSem <- struct{}{}:
		defer func() { <-n.loadSem }()
	case <-ctx.Done():
		return ctx.Err()
	}
	if n.loaded.Load() {
		return nil
	}
	st, err := n.c.NetworkStats(ctx)
	var ae *client.APIError
	switch {
	case err == nil && st.Fingerprint == r.fingerprint:
		r.pushSkips.Add(1)
		co.metrics.Counter(MetricNetworkPush, "outcome", "skipped").Inc()
	case err == nil || errors.As(err, &ae) && ae.StatusCode == http.StatusNotFound:
		netJSON, err := r.netJSON()
		if err != nil {
			return err
		}
		if st, err = n.c.LoadNetworkJSON(ctx, netJSON); err != nil {
			return err
		}
		if st.Fingerprint != r.fingerprint {
			return fmt.Errorf("node rebuilt the network as %.12s, coordinator holds %.12s", st.Fingerprint, r.fingerprint)
		}
		r.pushes.Add(1)
		co.metrics.Counter(MetricNetworkPush, "outcome", "pushed").Inc()
	default:
		return err
	}
	n.loaded.Store(true)
	return nil
}

// backoff sleeps backoffDelay between a shard's attempts, or until ctx
// is done.
func (co *Coordinator) backoff(ctx context.Context, attempt int, err error) {
	t := time.NewTimer(co.backoffDelay(attempt, err))
	select {
	case <-t.C:
	case <-ctx.Done():
		t.Stop()
	}
}

// backoffDelay is the wait after a shard's attempt: jitteredBackoff from
// Config.Backoff, capped at 2s, and stretched to any server Retry-After
// hint carried by a shed (up to 5s). This is where the fleet honors the
// hint; the client only decodes it.
func (co *Coordinator) backoffDelay(attempt int, err error) time.Duration {
	d := jitteredBackoff(co.cfg.Backoff, 2*time.Second, attempt)
	if hint, shed := client.IsShed(err); shed && hint > d {
		d = min(hint, 5*time.Second)
	}
	return d
}

// jitteredBackoff is the wait after attempt n (n >= 1): base·2ⁿ⁻¹,
// capped at limit, with equal jitter — half of it fixed and half
// uniformly random, so shards that failed together do not retry in
// lockstep. An attempt late enough to shift past the int64 range waits
// the cap.
func jitteredBackoff(base, limit time.Duration, n int) time.Duration {
	d := base << (n - 1)
	if d <= 0 || d > limit { // <= 0 guards shift overflow
		d = limit
	}
	return d/2 + rand.N(d/2+1)
}
