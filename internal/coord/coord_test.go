package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"yardstick/internal/client"
	"yardstick/internal/core"
	"yardstick/internal/faults"
	"yardstick/internal/netmodel"
	"yardstick/internal/service"
	"yardstick/internal/testkit"
	"yardstick/internal/topogen"
)

func newSeededRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

func quiet() service.Option {
	return service.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
}

// replica builds the deterministic network every party holds: the
// coordinator's merge space, the single-node baseline, and (via
// PUT /network round-trip) each worker's copy.
func replica(t *testing.T) *netmodel.Network {
	t.Helper()
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rg.Net
}

// startWorker boots one yardstickd-shaped worker: empty server (the
// coordinator pushes the network), live job pool.
func startWorker(t *testing.T) *httptest.Server { return startWorkerWith(t, nil) }

// startWorkerWith boots a worker preloaded with net (nil: empty).
func startWorkerWith(t *testing.T, net *netmodel.Network) *httptest.Server {
	t.Helper()
	srv := service.New(quiet())
	if net != nil {
		srv = service.WithNetwork(net, quiet())
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv.RunJobs(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return ts
}

// fleet boots n workers and returns their base URLs plus one chaos
// transport per node (zero-valued: no faults until a test arms them).
func fleet(t *testing.T, n int) ([]string, map[string]*faults.ChaosTransport) {
	t.Helper()
	bases := make([]string, 0, n)
	chaos := make(map[string]*faults.ChaosTransport, n)
	for i := 0; i < n; i++ {
		ts := startWorker(t)
		bases = append(bases, ts.URL)
		chaos[ts.URL] = &faults.ChaosTransport{}
	}
	return bases, chaos
}

// fastCfg is a test-speed coordinator config over the fleet, routing
// every node's client through its chaos transport.
func fastCfg(nodes []string, chaos map[string]*faults.ChaosTransport, rep *netmodel.Network) Config {
	return Config{
		Nodes: nodes,
		Net:   rep,
		NewClient: func(base string) *client.Client {
			return client.New(base, client.WithHTTPClient(&http.Client{Transport: chaos[base]}))
		},
		Poll:             2 * time.Millisecond,
		ShardTimeout:     10 * time.Second,
		Backoff:          2 * time.Millisecond,
		MaxAttempts:      3,
		FailureThreshold: 2,
		Cooldown:         30 * time.Millisecond,
	}
}

// baseline runs the suites once, sequentially, in-process, against the
// same replica the coordinator merges into — the single-node ground
// truth the distributed run must reproduce exactly.
func baseline(t *testing.T, rep *netmodel.Network, suites []string) *core.Trace {
	t.Helper()
	suite, err := testkit.BuiltinSuite(strings.Join(suites, ","))
	if err != nil {
		t.Fatal(err)
	}
	tr := core.NewTrace()
	suite.Run(context.Background(), rep, tr)
	return tr
}

// requireIdentical asserts the distributed trace is bit-identical to
// the single-node baseline: same marked rules, same packet set (same
// canonical BDD node) at every location.
func requireIdentical(t *testing.T, got, want *core.Trace) {
	t.Helper()
	if gs, ws := got.Stats(), want.Stats(); gs != ws {
		t.Fatalf("merged trace stats %+v != baseline %+v", gs, ws)
	}
	if !got.Equal(want) {
		t.Fatal("merged trace differs from the single-node baseline")
	}
}

// TestClusterMatchesSingleNode: the happy path over 3 nodes — with
// repeated rounds, so shards of the same suite land on multiple nodes —
// merges to exactly the single-node sequential trace.
func TestClusterMatchesSingleNode(t *testing.T) {
	rep := replica(t)
	nodes, chaos := fleet(t, 3)
	suites := []string{"default", "connected", "internal", "agg", "contract", "host"}

	cfg := fastCfg(nodes, chaos, rep)
	cfg.Rounds = 2
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(context.Background(), suites...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Complete {
		t.Fatalf("run incomplete: %+v", res.Shards)
	}
	if len(res.Shards) != len(suites)*2 {
		t.Fatalf("shards = %d, want %d", len(res.Shards), len(suites)*2)
	}
	for _, sh := range res.Shards {
		if !sh.Done || sh.Node == "" {
			t.Fatalf("shard not done: %+v", sh)
		}
	}
	for _, s := range suites {
		rr, ok := res.Tests[s]
		if !ok || len(rr) == 0 {
			t.Fatalf("no test results for suite %s", s)
		}
		for _, r := range rr {
			if !r.Pass {
				t.Fatalf("suite %s test %s failed: %+v", s, r.Name, r)
			}
		}
	}
	total := 0
	for _, nr := range res.Nodes {
		total += nr.Succeeded
	}
	if total != len(res.Shards) {
		t.Fatalf("node successes = %d, want %d", total, len(res.Shards))
	}
	requireIdentical(t, res.Trace, baseline(t, rep, suites))
}

// crashAfterSubmits crashes the chaos transport permanently once the
// node has accepted `after` job submissions — a worker SIGKILLed midway
// through the run, deterministically.
type crashAfterSubmits struct {
	ct    *faults.ChaosTransport
	seen  atomic.Int32
	after int32
}

func (c *crashAfterSubmits) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/jobs") &&
		c.seen.Add(1) == c.after {
		c.ct.Crash()
	}
	return c.ct.RoundTrip(r)
}

// TestKillWorkerMidRun is the tentpole assertion: a 3-node cluster
// where one worker dies after completing real work still finishes the
// run — failed and orphaned shards re-dispatch to the survivors — and
// the merged coverage is bit-identical to the single-node baseline,
// because re-running shards merges by idempotent union.
func TestKillWorkerMidRun(t *testing.T) {
	rep := replica(t)
	nodes, chaos := fleet(t, 3)
	suites := []string{"default", "internal", "contract"}

	// The doomed node dies as it accepts its 3rd job: it has done real
	// work (fragments already collected from it) and still owes work
	// (the accepted job's fragment can never be fetched).
	doomed := nodes[1]
	killer := &crashAfterSubmits{ct: chaos[doomed], after: 3}

	cfg := fastCfg(nodes, chaos, rep)
	// 24 shards over 3 nodes: enough that the doomed node is certain to
	// be offered its third job (at 12, about one run in 150 finished
	// without it).
	cfg.Rounds = 8
	// Threshold 1: the breaker counts *consecutive* failures, and the
	// doomed node can have two shards in flight at crash time whose
	// completions interleave success/failure — tripping on the first
	// failure keeps the "kill was observed" assertion deterministic.
	cfg.FailureThreshold = 1
	cfg.NewClient = func(base string) *client.Client {
		var rt http.RoundTripper = chaos[base]
		if base == doomed {
			rt = killer
		}
		return client.New(base, client.WithHTTPClient(&http.Client{Transport: rt}))
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(context.Background(), suites...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Complete {
		t.Fatalf("run incomplete after single-node kill: %+v", res.Shards)
	}
	var dead NodeReport
	for _, nr := range res.Nodes {
		if nr.Node == doomed {
			dead = nr
		}
	}
	if dead.Failed == 0 {
		t.Fatalf("killed node reports no failures: %+v", dead)
	}
	// Trips, not the final state: an attempt that had its fragment in
	// hand when the node died can report success after the failure that
	// tripped the breaker, and a success closes it.
	if dead.Trips == 0 {
		t.Fatalf("killed node's breaker never tripped: %+v", dead)
	}
	// Survivors absorbed everything: every shard is done, and the union
	// is exact despite retries, re-dispatch, and duplicate execution.
	requireIdentical(t, res.Trace, baseline(t, rep, suites))
}

// TestHungNodeRedispatch: a node that black-holes every request
// (accepts connections, never answers) costs each shard sent to it one
// ShardTimeout. The attempt times out, counts as that node's failure —
// not a neutral verdict: the run is still going — and the shard is
// re-dispatched to the healthy node. The run's length is counted, not
// timed: no shard went to the hung node twice or waited for a node, so
// the run took at most one ShardTimeout per shard beyond its work.
func TestHungNodeRedispatch(t *testing.T) {
	rep := replica(t)
	nodes, chaos := fleet(t, 2)
	suites := []string{"default", "internal"}

	// Node 0 hangs everything; chaos hangs resolve when the request
	// context ends, which ShardTimeout forces.
	chaos[nodes[0]].PHang = 1
	chaos[nodes[0]].Rand = newSeededRand()

	cfg := fastCfg(nodes, chaos, rep)
	cfg.ShardTimeout = 200 * time.Millisecond
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(context.Background(), suites...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Complete {
		t.Fatalf("run incomplete: %+v", res.Shards)
	}
	for _, sh := range res.Shards {
		if sh.Node == nodes[0] {
			t.Fatalf("shard credited to the black-holed node: %+v", sh)
		}
		if sh.Attempts > 2 {
			t.Errorf("shard %+v took %d attempts, want at most one timeout and one success", sh, sh.Attempts)
		}
	}
	if hung := res.Nodes[0]; hung.Dispatched > len(res.Shards) {
		t.Errorf("hung node was dispatched %d attempts for %d shards, want one timeout per shard at most", hung.Dispatched, len(res.Shards))
	}
	if got := co.metrics.Counter(MetricNodeWaits).Value(); got != 0 {
		t.Errorf("shards waited %d times for a node, want none: the healthy node was always free", got)
	}
	if got := co.metrics.Counter(MetricDispatch, "node", nodes[0], "outcome", "neutral").Value(); got != 0 {
		t.Errorf("hung node has %d neutral dispatches, want none", got)
	}
	if got := co.metrics.Counter(MetricDispatch, "node", nodes[0], "outcome", "failure").Value(); got == 0 {
		t.Error("hung node's timed-out dispatches were not counted as failures")
	}
	requireIdentical(t, res.Trace, baseline(t, rep, suites))
}

// serverError is a worker's 500 answer to r, carrying msg.
func serverError(r *http.Request, msg string) *http.Response {
	return &http.Response{
		Status: "500 Internal Server Error", StatusCode: http.StatusInternalServerError,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:  http.Header{"Content-Type": {"application/json"}},
		Body:    io.NopCloser(strings.NewReader(`{"error":"` + msg + `"}`)),
		Request: r,
	}
}

// failFirstSubmit answers the first job submission with a 500 and
// passes every other request through.
type failFirstSubmit struct{ seen atomic.Int32 }

func (f *failFirstSubmit) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost && r.URL.Path == "/jobs" && f.seen.Add(1) == 1 {
		return serverError(r, "submit failed"), nil
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestOneNodeRetryDoesNotWait: in a one-node fleet the node that failed
// a shard is the only one that can take its retry. Preferring another
// node must not mean waiting for one that cannot appear: with the
// default cooldown and backoff the retry starts after its backoff, not
// after the ~2 s a blocking preference would idle first. The waits are
// counted, not timed: the retry claims the node without one.
func TestOneNodeRetryDoesNotWait(t *testing.T) {
	rep := replica(t)
	ts := startWorker(t)
	co, err := New(Config{
		Nodes: []string{ts.URL},
		Net:   rep,
		NewClient: func(base string) *client.Client {
			return client.New(base, client.WithHTTPClient(&http.Client{Transport: &failFirstSubmit{}}))
		},
		Poll: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(context.Background(), "default")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Complete || res.Shards[0].Attempts != 2 {
		t.Fatalf("shards = %+v, want one complete shard after 2 attempts", res.Shards)
	}
	if got := co.metrics.Counter(MetricNodeWaits).Value(); got != 0 {
		t.Fatalf("the retry waited %d × 10 ms for a node other than the only one", got)
	}
}

// TestAllNodesDownDegrades: with every node dead the run neither errors
// nor hangs — it returns an explicit partial result naming each shard's
// failure, the degradation ladder's last rung.
func TestAllNodesDownDegrades(t *testing.T) {
	rep := replica(t)
	nodes, chaos := fleet(t, 2)
	for _, ct := range chaos {
		ct.Crash()
	}

	cfg := fastCfg(nodes, chaos, rep)
	cfg.MaxAttempts = 2
	cfg.Cooldown = 15 * time.Millisecond
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(context.Background(), "default", "internal")
	if err != nil {
		t.Fatalf("Run on a dead fleet must degrade, not error: %v", err)
	}
	if res.Complete {
		t.Fatal("run claims completeness with every node dead")
	}
	for _, sh := range res.Shards {
		if sh.Done || sh.Error == "" {
			t.Fatalf("shard on a dead fleet = %+v, want failed with a reason", sh)
		}
	}
	if st := res.Trace.Stats(); st.Locations != 0 || st.MarkedRules != 0 {
		t.Fatalf("dead fleet produced coverage: %+v", st)
	}
	tripped := 0
	for _, nr := range res.Nodes {
		if nr.Trips > 0 {
			tripped++
		}
	}
	if tripped == 0 {
		t.Fatalf("no breaker tripped on a dead fleet: %+v", res.Nodes)
	}
}

// TestBreakerRecovery: a node dead at the start of the run trips its
// breaker, then revives mid-run; the half-open probe re-admits it and
// it finishes real shards. Node state persists on the Coordinator, so
// one run is enough to observe trip → cooldown → probe → closed.
func TestBreakerRecovery(t *testing.T) {
	rep := replica(t)
	nodes, chaos := fleet(t, 2)
	flaky := nodes[1]
	chaos[flaky].Crash()

	cfg := fastCfg(nodes, chaos, rep)
	cfg.FailureThreshold = 1
	cfg.Cooldown = 10 * time.Millisecond
	cfg.Rounds = 300
	cfg.Concurrency = 2
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Revive once the breaker has tripped — on the event, not on a timer
	// that a slow start (the race detector, a loaded host) can outrun.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			for _, nr := range co.NodeReports() {
				if nr.Node == flaky && nr.Trips > 0 {
					chaos[flaky].Revive()
					return
				}
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	res, err := co.Run(context.Background(), "default")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Complete {
		t.Fatalf("run incomplete: %+v", res.Shards)
	}
	var fr NodeReport
	for _, nr := range res.Nodes {
		if nr.Node == flaky {
			fr = nr
		}
	}
	if fr.Trips == 0 {
		t.Fatalf("flaky node never tripped: %+v", fr)
	}
	if fr.Succeeded == 0 {
		t.Fatalf("flaky node was never re-admitted after reviving: %+v", fr)
	}
	if fr.State != "closed" {
		t.Fatalf("flaky node's breaker = %s after recovery, want closed", fr.State)
	}
	requireIdentical(t, res.Trace, baseline(t, rep, []string{"default"}))
}

// TestBackoffDelayLateAttempts: at the default 100 ms base, attempt 38
// shifts past the int64 range and attempt 64 shifts to zero. Every
// late attempt must wait the capped delay (with equal jitter), not
// panic or skip the wait. A shed's Retry-After hint stretches the wait:
// used as given below the 5 s cap, capped above it, and ignored on an
// error that is not a shed.
func TestBackoffDelayLateAttempts(t *testing.T) {
	co := &Coordinator{cfg: Config{}.withDefaults()}
	const max = 2 * time.Second
	for _, attempt := range []int{37, 38, 40, 64, 65} {
		for i := 0; i < 20; i++ {
			if d := co.backoffDelay(attempt, nil); d < max/2 || d > max {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, max/2, max)
			}
		}
	}
	for _, c := range []struct {
		err      *client.APIError
		min, max time.Duration
	}{
		{&client.APIError{StatusCode: http.StatusServiceUnavailable, RetryAfter: 3 * time.Second}, 3 * time.Second, 3 * time.Second},
		{&client.APIError{StatusCode: http.StatusTooManyRequests, RetryAfter: time.Hour}, 5 * time.Second, 5 * time.Second},
		{&client.APIError{StatusCode: http.StatusInternalServerError, RetryAfter: 3 * time.Second}, 50 * time.Millisecond, 100 * time.Millisecond},
	} {
		if d := co.backoffDelay(1, c.err); d < c.min || d > c.max {
			t.Errorf("after %d with Retry-After %v: delay %v outside [%v, %v]", c.err.StatusCode, c.err.RetryAfter, d, c.min, c.max)
		}
	}
}

// TestJitteredBackoff: attempt n waits within [d/2, d] for d =
// base·2ⁿ⁻¹ capped at the limit. From attempt 38 the shift passes the
// int64 range (and from 64 it wraps to zero) at a 100 ms base; the cap
// must hold.
func TestJitteredBackoff(t *testing.T) {
	for _, c := range []struct {
		base, limit time.Duration
		attempt     int
		max         time.Duration
	}{
		{time.Millisecond, 50 * time.Millisecond, 1, time.Millisecond},
		{time.Millisecond, 50 * time.Millisecond, 3, 4 * time.Millisecond},
		{time.Millisecond, 50 * time.Millisecond, 7, 50 * time.Millisecond},
		{100 * time.Millisecond, 2 * time.Second, 38, 2 * time.Second},
		{100 * time.Millisecond, 2 * time.Second, 64, 2 * time.Second},
		{100 * time.Millisecond, 2 * time.Second, 65, 2 * time.Second},
	} {
		for range 20 {
			if got := jitteredBackoff(c.base, c.limit, c.attempt); got < c.max/2 || got > c.max {
				t.Fatalf("attempt %d: jitteredBackoff = %v, want in [%v, %v]", c.attempt, got, c.max/2, c.max)
			}
		}
	}
}

// failPolls answers every job poll (GET /jobs/{id}) with a 500 and
// records the ID of every job the worker accepted.
type failPolls struct {
	mu        sync.Mutex
	submitted []string
}

func (f *failPolls) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/jobs/") && strings.Count(r.URL.Path, "/") == 2 {
		return serverError(r, "poll failed"), nil
	}
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil || r.Method != http.MethodPost || r.URL.Path != "/jobs" {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var j service.JobStatus
	if json.Unmarshal(body, &j) == nil {
		f.mu.Lock()
		f.submitted = append(f.submitted, j.ID)
		f.mu.Unlock()
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// TestWaitFailureNamesJob: when polling a submitted job fails, the
// shard's error names that job — the ID the worker handed back on
// submit, not the empty ID of the zero status a failed poll returns.
func TestWaitFailureNamesJob(t *testing.T) {
	rep := replica(t)
	ts := startWorker(t)
	polls := &failPolls{}
	cfg := fastCfg([]string{ts.URL}, nil, rep)
	cfg.MaxAttempts = 1
	cfg.NewClient = func(base string) *client.Client {
		return client.New(base, client.WithHTTPClient(&http.Client{Transport: polls}))
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(context.Background(), "default")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Complete || len(polls.submitted) != 1 || polls.submitted[0] == "" {
		t.Fatalf("complete %v after submitting %q, want one submitted job and an incomplete run", res.Complete, polls.submitted)
	}
	if want := "wait job " + polls.submitted[0] + ":"; !strings.Contains(res.Shards[0].Error, want) {
		t.Fatalf("shard error = %q, want it to contain %q", res.Shards[0].Error, want)
	}
}

// blackholedFatTree is the differential matrix's fattree-blackholes
// shape: a k=4 fat-tree whose first and last ToR's hosted prefixes are
// null-routed on their pods' aggregation switches, so reach and pingmesh
// fail from every other source.
func blackholedFatTree(t *testing.T) *netmodel.Network {
	t.Helper()
	ft, err := topogen.BuildFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tor := range []netmodel.DeviceID{ft.ToRs[0], ft.ToRs[len(ft.ToRs)-1]} {
		for _, agg := range ft.Aggs {
			if ft.PodOf[agg] == ft.PodOf[tor] {
				r, _ := ft.Net.FIBRuleFor(agg, ft.HostPrefix[tor])
				ft.Net.SetAction(r.ID, netmodel.Action{Kind: netmodel.ActDrop})
			}
		}
	}
	return ft.Net
}

// jobPerName runs each suite name as a job of its own on one fresh
// worker: the results a fleet that gave every name its own shard
// collected.
func jobPerName(t *testing.T, rep *netmodel.Network, names []string) map[string][]service.RunResult {
	t.Helper()
	ctx := context.Background()
	c := client.New(startWorker(t).URL)
	var buf bytes.Buffer
	if err := rep.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadNetworkJSON(ctx, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	out := map[string][]service.RunResult{}
	for _, name := range names {
		j, err := c.SubmitJob(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if j, err = c.WaitJob(ctx, j.ID, 2*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		var rr []service.RunResult
		if err := json.Unmarshal(j.Result, &rr); err != nil {
			t.Fatalf("job %s (%s) result: %v", j.ID, name, err)
		}
		out[name] = rr
	}
	return out
}

func shardSuites(res *Result) []string {
	var out []string
	for _, sh := range res.Shards {
		out = append(out, sh.Suite)
	}
	return out
}

// TestSplittableSuitesShareAShard: reach and pingmesh run as one shard,
// first in each round, so the pings record into the fragment the floods
// from their sources have marked. Each name still gets its own results,
// equal to a job of its own, failures included, and the merged trace is
// the single-node one. A lone pingmesh is a shard of its own.
func TestSplittableSuitesShareAShard(t *testing.T) {
	rep := blackholedFatTree(t)
	nodes, chaos := fleet(t, 2)
	suites := []string{"default", "reach", "pingmesh"}
	cfg := fastCfg(nodes, chaos, rep)
	cfg.Rounds = 2
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(context.Background(), suites...)
	if err != nil || !res.Complete {
		t.Fatalf("Run: %v, shards %+v", err, res.Shards)
	}
	want := []string{"reach,pingmesh", "default", "reach,pingmesh", "default"}
	if got := shardSuites(res); !slices.Equal(got, want) {
		t.Fatalf("shard suites = %q, want %q", got, want)
	}
	single := jobPerName(t, rep, suites)
	for _, s := range suites {
		if !reflect.DeepEqual(res.Tests[s], single[s]) {
			t.Errorf("Tests[%s] = %+v, a job of its own gives %+v", s, res.Tests[s], single[s])
		}
	}
	for _, s := range []string{"reach", "pingmesh"} {
		if rr := single[s]; len(rr) != 1 || rr[0].Pass || len(rr[0].Failures) == 0 {
			t.Fatalf("%s on the blackholed fat-tree = %+v, want one failing result", s, rr)
		}
	}
	requireIdentical(t, res.Trace, baseline(t, rep, suites))

	lone := []string{"pingmesh", "default"}
	res, err = co.Run(context.Background(), lone...)
	if err != nil || !res.Complete {
		t.Fatalf("Run: %v, shards %+v", err, res.Shards)
	}
	want = []string{"pingmesh", "default", "pingmesh", "default"}
	if got := shardSuites(res); !slices.Equal(got, want) {
		t.Fatalf("shard suites = %q, want %q", got, want)
	}
	requireIdentical(t, res.Trace, baseline(t, rep, lone))
}

// TestPartition: the shard list is a pure function of the names. Names
// that resolve to one splittable test group only when there are two of
// them; an unknown name, an empty one and a name that resolves to two
// tests stay shards of their own.
func TestPartition(t *testing.T) {
	for _, c := range []struct {
		in   []string
		want [][]string
	}{
		{[]string{"default", "internal"}, [][]string{{"default"}, {"internal"}}},
		{[]string{"default", "reach", "pingmesh"}, [][]string{{"reach", "pingmesh"}, {"default"}}},
		{[]string{"pingmesh", "default"}, [][]string{{"pingmesh"}, {"default"}}},
		{[]string{"reach", "bogus", "", "pingmesh"}, [][]string{{"reach", "pingmesh"}, {"bogus"}, {""}}},
		{[]string{"reach,pingmesh", "pingmesh"}, [][]string{{"reach,pingmesh"}, {"pingmesh"}}},
		{
			[]string{"default", "connected", "internal", "agg", "contract", "reach", "pingmesh", "host"},
			[][]string{{"reach", "pingmesh"}, {"default"}, {"connected"}, {"internal"}, {"agg"}, {"contract"}, {"host"}},
		},
	} {
		if got := partition(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("partition(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
