package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"yardstick/internal/client"
	"yardstick/internal/faults"
	"yardstick/internal/obs"
	"yardstick/internal/promlint"
)

// shardProfiles collects the per-shard subtrees of a run timeline,
// keyed by their shard tag.
func shardProfiles(tl *obs.SpanProfile) map[string]*obs.SpanProfile {
	out := map[string]*obs.SpanProfile{}
	tl.Walk(func(_ int, sp *obs.SpanProfile) {
		if sp.Name == "coord.shard" {
			out[sp.Tag("shard")] = sp
		}
	})
	return out
}

// TestTimelineUnderWorkerKill is the cross-node tracing tentpole: a
// 3-node run where one worker is killed mid-run must still produce a
// timeline that covers every completed shard, each with its worker-side
// stage spans linked by the run ID — while the merged coverage stays
// bit-identical to the single-node baseline.
func TestTimelineUnderWorkerKill(t *testing.T) {
	rep := replica(t)
	nodes, chaos := fleet(t, 3)
	suites := []string{"default", "internal", "contract"}

	doomed := nodes[1]
	killer := &crashAfterSubmits{ct: chaos[doomed], after: 3}

	cfg := fastCfg(nodes, chaos, rep)
	cfg.Rounds = 4
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
		t.Fatalf("run incomplete: %+v", res.Shards)
	}
	if res.RunID == "" {
		t.Fatal("run has no run ID")
	}
	if res.Timeline == nil {
		t.Fatal("run has no timeline")
	}
	if res.Timeline.Tag("run") != res.RunID {
		t.Fatalf("timeline root run tag = %q, want %q", res.Timeline.Tag("run"), res.RunID)
	}

	byShard := shardProfiles(res.Timeline)
	for _, sh := range res.Shards {
		if !sh.Done {
			continue
		}
		id := "s" + strconv.Itoa(sh.ID)
		p, ok := byShard[id]
		if !ok {
			t.Fatalf("completed shard %s missing from the timeline", id)
		}
		if p.Tag("run") != res.RunID {
			t.Errorf("shard %s run tag = %q, want %q", id, p.Tag("run"), res.RunID)
		}
		if p.Tag("node") != sh.Node {
			t.Errorf("shard %s node tag = %q, want %q", id, p.Tag("node"), sh.Node)
		}
		// The worker half: a grafted service.job subtree carrying the SAME
		// run ID (propagated over X-Run-Id, round-tripped through the
		// worker's span tags) and its evaluation stage span.
		var job *obs.SpanProfile
		foundEval := false
		p.Walk(func(_ int, sp *obs.SpanProfile) {
			switch sp.Name {
			case "service.job":
				job = sp
			case "service.evaluate":
				foundEval = true
			}
		})
		if job == nil {
			// The profile fetch is best-effort and follows the fragment
			// fetch: a shard the doomed node finished just before dying can
			// be done without one.
			if sh.Node == doomed {
				continue
			}
			t.Fatalf("shard %s has no worker-side profile grafted in", id)
		}
		if job.Tag("run") != res.RunID || job.Tag("shard") != id {
			t.Errorf("worker profile for shard %s carries run=%q shard=%q, want run=%q shard=%q",
				id, job.Tag("run"), job.Tag("shard"), res.RunID, id)
		}
		if !foundEval {
			t.Errorf("shard %s worker profile missing the service.evaluate stage", id)
		}
	}

	// The flame rendering of the cross-node tree must work end to end.
	var flame bytes.Buffer
	obs.WriteFlameProfile(&flame, res.Timeline)
	for _, want := range []string{"coord.run", "coord.dispatch", "coord.shard", "service.job"} {
		if !strings.Contains(flame.String(), want) {
			t.Errorf("flame timeline missing %s:\n%s", want, flame.String())
		}
	}

	// And the coverage contract is untouched by all the tracing.
	requireIdentical(t, res.Trace, baseline(t, rep, suites))
}

// corruptProfiles serves garbage bytes for every job-profile fetch,
// leaving all other traffic intact.
type corruptProfiles struct{ rt http.RoundTripper }

func (c corruptProfiles) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.rt.RoundTrip(r)
	if err != nil || !strings.HasSuffix(r.URL.Path, "/profile") {
		return resp, err
	}
	resp.Body.Close()
	// Well-formed JSON, invalid profile (negative duration): it passes
	// the HTTP client's body decode and must be rejected by the span
	// profile codec inside the coordinator.
	resp.Body = io.NopCloser(strings.NewReader(`{"name":"evil","durNs":-1}`))
	resp.ContentLength = -1
	return resp, nil
}

// TestMalformedProfilesNeverPoisonMerge: a fleet whose profile payloads
// are all corrupt still completes the run with exact coverage — profile
// fetching is strictly best-effort — and the failure is visible as a
// decode-failure counter, not a crash.
func TestMalformedProfilesNeverPoisonMerge(t *testing.T) {
	rep := replica(t)
	nodes, chaos := fleet(t, 2)
	suites := []string{"default", "internal"}

	cfg := fastCfg(nodes, chaos, rep)
	cfg.NewClient = func(base string) *client.Client {
		return client.New(base, client.WithHTTPClient(&http.Client{Transport: corruptProfiles{chaos[base]}}))
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
		t.Fatalf("corrupt profiles failed the run: %+v", res.Shards)
	}
	requireIdentical(t, res.Trace, baseline(t, rep, suites))

	// The timeline still exists — coordinator-side spans only.
	if res.Timeline == nil {
		t.Fatal("no timeline")
	}
	res.Timeline.Walk(func(_ int, sp *obs.SpanProfile) {
		if sp.Name == "service.job" {
			t.Error("corrupt worker profile made it into the timeline")
		}
	})

	decodeFails := 0.0
	for _, m := range co.Metrics().Snapshot() {
		if m.Name == MetricProfileDecodeFailures {
			decodeFails += m.Value
		}
	}
	if decodeFails < float64(len(res.Shards)) {
		t.Errorf("decode failures = %v, want >= %d", decodeFails, len(res.Shards))
	}
}

// sweep runs one federation sweep under a deadline, as Federate does.
func sweep(co *Coordinator) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	co.ScrapeFleet(ctx)
}

// TestFleetMetricsFederation: after a run, the coordinator's merged
// exposition carries every worker's series under its node label plus
// the native yardstick_coord_* families; a node that stops answering
// ages out of the fleet view; and the whole exposition stays
// promlint-clean throughout.
func TestFleetMetricsFederation(t *testing.T) {
	rep := replica(t)
	nodes, chaos := fleet(t, 3)

	cfg := fastCfg(nodes, chaos, rep)
	cfg.FederationMaxAge = 80 * time.Millisecond
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Run(context.Background(), "default", "internal"); err != nil {
		t.Fatalf("Run: %v", err)
	}

	sweep(co)
	if got := co.FederatedNodes(); len(got) != 3 {
		t.Fatalf("federated nodes = %v, want all 3", got)
	}

	lintFleet := func() string {
		t.Helper()
		var buf bytes.Buffer
		if err := co.WriteFleetMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		if issues := promlint.Lint(bytes.NewReader(buf.Bytes())); len(issues) > 0 {
			t.Fatalf("fleet exposition lint issues: %v\n%s", issues, buf.String())
		}
		return buf.String()
	}

	body := lintFleet()
	for _, base := range nodes {
		if !strings.Contains(body, `node="`+base+`"`) {
			t.Errorf("exposition missing federated series for %s", base)
		}
	}
	for _, fam := range []string{MetricDispatch, MetricBreakerState, MetricShardDuration, MetricScrapes,
		"yardstick_http_requests_total", "yardstick_jobs_running"} {
		if !strings.Contains(body, fam) {
			t.Errorf("exposition missing family %s", fam)
		}
	}

	// Kill a worker: its scrapes fail, its last snapshot ages out, and
	// the fleet view converges to the survivors — still lint-clean.
	dead := nodes[2]
	chaos[dead].Crash()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sweep(co)
		if got := co.FederatedNodes(); len(got) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead node never aged out: %v", co.FederatedNodes())
		}
		time.Sleep(20 * time.Millisecond)
	}
	body = lintFleet()
	if strings.Contains(body, `node="`+dead+`",route`) {
		t.Errorf("dead node's federated series still exposed:\n%s", body)
	}

	// Revival: one successful scrape and the node is back, series intact.
	chaos[dead].Revive()
	sweep(co)
	if got := co.FederatedNodes(); len(got) != 3 {
		t.Fatalf("revived node not re-federated: %v", got)
	}
	lintFleet()
}

// TestScrapeRejectsOldSnapshot: a worker whose /stats still sends each
// series' labels as one escaped string fails its scrape — counted under
// outcome="failure" — and joins no fleet view; the current worker beside
// it is federated.
func TestScrapeRejectsOldSnapshot(t *testing.T) {
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"metrics":[{"name":"yardstick_jobs_running","type":"gauge","labels":"k=\"v\"","value":1}]}`)
	}))
	defer old.Close()
	nodes, chaos := fleet(t, 1)
	nodes = append(nodes, old.URL)
	chaos[old.URL] = &faults.ChaosTransport{}
	co, err := New(fastCfg(nodes, chaos, replica(t)))
	if err != nil {
		t.Fatal(err)
	}
	sweep(co)
	if got := co.FederatedNodes(); len(got) != 1 || got[0] != nodes[0] {
		t.Fatalf("federated nodes = %v, want only %s", got, nodes[0])
	}
	if got := co.Metrics().Counter(MetricScrapes, "node", old.URL, "outcome", "failure").Value(); got != 1 {
		t.Errorf("old worker's failed scrapes = %d, want 1", got)
	}
}

// TestScrapeFleetBoundedByDeadline: a black-holed worker costs a
// federation sweep no more than the sweep's deadline, and the healthy
// worker scraped beside it is federated — from a direct sweep, and from
// the Federate loop, which bounds each sweep by the scrape interval.
func TestScrapeFleetBoundedByDeadline(t *testing.T) {
	rep := replica(t)
	nodes, chaos := fleet(t, 2)
	hung, healthy := nodes[0], nodes[1]
	chaos[hung].PHang = 1
	chaos[hung].Rand = newSeededRand()
	const interval = 100 * time.Millisecond
	newCoord := func() *Coordinator {
		co, err := New(fastCfg(nodes, chaos, rep))
		if err != nil {
			t.Fatal(err)
		}
		return co
	}

	co := newCoord()
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), interval)
		defer cancel()
		co.ScrapeFleet(ctx)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a sweep over a black-holed worker outlived its deadline by seconds")
	}
	if took := time.Since(start); took > 10*interval {
		t.Errorf("sweep took %v, want about its %v deadline", took, interval)
	}
	if got := co.FederatedNodes(); len(got) != 1 || got[0] != healthy {
		t.Fatalf("federated nodes after a sweep = %v, want only %s", got, healthy)
	}

	co = newCoord()
	ctx, cancel := context.WithCancel(context.Background())
	fed := make(chan struct{})
	go func() { defer close(fed); co.Federate(ctx, interval) }()
	defer func() { cancel(); <-fed }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := co.FederatedNodes(); len(got) == 1 && got[0] == healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Federate never federated the healthy node: %v", co.FederatedNodes())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCoordinatorHandler exercises the -metrics-addr surface end to
// end: /metrics (lint-clean, right content type), /stats (decodable,
// naming every node), /healthz.
func TestCoordinatorHandler(t *testing.T) {
	rep := replica(t)
	nodes, chaos := fleet(t, 2)

	co, err := New(fastCfg(nodes, chaos, rep))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Run(context.Background(), "default"); err != nil {
		t.Fatalf("Run: %v", err)
	}
	sweep(co)

	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != obs.ContentType {
		t.Fatalf("GET /metrics = %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if issues := promlint.Lint(bytes.NewReader(raw)); len(issues) > 0 {
		t.Fatalf("served exposition lint issues: %v", issues)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var st CoordStats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Nodes) != 2 || len(st.Federated) != 2 {
		t.Fatalf("stats = %d nodes, %d federated, want 2/2", len(st.Nodes), len(st.Federated))
	}
	// /stats reports what /metrics does not; the series themselves are
	// served once, by /metrics.
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["federated"]; !ok || len(keys) != 2 || keys["nodes"] == nil {
		t.Fatalf("stats = %s, want exactly the keys federated and nodes", raw)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d", resp.StatusCode)
	}
}
