package service

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"yardstick/internal/core"
	"yardstick/internal/jobs"
	"yardstick/internal/topogen"
)

// smallRegional builds the small regional network the service tests
// run against.
func smallRegional(t *testing.T) *topogen.Regional {
	t.Helper()
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rg
}

// serve mounts srv on a test HTTP server and runs its job-queue worker;
// both stop at test cleanup.
func serve(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv.RunJobs(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return ts
}

// newJobServer builds a server with the async layer live: a small
// network, a running queue worker, and the given extra options.
func newJobServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	srv := WithNetwork(smallRegional(t).Net, append([]Option{WithLogger(discardLogger())}, opts...)...)
	return srv, serve(t, srv)
}

// pollJob polls GET /jobs/{id} until the job is terminal.
func pollJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var j JobStatus
		doJSON(t, http.MethodGet, base+"/jobs/"+id, nil, http.StatusOK, &j)
		if j.State.Terminal() {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never reached a terminal state")
	return JobStatus{}
}

// runSuite submits a job for the comma-separated suites, polls it until
// it is terminal and requires it done; it returns the job's run results.
func runSuite(t *testing.T, base, suites string) []RunResult {
	t.Helper()
	var sub JobStatus
	doJSON(t, http.MethodPost, base+"/jobs?suite="+suites, nil, http.StatusAccepted, &sub)
	j := pollJob(t, base, sub.ID)
	if j.State != jobs.StateDone {
		t.Fatalf("job %s (%s) = %s %q, want done", sub.ID, suites, j.State, j.Error)
	}
	var results []RunResult
	if err := json.Unmarshal(j.Result, &results); err != nil {
		t.Fatalf("job %s result: %v", sub.ID, err)
	}
	return results
}

func TestJobLifecycle(t *testing.T) {
	_, ts := newJobServer(t)

	// Submit: 202, Location header, queued-or-later snapshot.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/jobs?suite=default,internal", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sub JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+sub.ID {
		t.Fatalf("Location = %q, want /jobs/%s", loc, sub.ID)
	}

	// Poll to completion; the result decodes as run results.
	j := pollJob(t, ts.URL, sub.ID)
	if j.State != jobs.StateDone {
		t.Fatalf("job = %+v, want done", j)
	}
	var results []RunResult
	if err := json.Unmarshal(j.Result, &results); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d tests, want 2", len(results))
	}

	// The run accumulated coverage into the server's trace.
	var cov CoverageReport
	doJSON(t, http.MethodGet, ts.URL+"/coverage", nil, http.StatusOK, &cov)
	if cov.Total.RuleFractional <= 0 {
		t.Fatal("async run accumulated no coverage")
	}

	// The job shows up in the listing.
	var list JobList
	doJSON(t, http.MethodGet, ts.URL+"/jobs", nil, http.StatusOK, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != sub.ID || list.Stats.Done != 1 {
		t.Fatalf("list = %+v", list)
	}
}

// TestJobQueueRunsOneJobAtATime: every run holds the server lock, so the
// queue runs one job at a time even under WithWorkers(2). While the lock
// is held, the first job runs (waiting on the lock) and the second stays
// queued, counted in Depth; both finish once the lock is free.
func TestJobQueueRunsOneJobAtATime(t *testing.T) {
	srv, ts := newJobServer(t, WithWorkers(2))
	srv.mu.Lock()
	held := true
	defer func() {
		if held {
			srv.mu.Unlock()
		}
	}()
	var first, second JobStatus
	doJSON(t, http.MethodPost, ts.URL+"/jobs?suite=default", nil, http.StatusAccepted, &first)
	doJSON(t, http.MethodPost, ts.URL+"/jobs?suite=default", nil, http.StatusAccepted, &second)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if j, _ := srv.jobs.Get(first.ID); j.State == jobs.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	// A second worker, were there one, would take the second job now.
	time.Sleep(50 * time.Millisecond)
	if st := srv.jobs.Stats(); st.Running != 1 || st.Depth != 1 {
		t.Fatalf("with the lock held: running %d, depth %d; want 1 and 1", st.Running, st.Depth)
	}
	if j, _ := srv.jobs.Get(second.ID); j.State != jobs.StateQueued {
		t.Fatalf("second job is %s, want queued", j.State)
	}
	srv.mu.Unlock()
	held = false
	for _, id := range []string{first.ID, second.ID} {
		if j := pollJob(t, ts.URL, id); j.State != jobs.StateDone {
			t.Fatalf("job %s = %+v, want done", id, j)
		}
	}
}

func TestJobValidation(t *testing.T) {
	_, ts := newJobServer(t)
	doJSON(t, http.MethodPost, ts.URL+"/jobs?suite=nope", nil, http.StatusBadRequest, nil)
	doJSON(t, http.MethodPost, ts.URL+"/jobs", nil, http.StatusBadRequest, nil)
	doJSON(t, http.MethodGet, ts.URL+"/jobs/absent", nil, http.StatusNotFound, nil)
	doJSON(t, http.MethodDelete, ts.URL+"/jobs/absent", nil, http.StatusNotFound, nil)
}

func TestJobCancelAndConflict(t *testing.T) {
	// No worker: submissions stay queued, so cancellation is
	// deterministic.
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := WithNetwork(rg.Net, WithLogger(discardLogger()))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var sub JobStatus
	doJSON(t, http.MethodPost, ts.URL+"/jobs?suite=default", nil, http.StatusAccepted, &sub)
	var cancelled JobStatus
	doJSON(t, http.MethodDelete, ts.URL+"/jobs/"+sub.ID, nil, http.StatusOK, &cancelled)
	if cancelled.State != jobs.StateCancelled || cancelled.Error == "" {
		t.Fatalf("cancelled = %+v", cancelled)
	}
	// A second cancel conflicts: the job is already terminal.
	doJSON(t, http.MethodDelete, ts.URL+"/jobs/"+sub.ID, nil, http.StatusConflict, nil)
}

func TestJobQueueFullShedsWithRetryAfter(t *testing.T) {
	// Depth 2, no worker: the third submission sheds.
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := WithNetwork(rg.Net, WithLogger(discardLogger()), WithJobQueue(2, time.Minute))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	doJSON(t, http.MethodPost, ts.URL+"/jobs?suite=default", nil, http.StatusAccepted, nil)
	doJSON(t, http.MethodPost, ts.URL+"/jobs?suite=default", nil, http.StatusAccepted, nil)
	resp, err := http.Post(ts.URL+"/jobs?suite=default", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("full-queue submit = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	// Saturation flips readiness with the reason spelled out.
	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz saturated = %d, want 503", rresp.StatusCode)
	}
	var ready ReadyReport
	if err := json.NewDecoder(rresp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	if ready.Reason != "queue_saturated" {
		t.Fatalf("readyz reason = %q, want queue_saturated", ready.Reason)
	}

	// The queue reports its own shape; the shed is a series.
	var list JobList
	doJSON(t, http.MethodGet, ts.URL+"/jobs", nil, http.StatusOK, &list)
	if list.Stats.Depth != 2 || list.Stats.ShedFull != 1 {
		t.Fatalf("queue stats = %+v, want depth 2 and one shed", list.Stats)
	}
	const shed = `yardstick_http_shed_total{reason="queue_full",route="/jobs"}`
	if v, _ := sampleValue(t, scrape(t, ts.URL), shed); v != 1 {
		t.Fatalf("%s = %v, want 1", shed, v)
	}
}

// TestJobTraceExport: a done job's own coverage fragment is exported by
// GET /jobs/{id}/trace, decodes against the network, and reproduces the
// server's accumulated coverage when merged into a fresh trace — the
// property the distributed coordinator's shard collection rests on.
func TestJobTraceExport(t *testing.T) {
	srv, ts := newJobServer(t)

	var sub JobStatus
	doJSON(t, http.MethodPost, ts.URL+"/jobs?suite=default,internal", nil, http.StatusAccepted, &sub)
	j := pollJob(t, ts.URL, sub.ID)
	if j.State != jobs.StateDone {
		t.Fatalf("job = %+v, want done", j)
	}

	resp, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/{id}/trace = %d, want 200", resp.StatusCode)
	}
	srv.mu.Lock()
	frag, derr := core.DecodeTraceJSON(srv.eng.Net(), resp.Body)
	srv.mu.Unlock()
	if derr != nil {
		t.Fatalf("decode job trace: %v", derr)
	}
	fs, ss := frag.Stats(), srv.eng.Trace().Stats()
	if fs.Locations == 0 || fs != ss {
		t.Fatalf("fragment stats %+v, server trace stats %+v — a single job's fragment should equal the whole accumulated trace", fs, ss)
	}

	// Unknown job: 404. Not-done job: 409 (submit with the pool idle is
	// racy here, so use a failed job — bad networkless runs are covered
	// elsewhere; a cancelled one is deterministic without workers).
	doJSON(t, http.MethodGet, ts.URL+"/jobs/absent/trace", nil, http.StatusNotFound, nil)
}

// TestJobTraceNegotiation: the same path serves trace JSON by default
// and the YSS1 arena to a request whose Accept names it; both decode to
// the same trace; and neither is built until someone asks — a finished
// job holds only the trace it recorded, and once its arena is built,
// only the arena.
func TestJobTraceNegotiation(t *testing.T) {
	srv, ts := newJobServer(t)

	var sub JobStatus
	doJSON(t, http.MethodPost, ts.URL+"/jobs?suite=default,internal", nil, http.StatusAccepted, &sub)
	if j := pollJob(t, ts.URL, sub.ID); j.State != jobs.StateDone {
		t.Fatalf("job = %+v, want done", j)
	}
	encoded := func() (trace, arena, cubes bool) {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		a := srv.artifacts[sub.ID]
		if a == nil || a.frag == nil || a.frag.trace == nil && a.frag.arena == nil {
			t.Fatal("finished job retained no fragment")
		}
		return a.frag.trace != nil, a.frag.arena != nil, a.frag.json != nil
	}
	if tr, a, j := encoded(); !tr || a || j {
		t.Fatalf("before any fetch: trace %v, arena %v, json %v; want the trace only", tr, a, j)
	}

	fetch := func(accept string) (string, []byte) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/jobs/"+sub.ID+"/trace", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET trace (Accept %q) = %d, %v", accept, resp.StatusCode, err)
		}
		return resp.Header.Get("Content-Type"), body
	}

	ct, arena := fetch("application/json;q=0.5, " + TraceArenaMediaType)
	if ct != TraceArenaMediaType || !core.IsSnapshotArena(arena) {
		t.Fatalf("arena request answered %q, %d bytes starting %q", ct, len(arena), arena[:min(len(arena), 4)])
	}
	if tr, a, j := encoded(); tr || !a || j {
		t.Fatalf("after one arena fetch: trace kept %v, arena cached %v, json built %v; want false, true, false", tr, a, j)
	}
	if _, again := fetch(TraceArenaMediaType); !bytes.Equal(again, arena) {
		t.Fatal("second arena fetch differs from the first")
	}
	for _, accept := range []string{"", "*/*", "application/json"} {
		if ct, body := fetch(accept); ct != "application/json" || !json.Valid(body) {
			t.Fatalf("Accept %q answered %q, valid JSON %v; want the JSON export", accept, ct, json.Valid(body))
		}
	}
	_, cubes := fetch("")

	srv.mu.Lock()
	defer srv.mu.Unlock()
	fromArena, err := core.DecodeTraceJSON(srv.eng.Net(), bytes.NewReader(arena))
	if err != nil {
		t.Fatalf("decode arena fragment: %v", err)
	}
	fromJSON, err := core.DecodeTraceJSON(srv.eng.Net(), bytes.NewReader(cubes))
	if err != nil {
		t.Fatalf("decode JSON fragment: %v", err)
	}
	if !fromArena.Equal(fromJSON) || !fromArena.Equal(srv.eng.Trace()) {
		t.Fatal("arena fragment, JSON fragment and the server's accumulated trace are not one trace")
	}
}

// fetchTraceRaw fetches a job's fragment with the given Accept and
// Accept-Encoding through a transport that decompresses nothing, and
// returns the response and its body as sent.
func fetchTraceRaw(t *testing.T, base, id, accept, encoding string) (*http.Response, []byte) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, base+"/jobs/"+id+"/trace", nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if encoding != "" {
		req.Header.Set("Accept-Encoding", encoding)
	}
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace (Accept %q, Accept-Encoding %q) = %d, %v", accept, encoding, resp.StatusCode, err)
	}
	return resp, body
}

// TestJobTraceGzip: GET /jobs/{id}/trace answers gzip to a request whose
// Accept-Encoding names it, for both encodings, and the identity body to
// one that does not (or refuses gzip with q=0); the gzip body inflates
// to exactly the identity body, and Vary names both negotiated headers
// either way.
func TestJobTraceGzip(t *testing.T) {
	_, ts := newJobServer(t)
	var sub JobStatus
	doJSON(t, http.MethodPost, ts.URL+"/jobs?suite=default,internal,reach", nil, http.StatusAccepted, &sub)
	if j := pollJob(t, ts.URL, sub.ID); j.State != jobs.StateDone {
		t.Fatalf("job = %+v, want done", j)
	}
	for _, accept := range []string{"", TraceArenaMediaType} {
		resp, identity := fetchTraceRaw(t, ts.URL, sub.ID, accept, "")
		if ce := resp.Header.Get("Content-Encoding"); ce != "" {
			t.Fatalf("Accept %q without Accept-Encoding: Content-Encoding %q", accept, ce)
		}
		if resp.ContentLength != int64(len(identity)) {
			t.Fatalf("Accept %q identity: Content-Length %d for %d bytes", accept, resp.ContentLength, len(identity))
		}
		for _, enc := range []string{"gzip", "deflate, gzip;q=0.5", "br, GZIP", "gzip;q=0", "identity"} {
			resp, body := fetchTraceRaw(t, ts.URL, sub.ID, accept, enc)
			if vary := resp.Header.Get("Vary"); !strings.Contains(vary, "Accept-Encoding") || !strings.Contains(strings.ReplaceAll(vary, "Accept-Encoding", ""), "Accept") {
				t.Fatalf("Accept %q, Accept-Encoding %q: Vary %q, want both headers", accept, enc, vary)
			}
			if resp.ContentLength != int64(len(body)) {
				t.Fatalf("Accept %q, Accept-Encoding %q: Content-Length %d for %d bytes", accept, enc, resp.ContentLength, len(body))
			}
			wantGzip := enc != "gzip;q=0" && enc != "identity"
			if got := resp.Header.Get("Content-Encoding") == "gzip"; got != wantGzip {
				t.Fatalf("Accept %q, Accept-Encoding %q: Content-Encoding %q, want gzip %v", accept, enc, resp.Header.Get("Content-Encoding"), wantGzip)
			}
			if !wantGzip {
				if !bytes.Equal(body, identity) {
					t.Fatalf("Accept %q, Accept-Encoding %q: body differs from the identity body", accept, enc)
				}
				continue
			}
			zr, err := gzip.NewReader(bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			inflated, err := io.ReadAll(zr)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(inflated, identity) {
				t.Fatalf("Accept %q, Accept-Encoding %q: %d bytes inflate to %d, not the %d-byte identity body", accept, enc, len(body), len(inflated), len(identity))
			}
			if len(body) >= len(identity) {
				t.Fatalf("Accept %q: gzip body %d bytes, identity %d", accept, len(body), len(identity))
			}
		}
	}
}

// TestJobTraceJSONAfterArena: once a fragment's arena exists the daemon
// keeps only the arena, and a JSON fetch after it imports the arena back
// into the daemon's space: the JSON is byte-identical to what a daemon
// that never built the arena serves for the same job, and the import
// makes no node (every node of the fragment is already there).
func TestJobTraceJSONAfterArena(t *testing.T) {
	jsonOf := func(arenaFirst bool) []byte {
		srv, ts := newJobServer(t)
		var sub JobStatus
		doJSON(t, http.MethodPost, ts.URL+"/jobs?suite=default,internal,reach,pingmesh", nil, http.StatusAccepted, &sub)
		if j := pollJob(t, ts.URL, sub.ID); j.State != jobs.StateDone {
			t.Fatalf("job = %+v, want done", j)
		}
		if !arenaFirst {
			_, body := fetchTraceRaw(t, ts.URL, sub.ID, "", "")
			return body
		}
		fetchTraceRaw(t, ts.URL, sub.ID, TraceArenaMediaType, "")
		srv.mu.Lock()
		kept, nodes := srv.artifacts[sub.ID].frag.trace != nil, srv.eng.Net().Space.Manager().Size()
		srv.mu.Unlock()
		if kept {
			t.Fatal("the trace is kept beside the arena")
		}
		_, body := fetchTraceRaw(t, ts.URL, sub.ID, "", "")
		srv.mu.Lock()
		after := srv.eng.Net().Space.Manager().Size()
		srv.mu.Unlock()
		if after != nodes {
			t.Fatalf("importing the arena for the JSON fetch made %d nodes, want 0", after-nodes)
		}
		if _, again := fetchTraceRaw(t, ts.URL, sub.ID, "", ""); !bytes.Equal(again, body) {
			t.Fatal("second JSON fetch differs from the first")
		}
		return body
	}
	direct, viaArena := jsonOf(false), jsonOf(true)
	if !json.Valid(direct) || !bytes.Equal(direct, viaArena) {
		t.Fatalf("JSON after the arena (%d bytes) differs from the JSON of the recorded trace (%d bytes)", len(viaArena), len(direct))
	}
}

// TestJobTraceConflictAndGone: non-done jobs answer 409, and a restart
// (which keeps job records but not trace artifacts) answers 410 so the
// coordinator knows to re-dispatch.
func TestJobTraceConflictAndGone(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "trace.snap")
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	// No worker: the job stays queued → trace answers 409 with a
	// Retry-After hint; after cancellation (terminal but not done) it
	// answers 409 without one.
	srv1 := WithNetwork(rg.Net, WithLogger(discardLogger()), WithSnapshot(snap, time.Hour))
	ts1 := httptest.NewServer(srv1.Handler())

	var queued JobStatus
	doJSON(t, http.MethodPost, ts1.URL+"/jobs?suite=default", nil, http.StatusAccepted, &queued)
	resp, err := http.Get(ts1.URL + "/jobs/" + queued.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("queued-job trace = %d (Retry-After %q), want 409 with hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	doJSON(t, http.MethodDelete, ts1.URL+"/jobs/"+queued.ID, nil, http.StatusOK, nil)
	doJSON(t, http.MethodGet, ts1.URL+"/jobs/"+queued.ID+"/trace", nil, http.StatusConflict, nil)

	// Run a job to done on a live pool, checkpoint, restart: the record
	// survives, the artifact does not — 410 Gone.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv1.RunJobs(ctx) }()
	var sub JobStatus
	doJSON(t, http.MethodPost, ts1.URL+"/jobs?suite=default", nil, http.StatusAccepted, &sub)
	sub = pollJob(t, ts1.URL, sub.ID)
	if sub.State != jobs.StateDone {
		t.Fatalf("job = %+v, want done", sub)
	}
	doJSON(t, http.MethodGet, ts1.URL+"/jobs/"+sub.ID+"/trace", nil, http.StatusOK, nil)
	cancel()
	<-done
	if err := srv1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	srv2 := WithNetwork(rg.Net, WithLogger(discardLogger()), WithSnapshot(snap, time.Hour))
	if _, err := srv2.Restore(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	var got JobStatus
	doJSON(t, http.MethodGet, ts2.URL+"/jobs/"+sub.ID, nil, http.StatusOK, &got)
	if got.State != jobs.StateDone {
		t.Fatalf("recovered job = %+v, want done", got)
	}
	doJSON(t, http.MethodGet, ts2.URL+"/jobs/"+sub.ID+"/trace", nil, http.StatusGone, nil)
}

// TestListJobsPaging: the job list is filterable by state, hard-capped,
// and pageable via offset/limit with X-Total-Count and Link headers.
func TestListJobsPaging(t *testing.T) {
	// No worker pool: submissions stay queued, so states and counts are
	// deterministic.
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := WithNetwork(rg.Net, WithLogger(discardLogger()), WithJobQueue(16, time.Minute))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 5; i++ {
		var sub JobStatus
		doJSON(t, http.MethodPost, ts.URL+"/jobs?suite=default", nil, http.StatusAccepted, &sub)
		ids = append(ids, sub.ID)
	}
	// Cancel two: they leave the "queued" filter and join "cancelled".
	doJSON(t, http.MethodDelete, ts.URL+"/jobs/"+ids[0], nil, http.StatusOK, nil)
	doJSON(t, http.MethodDelete, ts.URL+"/jobs/"+ids[1], nil, http.StatusOK, nil)

	get := func(query string) (*http.Response, JobList) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs%s = %d", query, resp.StatusCode)
		}
		var list JobList
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		return resp, list
	}

	// Page 1 of the queued jobs: capped at 2 of 3, with a next link.
	resp, list := get("?state=queued&limit=2")
	if len(list.Jobs) != 2 {
		t.Fatalf("page = %d jobs, want 2", len(list.Jobs))
	}
	if tc := resp.Header.Get("X-Total-Count"); tc != "3" {
		t.Fatalf("X-Total-Count = %q, want 3", tc)
	}
	link := resp.Header.Get("Link")
	if !strings.Contains(link, `rel="next"`) || !strings.Contains(link, "offset=2") || !strings.Contains(link, "state=queued") {
		t.Fatalf("Link = %q, want a next link preserving the filter", link)
	}

	// Page 2: the remaining row, no next link.
	resp, list = get("?state=queued&limit=2&offset=2")
	if len(list.Jobs) != 1 || resp.Header.Get("Link") != "" {
		t.Fatalf("page 2 = %d jobs (Link %q), want 1 with no next", len(list.Jobs), resp.Header.Get("Link"))
	}

	// The cancelled filter sees the other two; every row matches.
	_, list = get("?state=cancelled")
	if len(list.Jobs) != 2 {
		t.Fatalf("cancelled = %d jobs, want 2", len(list.Jobs))
	}
	for _, j := range list.Jobs {
		if j.State != jobs.StateCancelled {
			t.Fatalf("state filter leaked %+v", j)
		}
	}

	// An offset past the end yields an empty page, not an error; the
	// total still reports the truth.
	resp, list = get("?offset=100")
	if len(list.Jobs) != 0 || resp.Header.Get("X-Total-Count") != "5" {
		t.Fatalf("past-the-end page = %d jobs, total %q", len(list.Jobs), resp.Header.Get("X-Total-Count"))
	}

	// Oversized limits are hard-capped server-side (observable: the
	// request is accepted, not rejected), bad values are 400s.
	get("?limit=100000")
	doJSON(t, http.MethodGet, ts.URL+"/jobs?state=bogus", nil, http.StatusBadRequest, nil)
	doJSON(t, http.MethodGet, ts.URL+"/jobs?offset=-1", nil, http.StatusBadRequest, nil)
	doJSON(t, http.MethodGet, ts.URL+"/jobs?limit=0", nil, http.StatusBadRequest, nil)
}

func TestJobPersistenceAcrossServers(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "trace.snap")
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	// First server: run one job to completion, leave one queued, then
	// shut down and checkpoint — the daemon's shutdown order.
	srv1 := WithNetwork(rg.Net, WithLogger(discardLogger()), WithSnapshot(snap, time.Hour))
	ts1 := httptest.NewServer(srv1.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv1.RunJobs(ctx) }()

	var completed JobStatus
	doJSON(t, http.MethodPost, ts1.URL+"/jobs?suite=default", nil, http.StatusAccepted, &completed)
	completed = pollJob(t, ts1.URL, completed.ID)
	if completed.State != jobs.StateDone {
		t.Fatalf("first job = %+v", completed)
	}
	cancel()
	<-done // workers settled: anything still queued stays queued
	var queued JobStatus
	doJSON(t, http.MethodPost, ts1.URL+"/jobs?suite=default", nil, http.StatusAccepted, &queued)
	if err := srv1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// Second server, same network and snapshot path: the completed
	// job's result is fetchable, the queued one failed with a reason.
	srv2 := WithNetwork(rg.Net, WithLogger(discardLogger()), WithSnapshot(snap, time.Hour))
	if _, err := srv2.Restore(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	var got JobStatus
	doJSON(t, http.MethodGet, ts2.URL+"/jobs/"+completed.ID, nil, http.StatusOK, &got)
	if got.State != jobs.StateDone || len(got.Result) == 0 {
		t.Fatalf("recovered job = %+v, want done with result", got)
	}
	doJSON(t, http.MethodGet, ts2.URL+"/jobs/"+queued.ID, nil, http.StatusOK, &got)
	if got.State != jobs.StateFailed || !strings.Contains(got.Error, "restart") {
		t.Fatalf("interrupted job = %+v, want failed with restart reason", got)
	}
}
