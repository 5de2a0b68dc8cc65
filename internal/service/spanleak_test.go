package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"yardstick/internal/core"
	"yardstick/internal/faults"
	"yardstick/internal/jobs"
	"yardstick/internal/obs"
	"yardstick/internal/testkit"
	"yardstick/internal/topogen"
)

// spanTracker collects every finished request/job span via
// WithSpanObserver, so tests can assert the no-leak invariant
// (no Open node in the span's Profile) after every path — success, abort, cancellation,
// panic.
type spanTracker struct {
	mu    sync.Mutex
	spans []*obs.Span
}

// openSpans counts the never-ended spans in a profile.
func openSpans(p *obs.SpanProfile) int {
	n := 0
	p.Walk(func(_ int, sp *obs.SpanProfile) {
		if sp.Open {
			n++
		}
	})
	return n
}

func (st *spanTracker) observe(sp *obs.Span) {
	st.mu.Lock()
	st.spans = append(st.spans, sp)
	st.mu.Unlock()
}

func (st *spanTracker) assertNoLeaks(t *testing.T, wantAtLeast int) {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.spans) < wantAtLeast {
		t.Fatalf("observed %d finished spans, want at least %d", len(st.spans), wantAtLeast)
	}
	for _, sp := range st.spans {
		if !sp.Ended() {
			t.Errorf("span %q handed to the observer before End", sp.Name())
		}
		if n := openSpans(sp.Profile()); n != 0 {
			t.Errorf("span %q leaked %d open descendants", sp.Name(), n)
		}
	}
}

func TestSpansEndOnEveryPath(t *testing.T) {
	var tr spanTracker
	srv, ts := newJobServer(t, WithSpanObserver(tr.observe))

	// Success paths: three jobs, a coverage read.
	runSuite(t, ts.URL, "default")
	runSuite(t, ts.URL, "default,internal")
	doJSON(t, http.MethodGet, ts.URL+"/coverage", nil, http.StatusOK, nil)
	runSuite(t, ts.URL, "default")

	tr.assertNoLeaks(t, 4)

	// Abort path: a run cancelled at its second op, inside a test, must
	// still end every span it opened. A job's context is derived from the
	// queue's, so the run is driven through the engine call a job makes.
	root := obs.NewRoot("test.run", nil)
	srv.mu.Lock()
	ctx := obs.ContextWithSpan(faults.CancelAtOp(srv.eng.Net().Space.Manager(), 1), root)
	suite, _ := testkit.BuiltinSuite("internal")
	_, err := srv.eng.Run(ctx, "service.evaluate", suite, core.NewTrace())
	srv.mu.Unlock()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run cancelled at its second op: err = %v", err)
	}
	root.End()
	if n := openSpans(root.Profile()); n != 0 {
		t.Errorf("cancelled run leaked %d open spans", n)
	}
}

func TestSpansEndOnCancellation(t *testing.T) {
	var tr spanTracker
	_, ts := newJobServer(t, WithSpanObserver(tr.observe), WithRunTimeout(time.Nanosecond))
	var sub JobStatus
	doJSON(t, http.MethodPost, ts.URL+"/jobs?suite=default", nil, http.StatusAccepted, &sub)
	if j := pollJob(t, ts.URL, sub.ID); j.State != jobs.StateFailed {
		t.Fatalf("job past its deadline = %s, want failed", j.State)
	}
	tr.assertNoLeaks(t, 1)
}

func TestSpansEndOnPanic(t *testing.T) {
	// A panicking test is isolated by the suite runner but must not leave
	// the evaluation span open. Driven through the engine call a job makes
	// — panic tests are not reachable through the builtin-suite names.
	srv := WithNetwork(smallRegional(t).Net, WithLogger(discardLogger()))
	root := obs.NewRoot("test.run", nil)
	ctx := obs.ContextWithSpan(context.Background(), root)

	srv.mu.Lock()
	out, err := srv.eng.Run(ctx, "service.evaluate", testkit.Suite{faults.PanicTest{Message: "chaos: boom"}}, core.NewTrace())
	srv.mu.Unlock()
	if err != nil {
		t.Fatalf("isolated panic escaped as error: %v", err)
	}
	if len(out) != 1 || !out[0].Errored() {
		t.Fatalf("results = %+v, want one errored result", out)
	}
	root.End()
	if n := openSpans(root.Profile()); n != 0 {
		t.Errorf("panicking run leaked %d open spans", n)
	}
}

func TestJobProfileEndpoint(t *testing.T) {
	srv, ts := newJobServer(t)

	doJSON(t, http.MethodGet, ts.URL+"/jobs/nope/profile", nil, http.StatusNotFound, nil)

	// Submit with run context, the way the coordinator dispatches.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/jobs?suite=default", nil)
	req.Header.Set(HeaderRunID, "feedfacecafe0001")
	req.Header.Set(HeaderShardID, "s3")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sub JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sub.Spec.RunID != "feedfacecafe0001" || sub.Spec.Shard != "s3" {
		t.Fatalf("run context not on job record: %+v", sub.Spec)
	}
	if j := pollJob(t, ts.URL, sub.ID); j.State != jobs.StateDone {
		t.Fatalf("job = %+v", j)
	}

	// The finished job serves a decodable profile carrying the run
	// context tags and the worker-side evaluation stage.
	resp, err = http.Get(ts.URL + "/jobs/" + sub.ID + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET profile = %d, want 200", resp.StatusCode)
	}
	p, err := obs.DecodeSpanProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "service.job" || p.Open {
		t.Fatalf("profile root = %+v", p)
	}
	if p.Tag("run") != "feedfacecafe0001" || p.Tag("shard") != "s3" {
		t.Errorf("profile tags = %v", p.Tags)
	}
	foundEval := false
	p.Walk(func(_ int, sp *obs.SpanProfile) {
		if sp.Name == "service.evaluate" {
			foundEval = true
		}
	})
	if !foundEval {
		t.Error("profile missing the service.evaluate stage span")
	}

	// Evicted artifact → 410.
	srv.mu.Lock()
	srv.artifacts[sub.ID].profile = nil
	srv.mu.Unlock()
	doJSON(t, http.MethodGet, ts.URL+"/jobs/"+sub.ID+"/profile", nil, http.StatusGone, nil)
}

func TestJobProfilePendingAndSanitized(t *testing.T) {
	// No worker: a submitted job stays queued, so the profile
	// endpoint's 409 arm is deterministic.
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := WithNetwork(rg.Net, WithLogger(discardLogger()))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// A hostile run-context header is dropped, not carried into
	// observability identifiers.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/jobs?suite=default", nil)
	req.Header.Set(HeaderRunID, "evil header value")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sub JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sub.Spec.RunID != "" {
		t.Errorf("hostile run id survived sanitization: %q", sub.Spec.RunID)
	}

	resp, err = http.Get(ts.URL + "/jobs/" + sub.ID + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("queued job profile = %d, want 409", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("409 without Retry-After")
	}
}

// TestStatsRouteLatency: every route's request latency is a histogram
// in /metrics, counted per route.
func TestStatsRouteLatency(t *testing.T) {
	_, ts := newJobServer(t)
	runSuite(t, ts.URL, "default")
	runSuite(t, ts.URL, "internal")
	doJSON(t, http.MethodGet, ts.URL+"/coverage", nil, http.StatusOK, nil)

	body := scrape(t, ts.URL)
	for route, want := range map[string]float64{"/jobs": 2, "/coverage": 1} {
		series := `yardstick_http_request_duration_seconds_count{route="` + route + `"}`
		if n, _ := sampleValue(t, body, series); n < want {
			t.Errorf("%s = %v, want >= %v", series, n, want)
		}
	}
}
