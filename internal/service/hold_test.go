package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"yardstick/internal/jobs"
)

// idleJobServer builds a server whose queue runs no jobs: every
// submission stays queued, so a POST /jobs holds for the full hold.
func idleJobServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	srv := WithNetwork(smallRegional(t).Net, append([]Option{WithLogger(discardLogger())}, opts...)...)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestPostJobAnswersFinishedJob: a job that finishes within the hold
// comes back from its POST done, with its result and a Location header,
// under the unchanged 202.
func TestPostJobAnswersFinishedJob(t *testing.T) {
	_, ts := newJobServer(t)
	resp, err := http.Post(ts.URL+"/jobs?suite=default,internal", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+j.ID {
		t.Fatalf("Location = %q, want /jobs/%s", loc, j.ID)
	}
	if j.State != jobs.StateDone {
		t.Fatalf("POST /jobs answered %s, want done", j.State)
	}
	var results []RunResult
	if err := json.Unmarshal(j.Result, &results); err != nil || len(results) != 2 {
		t.Fatalf("result = (%d tests, %v), want 2", len(results), err)
	}
}

// TestPostJobHoldEndsWhileRunning: a job that cannot finish (its run
// waits on the server lock) is answered as running once the hold has
// passed, and is polled to done after the lock frees.
func TestPostJobHoldEndsWhileRunning(t *testing.T) {
	srv, ts := newJobServer(t)
	srv.mu.Lock()
	held := true
	defer func() {
		if held {
			srv.mu.Unlock()
		}
	}()
	start := time.Now()
	var j JobStatus
	doJSON(t, http.MethodPost, ts.URL+"/jobs?suite=default", nil, http.StatusAccepted, &j)
	if took := time.Since(start); took < submitHold {
		t.Fatalf("POST /jobs answered a %s job after %v, before the %v hold", j.State, took, submitHold)
	}
	if j.State != jobs.StateRunning {
		t.Fatalf("POST /jobs answered %s, want running", j.State)
	}
	srv.mu.Unlock()
	held = false
	if got := pollJob(t, ts.URL, j.ID); got.State != jobs.StateDone {
		t.Fatalf("job = %+v, want done", got)
	}
}

// TestHeldPostHoldsNoAdmissionSlot: under WithAdmission(1), a POST
// /jobs in its hold holds no in-flight slot, so a concurrent GET
// /coverage is admitted, never shed with 429. The queue runs nothing,
// so each POST holds for the full hold; the check is repeated until a
// read has landed inside a hold.
func TestHeldPostHoldsNoAdmissionSlot(t *testing.T) {
	srv, ts := idleJobServer(t, WithAdmission(1))
	inside := 0
	for attempt := 0; attempt < 20 && inside < 3; attempt++ {
		submitted := srv.jobs.Stats().Submitted
		answered := make(chan int, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/jobs?suite=default", "", nil)
			if err != nil {
				t.Error(err)
				answered <- 0
				return
			}
			resp.Body.Close()
			answered <- resp.StatusCode
		}()
		// Once the job is queued the submit has released its slot, unless
		// its hold keeps it; then the count stays 1 until the answer.
		for srv.jobs.Stats().Submitted == submitted || srv.inflight.Load() != 0 {
			time.Sleep(100 * time.Microsecond)
		}
		doJSON(t, http.MethodGet, ts.URL+"/coverage", nil, http.StatusOK, nil)
		select {
		case code := <-answered:
			if code != http.StatusAccepted {
				t.Fatalf("POST /jobs = %d, want 202", code)
			}
			continue // the hold ended before the read: no evidence
		default:
		}
		inside++
		if code := <-answered; code != http.StatusAccepted {
			t.Fatalf("POST /jobs = %d, want 202", code)
		}
	}
	if inside == 0 {
		t.Fatal("no GET /coverage landed inside a POST /jobs hold")
	}
	if n := srv.metrics.Counter("yardstick_http_shed_total", "route", "/coverage", "reason", "inflight").Value(); n != 0 {
		t.Fatalf("GET /coverage shed %d times, want 0", n)
	}
}

// TestHoldEndsOnDrainAndCancel: a hold far longer than any test ends
// at once when draining starts or when the request's context ends, and
// answers the job as it then stands.
func TestHoldEndsOnDrainAndCancel(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(*Server, context.CancelFunc)
	}{
		{"drain", func(s *Server, _ context.CancelFunc) { s.SetDraining(true) }},
		{"cancel", func(_ *Server, cancel context.CancelFunc) { cancel() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := WithNetwork(smallRegional(t).Net, WithLogger(discardLogger()))
			j, err := srv.jobs.Submit(jobs.Spec{Suites: "default"})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			got := make(chan jobs.Job, 1)
			go func() { got <- srv.awaitJob(ctx, j, time.Hour) }()
			time.Sleep(10 * time.Millisecond) // most likely inside the hold by now
			tc.end(srv, cancel)
			select {
			case now := <-got:
				if now.ID != j.ID || now.State != jobs.StateQueued {
					t.Fatalf("hold answered %+v, want job %s queued", now, j.ID)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("the hold did not end")
			}
		})
	}
}

// TestSetDrainingEndsLaterHolds: a hold that starts while the server
// drains ends at once, and un-draining re-arms the signal.
func TestSetDrainingEndsLaterHolds(t *testing.T) {
	srv := WithNetwork(smallRegional(t).Net, WithLogger(discardLogger()))
	j, err := srv.jobs.Submit(jobs.Spec{Suites: "default"})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetDraining(true)
	srv.SetDraining(true) // idempotent
	got := make(chan jobs.Job, 1)
	go func() { got <- srv.awaitJob(context.Background(), j, time.Hour) }()
	select {
	case now := <-got:
		if now.State != jobs.StateQueued {
			t.Fatalf("hold answered %s, want queued", now.State)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a hold started while draining did not end")
	}
	srv.SetDraining(false)
	select {
	case <-srv.drainSignal():
		t.Fatal("drain signal still closed after SetDraining(false)")
	default:
	}
}

// TestArtifactsBoundedByQueueDepth: only the QueueDepth newest finished
// jobs keep their fragment and profile; the oldest answers 410 for both
// while its record and result stay for the TTL.
func TestArtifactsBoundedByQueueDepth(t *testing.T) {
	srv, ts := newJobServer(t, WithJobQueue(2, time.Hour))
	var ids []string
	for range 3 {
		var j JobStatus
		doJSON(t, http.MethodPost, ts.URL+"/jobs?suite=default", nil, http.StatusAccepted, &j)
		if got := pollJob(t, ts.URL, j.ID); got.State != jobs.StateDone {
			t.Fatalf("job = %+v, want done", got)
		}
		ids = append(ids, j.ID)
	}
	oldest, newest := ids[0], ids[2]
	doJSON(t, http.MethodGet, ts.URL+"/jobs/"+oldest+"/trace", nil, http.StatusGone, nil)
	doJSON(t, http.MethodGet, ts.URL+"/jobs/"+oldest+"/profile", nil, http.StatusGone, nil)
	var rec JobStatus
	doJSON(t, http.MethodGet, ts.URL+"/jobs/"+oldest, nil, http.StatusOK, &rec)
	if rec.State != jobs.StateDone || len(rec.Result) == 0 {
		t.Fatalf("evicted job's record = %+v, want done with its result", rec)
	}
	for _, id := range ids[1:] {
		getBody(t, ts.URL+"/jobs/"+id+"/trace")
		getBody(t, ts.URL+"/jobs/"+id+"/profile")
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.artifacts) != 2 || len(srv.artifactOrder) != 2 || srv.artifactOrder[1] != newest {
		t.Fatalf("retained %d artifacts, order %v; want the 2 newest ending in %s", len(srv.artifacts), srv.artifactOrder, newest)
	}
}

// TestShardFragmentKeptUntilFetched: a distributed shard's fragment
// outlives the QueueDepth bound until a coordinator fetches it, however
// many unsharded jobs finish before its next poll; once fetched it falls
// under the bound, and unfetched shards are bounded by count too.
func TestShardFragmentKeptUntilFetched(t *testing.T) {
	srv, ts := newJobServer(t, WithJobQueue(2, time.Hour))
	submit := func(runID string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs?suite=default", nil)
		if err != nil {
			t.Fatal(err)
		}
		if runID != "" {
			req.Header.Set(HeaderRunID, runID)
			req.Header.Set(HeaderShardID, "shard-0")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var j JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /jobs = %d (%v), want 202", resp.StatusCode, err)
		}
		if got := pollJob(t, ts.URL, j.ID); got.State != jobs.StateDone {
			t.Fatalf("job = %+v, want done", got)
		}
		return j.ID
	}
	shard := submit("run-1")
	submit("")
	submit("")
	getBody(t, ts.URL+"/jobs/"+shard+"/trace")
	getBody(t, ts.URL+"/jobs/"+shard+"/profile")
	submit("")
	submit("")
	doJSON(t, http.MethodGet, ts.URL+"/jobs/"+shard+"/trace", nil, http.StatusGone, nil)

	// Unfetched shards have a QueueDepth bound of their own: a third
	// evicts the oldest, whatever the TTL.
	unfetched := []string{submit("run-2"), submit("run-2"), submit("run-2")}
	doJSON(t, http.MethodGet, ts.URL+"/jobs/"+unfetched[0]+"/trace", nil, http.StatusGone, nil)
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.pinnedOrder) != 2 || srv.pinnedOrder[0] != unfetched[1] {
		t.Fatalf("pinned %v, want the 2 newest of %v", srv.pinnedOrder, unfetched)
	}
}
