package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"yardstick/internal/core"
	"yardstick/internal/jobs"
	"yardstick/internal/service"
)

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 7, 10, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"2", 2 * time.Second},
		{"0", 0},
		{"-3", 0},
		{"garbage", 0},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{now.Add(-time.Minute).Format(http.TimeFormat), 0}, // already elapsed
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in, now); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRetryDelayHonorsHint(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond}.withDefaults()

	// A hint below the cap is used verbatim — no jitter, the server said
	// exactly when to come back.
	hint := &APIError{StatusCode: 503, RetryAfter: 20 * time.Millisecond}
	if got := p.retryDelay(1, hint); got != 20*time.Millisecond {
		t.Errorf("retryDelay with hint = %v, want 20ms", got)
	}

	// A hint above MaxDelay is capped: the policy bounds worst-case
	// client latency even against a confused server.
	huge := &APIError{StatusCode: 429, RetryAfter: time.Hour}
	if got := p.retryDelay(1, huge); got != p.MaxDelay {
		t.Errorf("retryDelay with oversized hint = %v, want cap %v", got, p.MaxDelay)
	}

	// No hint falls back to jittered exponential backoff.
	plain := &APIError{StatusCode: 500}
	for range 20 {
		got := p.retryDelay(3, plain)
		if got <= 0 || got > p.MaxDelay {
			t.Fatalf("retryDelay fallback = %v, want in (0, %v]", got, p.MaxDelay)
		}
	}
}

// TestRetryAfterSecondsForm: a shed with the delay-seconds header form
// delays the retry by the hint, then succeeds.
func TestRetryAfterSecondsForm(t *testing.T) {
	var calls atomic.Int32
	var gap atomic.Int64
	var last atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now().UnixNano()
		if prev := last.Swap(now); prev != 0 {
			gap.Store(now - prev)
		}
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	// MaxDelay 2s > hint 1s, so the hint is used as-is.
	c := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Second}))
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("Healthz after shed: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("calls = %d, want 2", n)
	}
	if g := time.Duration(gap.Load()); g < 900*time.Millisecond {
		t.Fatalf("retry gap = %v, want >= ~1s from the Retry-After hint", g)
	}
}

// TestRetryAfterDateFormCapped: the HTTP-date header form is decoded,
// and a far-future date is capped at the policy's MaxDelay.
func TestRetryAfterDateFormCapped(t *testing.T) {
	var calls atomic.Int32
	start := time.Now()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", time.Now().Add(time.Hour).UTC().Format(http.TimeFormat))
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 100 * time.Millisecond}))
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("Healthz after dated shed: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("calls = %d, want 2", n)
	}
	// The hour-away hint must not park the client: total wall time stays
	// near MaxDelay, nowhere near the hint.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry took %v; the MaxDelay cap did not bound the hint", elapsed)
	}
}

// TestRetryable429: 429 joined the transient set; other 4xx stay fatal.
func TestRetryable429(t *testing.T) {
	if !retryable(&APIError{StatusCode: http.StatusTooManyRequests}) {
		t.Error("429 should be retryable")
	}
	if retryable(&APIError{StatusCode: http.StatusBadRequest}) {
		t.Error("400 should not be retryable")
	}
	if retryable(&APIError{StatusCode: http.StatusConflict}) {
		t.Error("409 should not be retryable")
	}
	if !retryable(&APIError{StatusCode: http.StatusServiceUnavailable}) {
		t.Error("503 should be retryable")
	}
}

// newAsyncServer boots a real service with a live worker pool.
func newAsyncServer(t *testing.T, opts ...service.Option) *httptest.Server {
	t.Helper()
	rg := buildNet(t)
	srv := service.WithNetwork(rg.Net, append([]service.Option{quiet()}, opts...)...)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv.RunJobs(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return ts
}

// TestJobHelpers drives submit/poll/wait/list against a real service.
func TestJobHelpers(t *testing.T) {
	ts := newAsyncServer(t)
	c := New(ts.URL, WithRetry(fastRetry(2)))
	ctx := context.Background()

	j, err := c.SubmitJob(ctx, 0, "default", "internal")
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if j.ID == "" {
		t.Fatalf("submitted job has no ID: %+v", j)
	}

	got, err := c.WaitJob(ctx, j.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if got.State != jobs.StateDone || len(got.Result) == 0 {
		t.Fatalf("waited job = %+v, want done with result", got)
	}

	list, err := c.Jobs(ctx)
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	if len(list.Jobs) != 1 || list.Stats.Done != 1 {
		t.Fatalf("job list = %+v", list)
	}

	// RunAsync round-trips results like Run does.
	results, err := c.RunAsync(ctx, 0, "default", "internal")
	if err != nil {
		t.Fatalf("RunAsync: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("RunAsync results = %d, want 2", len(results))
	}

	// A bad suite fails the submit with a non-retryable 400.
	if _, err := c.SubmitJob(ctx, 0, "no-such-suite"); err == nil {
		t.Fatal("SubmitJob with bad suite should fail")
	} else if ra, shed := IsShed(err); shed {
		t.Fatalf("bad suite misclassified as shed (Retry-After %v)", ra)
	}
}

// TestListJobsPaging walks a multi-page job list via the typed paging
// API: Total reflects the filtered count, More drives the walk, and the
// pages cover every job exactly once.
func TestListJobsPaging(t *testing.T) {
	// No worker: submitted jobs stay queued, so the list is stable.
	rg := buildNet(t)
	srv := service.WithNetwork(rg.Net, quiet(), service.WithJobQueue(16, time.Minute))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := New(ts.URL, WithRetry(fastRetry(2)))
	ctx := context.Background()

	want := map[string]bool{}
	for i := 0; i < 5; i++ {
		j, err := c.SubmitJob(ctx, 0, "default")
		if err != nil {
			t.Fatalf("SubmitJob: %v", err)
		}
		want[j.ID] = false
	}

	got := 0
	for q := (JobsQuery{State: "queued", Limit: 2}); ; {
		page, err := c.ListJobs(ctx, q)
		if err != nil {
			t.Fatalf("ListJobs(%+v): %v", q, err)
		}
		if page.Total != 5 {
			t.Fatalf("page.Total = %d, want 5", page.Total)
		}
		for _, j := range page.Jobs {
			seen, ok := want[j.ID]
			if !ok || seen {
				t.Fatalf("page returned unexpected or duplicate job %s", j.ID)
			}
			want[j.ID] = true
			got++
		}
		if !page.More {
			break
		}
		q.Offset += len(page.Jobs)
	}
	if got != 5 {
		t.Fatalf("paged walk covered %d jobs, want 5", got)
	}
}

// TestJobTraceRoundTrip: a done job's fragment downloads as a YSS1 arena
// and decodes against a deterministic replica of the network — the
// replica is what a coordinator holds, not the worker's own in-memory
// net.
func TestJobTraceRoundTrip(t *testing.T) {
	ts := newAsyncServer(t)
	c := New(ts.URL, WithRetry(fastRetry(2)))
	ctx := context.Background()

	j, err := c.SubmitJob(ctx, 0, "default", "internal")
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if j, err = c.WaitJob(ctx, j.ID, time.Millisecond); err != nil || j.State != jobs.StateDone {
		t.Fatalf("WaitJob = (%+v, %v), want done", j, err)
	}

	raw, err := c.JobTraceRaw(ctx, j.ID)
	if err != nil || !core.IsSnapshotArena(raw) {
		t.Fatalf("JobTraceRaw = (%d bytes, %v), want a YSS1 arena", len(raw), err)
	}
	replica := buildNet(t)
	tr, err := c.JobTrace(ctx, j.ID, replica.Net)
	if err != nil {
		t.Fatalf("JobTrace: %v", err)
	}
	if st := tr.Stats(); st.Locations == 0 || st.MarkedRules == 0 {
		t.Fatalf("decoded fragment is empty: %+v", st)
	}

	// An unknown job surfaces the 404 as a typed error.
	var ae *APIError
	if _, err := c.JobTraceRaw(ctx, "absent"); !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("JobTraceRaw(absent) = %v, want 404", err)
	}

	// Mixed-version fleet: a worker that predates the negotiation ignores
	// Accept and answers JSON. The bytes are decoded by what they are.
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("Accept")
		proxy, err := http.NewRequestWithContext(r.Context(), r.Method, ts.URL+r.URL.Path, nil)
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(proxy)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	defer old.Close()
	oc := New(old.URL, WithRetry(fastRetry(2)))
	if raw, err = oc.JobTraceRaw(ctx, j.ID); err != nil || core.IsSnapshotArena(raw) {
		t.Fatalf("JobTraceRaw via an Accept-blind worker = (arena %v, %v), want JSON", core.IsSnapshotArena(raw), err)
	}
	fromJSON, err := oc.JobTrace(ctx, j.ID, replica.Net)
	if err != nil || !fromJSON.Equal(tr) {
		t.Fatalf("JobTrace via an Accept-blind worker = (equal %v, %v)", err == nil && fromJSON.Equal(tr), err)
	}
}

// TestWaitJobShedTolerant: poll responses shed by admission control
// (503/429) do not abort the wait — WaitJob backs off and keeps polling
// until the job is terminal. Non-shed errors still return immediately.
func TestWaitJobShedTolerant(t *testing.T) {
	var polls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/jobs/j1":
			// Shed the first three polls, then report done.
			if polls.Add(1) <= 3 {
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"id":"j1","state":"done"}`))
		case r.URL.Path == "/jobs/gone":
			http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()

	// MaxAttempts 1: the per-request retry layer is off, so shed handling
	// is exercised in WaitJob itself.
	c := New(ts.URL, WithRetry(fastRetry(1)))
	j, err := c.WaitJob(context.Background(), "j1", 2*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob through sheds: %v", err)
	}
	if j.State != jobs.StateDone || polls.Load() != 4 {
		t.Fatalf("WaitJob = %+v after %d polls, want done after 4", j, polls.Load())
	}

	var ae *APIError
	if _, err := c.WaitJob(context.Background(), "gone", time.Millisecond); !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("WaitJob on missing job = %v, want immediate 404", err)
	}
}

// TestCancelJobConflict: cancelling a finished job surfaces the 409.
func TestCancelJobConflict(t *testing.T) {
	ts := newAsyncServer(t)
	c := New(ts.URL, WithRetry(fastRetry(2)))
	ctx := context.Background()

	results, err := c.RunAsync(ctx, 0, "default")
	if err != nil || len(results) == 0 {
		t.Fatalf("RunAsync = (%v, %v)", results, err)
	}
	list, err := c.Jobs(ctx)
	if err != nil || len(list.Jobs) == 0 {
		t.Fatalf("Jobs = (%+v, %v)", list, err)
	}
	_, err = c.CancelJob(ctx, list.Jobs[0].ID)
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusConflict {
		t.Fatalf("CancelJob on finished job = %v, want 409", err)
	}
	if !strings.Contains(ae.Message, "already") {
		t.Fatalf("409 message = %q", ae.Message)
	}
}
