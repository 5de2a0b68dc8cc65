package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
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

	// No hint falls back to the jittered exponential backoff: attempt n
	// waits within [d/2, d] for d = BaseDelay·2ⁿ⁻¹ capped at MaxDelay.
	// From attempt 38 the shift passes the int64 range (and from 64 it
	// wraps to zero) at the coordinator's 100ms base; the cap must hold.
	plain := &APIError{StatusCode: 500}
	for _, c := range []struct {
		policy  RetryPolicy
		attempt int
		max     time.Duration
	}{
		{p, 1, time.Millisecond},
		{p, 3, 4 * time.Millisecond},
		{p, 7, p.MaxDelay},
		{RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second}, 38, 2 * time.Second},
		{RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second}, 64, 2 * time.Second},
		{RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second}, 65, 2 * time.Second},
	} {
		for range 20 {
			if got := c.policy.retryDelay(c.attempt, plain); got < c.max/2 || got > c.max {
				t.Fatalf("attempt %d: retryDelay = %v, want in [%v, %v]", c.attempt, got, c.max/2, c.max)
			}
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
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	// MaxDelay 2s > hint 1s, so the hint is used as-is.
	c := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Second}))
	if _, err := c.NetworkStats(context.Background()); err != nil {
		t.Fatalf("NetworkStats after shed: %v", err)
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
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 100 * time.Millisecond}))
	if _, err := c.NetworkStats(context.Background()); err != nil {
		t.Fatalf("NetworkStats after dated shed: %v", err)
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

// TestJobHelpers drives submit and wait against a real service.
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

	var results []service.RunResult
	if err := json.Unmarshal(got.Result, &results); err != nil || len(results) != 2 {
		t.Fatalf("job result = (%d tests, %v), want 2", len(results), err)
	}

	// A bad suite fails the submit with a non-retryable 400.
	if _, err := c.SubmitJob(ctx, 0, "no-such-suite"); err == nil {
		t.Fatal("SubmitJob with bad suite should fail")
	} else if ra, shed := IsShed(err); shed {
		t.Fatalf("bad suite misclassified as shed (Retry-After %v)", ra)
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
	tr, err := core.DecodeTraceJSON(replica.Net, bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decode the fragment against a replica: %v", err)
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
	fromJSON, err := core.DecodeTraceJSON(replica.Net, bytes.NewReader(raw))
	if err != nil || !fromJSON.Equal(tr) {
		t.Fatalf("fragment via an Accept-blind worker = (equal %v, %v)", err == nil && fromJSON.Equal(tr), err)
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
