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

// shedding answers every request with a shed carrying the given
// Retry-After header and counts the requests it sees.
func shedding(t *testing.T, status int, retryAfter string) (*httptest.Server, *atomic.Int32) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", retryAfter)
		w.WriteHeader(status)
	}))
	t.Cleanup(ts.Close)
	return ts, &calls
}

// TestRetryAfterSecondsForm: a shed with the delay-seconds header form
// comes back in one request as a shed *APIError carrying the hint.
func TestRetryAfterSecondsForm(t *testing.T) {
	ts, calls := shedding(t, http.StatusTooManyRequests, "1")
	_, err := New(ts.URL).NetworkStats(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) || ae.RetryAfter != time.Second {
		t.Fatalf("NetworkStats against a shed = %v, want an *APIError with RetryAfter 1s", err)
	}
	if hint, shed := IsShed(err); !shed || hint != time.Second {
		t.Fatalf("IsShed = (%v, %v), want (1s, true)", hint, shed)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("calls = %d, want 1", n)
	}
}

// TestRetryAfterDateForm: the HTTP-date header form is decoded as the
// time left until that date, in one request and uncapped — capping the
// hint is the coordinator's backoff's job.
func TestRetryAfterDateForm(t *testing.T) {
	ts, calls := shedding(t, http.StatusServiceUnavailable, time.Now().Add(time.Hour).UTC().Format(http.TimeFormat))
	_, err := New(ts.URL).NetworkStats(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("NetworkStats against a dated shed = %v, want a 503 *APIError", err)
	}
	// HTTP-dates have whole-second resolution.
	if ae.RetryAfter <= time.Hour-2*time.Second || ae.RetryAfter > time.Hour {
		t.Fatalf("RetryAfter = %v, want about an hour", ae.RetryAfter)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("calls = %d, want 1", n)
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
	c := New(ts.URL)
	ctx := context.Background()

	j, err := c.SubmitJob(ctx, "default", "internal")
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

	// A bad suite fails the submit with a 400, not a shed.
	if _, err := c.SubmitJob(ctx, "no-such-suite"); err == nil {
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
	c := New(ts.URL)
	ctx := context.Background()

	j, err := c.SubmitJob(ctx, "default", "internal")
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

	// A server that ignores Accept answers JSON: JobTraceRaw hands the
	// bytes back as they came, and the caller checks what they are.
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
	oc := New(old.URL)
	if raw, err = oc.JobTraceRaw(ctx, j.ID); err != nil || core.IsSnapshotArena(raw) {
		t.Fatalf("JobTraceRaw via an Accept-blind worker = (arena %v, %v), want JSON", core.IsSnapshotArena(raw), err)
	}
	fromJSON, err := core.DecodeTraceJSON(replica.Net, bytes.NewReader(raw))
	if err != nil || !fromJSON.Equal(tr) {
		t.Fatalf("fragment via an Accept-blind worker = (equal %v, %v)", err == nil && fromJSON.Equal(tr), err)
	}
}

// TestWaitJobReturnsShed: a shed poll ends the wait with the shed
// *APIError, its Retry-After hint kept, after one request — backing off
// is the caller's retry layer's job. Other errors return the same way.
func TestWaitJobReturnsShed(t *testing.T) {
	ts, calls := shedding(t, http.StatusServiceUnavailable, "3")
	// The deadline only bounds a WaitJob that keeps polling through it.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := New(ts.URL).WaitJob(ctx, "j1", time.Millisecond)
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("WaitJob through a shed = %v, want the 503 as an *APIError", err)
	}
	if hint, shed := IsShed(err); !shed || hint != 3*time.Second {
		t.Errorf("IsShed = (%v, %v), want a shed with its 3s hint", hint, shed)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("WaitJob polled %d times, want 1", n)
	}

	gone := httptest.NewServer(http.NotFoundHandler())
	defer gone.Close()
	if _, err := New(gone.URL).WaitJob(context.Background(), "gone", time.Millisecond); !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("WaitJob on missing job = %v, want immediate 404", err)
	}
}
