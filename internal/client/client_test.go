package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"yardstick/internal/core"
	"yardstick/internal/jobs"
	"yardstick/internal/service"
	"yardstick/internal/topogen"
)

func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

func buildNet(t *testing.T) *topogen.Regional {
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

func quiet() service.Option {
	return service.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
}

// TestEndToEnd drives every method against a real, initially empty
// service: push the network, read its stats, run a job to completion,
// fetch both job artifacts, and read the service's own stats.
func TestEndToEnd(t *testing.T) {
	rg := buildNet(t)
	var netJSON bytes.Buffer
	if err := rg.Net.EncodeJSON(&netJSON); err != nil {
		t.Fatal(err)
	}
	srv := service.New(quiet())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); srv.RunJobs(ctx) }()
	defer func() { cancel(); <-done }()
	c := New(ts.URL, WithRetry(fastRetry(2)))

	var ae *APIError
	if _, err := c.NetworkStats(ctx); !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("NetworkStats before a network = %v, want 404", err)
	}
	st, err := c.LoadNetworkJSON(ctx, netJSON.Bytes())
	if err != nil {
		t.Fatalf("LoadNetworkJSON: %v", err)
	}
	if st.Devices != rg.Net.Stats().Devices || st.Fingerprint == "" {
		t.Errorf("LoadNetworkJSON stats = %+v", st)
	}
	if got, err := c.NetworkStats(ctx); err != nil || got.Fingerprint != st.Fingerprint {
		t.Fatalf("NetworkStats = (%+v, %v), want fingerprint %s", got, err, st.Fingerprint)
	}

	j, err := c.SubmitJob(ctx, 0, "default", "internal")
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if j, err = c.WaitJob(ctx, j.ID, time.Millisecond); err != nil || j.State != jobs.StateDone {
		t.Fatalf("WaitJob = (%+v, %v), want done", j, err)
	}
	if raw, err := c.JobTraceRaw(ctx, j.ID); err != nil || !core.IsSnapshotArena(raw) {
		t.Fatalf("JobTraceRaw = (%d bytes, %v), want a YSS1 arena", len(raw), err)
	}
	prof, err := c.JobProfileRaw(ctx, j.ID)
	if err != nil || !json.Valid(prof) || len(prof) < 3 {
		t.Fatalf("JobProfileRaw = (%q, %v), want a JSON profile", prof, err)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if len(stats.Metrics) == 0 {
		t.Error("Stats carries no metric snapshot")
	}
}

// TestRetriesTransientFailures serves two 503s before succeeding: the
// client must retry through them with backoff and succeed.
func TestRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "flaky", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"devices":1}`))
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetry(fastRetry(5)))
	if st, err := c.NetworkStats(context.Background()); err != nil || st.Devices != 1 {
		t.Fatalf("NetworkStats through flaky server = (%+v, %v)", st, err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server calls = %d, want 3 (two failures + success)", got)
	}
}

func TestRetriesConnectionErrors(t *testing.T) {
	// A server that is down for the first attempts: simulate by
	// starting the listener only after the first connection failures —
	// simpler and deterministic: point at a closed port, expect the
	// retry loop to exhaust and report the attempts.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	addr := ts.URL
	ts.Close() // now nothing listens there

	c := New(addr, WithRetry(fastRetry(3)))
	_, err := c.NetworkStats(context.Background())
	if err == nil {
		t.Fatal("expected error against closed port")
	}
	if !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Errorf("error should report exhausted attempts, got: %v", err)
	}
}

// TestNoRetryOn4xx: client errors are the caller's bug; exactly one
// attempt is made and the APIError is surfaced.
func TestNoRetryOn4xx(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"bad suite"}`))
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetry(fastRetry(5)))
	_, err := c.SubmitJob(context.Background(), 0, "bogus")
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("want *APIError, got %v", err)
	}
	if ae.StatusCode != http.StatusBadRequest || ae.Message != "bad suite" {
		t.Errorf("APIError = %+v", ae)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server calls = %d, want 1 (no retries on 4xx)", got)
	}
}

// TestContextCancellation: a canceled context stops the retry loop
// promptly, even mid-backoff.
func TestContextCancellation(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "always down", http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 100, BaseDelay: time.Hour, MaxDelay: time.Hour}))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.NetworkStats(ctx)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the first attempt fail and enter backoff
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client did not honor context cancellation during backoff")
	}
}

// TestPerRequestTimeout: a hung server trips the per-attempt timeout
// rather than blocking forever.
func TestPerRequestTimeout(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // hang until the client gives up
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetry(fastRetry(2)), WithRequestTimeout(50*time.Millisecond))
	start := time.Now()
	_, err := c.NetworkStats(context.Background())
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("timed out too slowly: %v", elapsed)
	}
}
