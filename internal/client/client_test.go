package client

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"yardstick/internal/core"
	"yardstick/internal/jobs"
	"yardstick/internal/service"
	"yardstick/internal/topogen"
)

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
	c := New(ts.URL)

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

	j, err := c.SubmitJob(ctx, "default", "internal")
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

// countingTransport counts the round trips a client makes.
type countingTransport struct{ n atomic.Int32 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// TestOneRoundTripPerCall: the client retries nothing. Whatever the
// server answers — a client error, a shed, a server error — and when
// nothing listens at all, every call makes exactly one request and
// surfaces the failure; a status comes back as an *APIError carrying the
// server's message.
func TestOneRoundTripPerCall(t *testing.T) {
	ctx := context.Background()
	calls := []struct {
		name string
		call func(*Client) error
	}{
		{"LoadNetworkJSON", func(c *Client) error { _, err := c.LoadNetworkJSON(ctx, []byte(`{}`)); return err }},
		{"NetworkStats", func(c *Client) error { _, err := c.NetworkStats(ctx); return err }},
		{"Stats", func(c *Client) error { _, err := c.Stats(ctx); return err }},
		{"SubmitJob", func(c *Client) error { _, err := c.SubmitJob(ctx, "default"); return err }},
		{"JobTraceRaw", func(c *Client) error { _, err := c.JobTraceRaw(ctx, "j1"); return err }},
		{"JobProfileRaw", func(c *Client) error { _, err := c.JobProfileRaw(ctx, "j1"); return err }},
	}
	for _, tc := range []struct {
		name   string
		status int // 0: nothing listens
	}{
		{"400", http.StatusBadRequest},
		{"429", http.StatusTooManyRequests},
		{"500", http.StatusInternalServerError},
		{"503", http.StatusServiceUnavailable},
		{"closed-port", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var served atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				served.Add(1)
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(tc.status)
				w.Write([]byte(`{"error":"no good"}`))
			}))
			defer ts.Close()
			if tc.status == 0 {
				ts.Close() // now nothing listens there
			}
			for _, cl := range calls {
				rt := &countingTransport{}
				served.Store(0)
				err := cl.call(New(ts.URL, WithHTTPClient(&http.Client{Transport: rt})))
				if err == nil {
					t.Fatalf("%s succeeded against a failing server", cl.name)
				}
				if n := rt.n.Load(); n != 1 {
					t.Errorf("%s made %d requests, want 1", cl.name, n)
				}
				var ae *APIError
				if tc.status == 0 {
					if errors.As(err, &ae) {
						t.Errorf("%s against a closed port = %v, want a transport error", cl.name, err)
					}
					continue
				}
				if n := served.Load(); n != 1 {
					t.Errorf("%s: server saw %d requests, want 1", cl.name, n)
				}
				if !errors.As(err, &ae) || ae.StatusCode != tc.status || ae.Message != "no good" {
					t.Errorf("%s = %v, want an *APIError with status %d and the server's message", cl.name, err, tc.status)
				}
			}
		})
	}
}

// hungServer accepts every request and never answers it.
func hungServer(t *testing.T) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // hang until the client gives up
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestContextCancellation: the client sets no deadline of its own, so a
// call to a hung server lasts until the caller cancels — and then returns
// promptly with context.Canceled.
func TestContextCancellation(t *testing.T) {
	c := New(hungServer(t).URL)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.NetworkStats(ctx)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("call to a hung server returned %v before the caller cancelled", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client did not honor context cancellation")
	}
}

// TestPerRequestTimeout: a deadline on the caller's context bounds a
// call to a hung server.
func TestPerRequestTimeout(t *testing.T) {
	c := New(hungServer(t).URL)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.NetworkStats(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("timed out too slowly: %v", elapsed)
	}
}

// TestReadBodyBound: a body is read through a bound on its decoded size.
// A declared length past it is refused unread; a gzip body the transport
// inflates past it fails once the bound is passed, however few bytes
// crossed the wire; a truncated or corrupt gzip stream fails; a body at
// the bound reads whole.
func TestReadBodyBound(t *testing.T) {
	const limit = 1 << 16
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	zw.Write(make([]byte, 64*limit))
	zw.Close()
	bomb := bytes.Clone(zipped.Bytes())
	zipped.Reset()
	zw.Reset(&zipped)
	for i := range limit / 16 {
		fmt.Fprintf(zw, "%015d\n", i)
	}
	zw.Close()
	small := zipped.Bytes()
	corrupt := bytes.Clone(small)
	corrupt[len(corrupt)/2] ^= 0xff
	exact := make([]byte, limit)
	for _, tc := range []struct {
		name string
		enc  string
		body []byte
		// declare is the Content-Length sent (0: the body's own).
		declare int
		wantErr bool
	}{
		{"at the bound", "", exact, 0, false},
		{"declared past the bound", "", exact[:10], limit + 1, true},
		{"inflates past the bound", "gzip", bomb, 0, true},
		{"truncated gzip", "gzip", small[:len(small)/2], 0, true},
		{"corrupt gzip", "gzip", corrupt, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.enc != "" {
					w.Header().Set("Content-Encoding", tc.enc)
				}
				n := len(tc.body)
				if tc.declare != 0 {
					n = tc.declare
				}
				w.Header().Set("Content-Length", strconv.Itoa(n))
				w.Write(tc.body)
			}))
			defer ts.Close()
			resp, err := http.Get(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if tc.enc != "" && resp.ContentLength >= 0 {
				t.Fatalf("the transport did not inflate the gzip body (Content-Length %d)", resp.ContentLength)
			}
			data, err := readBody(resp, limit)
			if (err != nil) != tc.wantErr {
				t.Fatalf("readBody = (%d bytes, %v), want error %v", len(data), err, tc.wantErr)
			}
			if overBound := strings.Contains(tc.name, "past the bound"); err != nil && strings.Contains(err.Error(), "bound") != overBound {
				t.Fatalf("readBody error %q; want the bound named %v", err, overBound)
			}
			if !tc.wantErr && !bytes.Equal(data, tc.body) {
				t.Fatal("body read differs from the body sent")
			}
		})
	}
}
