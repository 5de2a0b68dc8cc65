package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
)

// TestInflightCapSheds drives the admit wrapper directly: with a cap of
// 1, a second concurrent request is shed with 429 + Retry-After while
// the first is still in the handler.
func TestInflightCapSheds(t *testing.T) {
	s := New(WithLogger(discardLogger()), WithAdmission(1))
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	h := s.admit("/test", func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(entered) })
		<-release // closed after the shed is observed; later requests pass through
		w.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("admitted request = %d, want 200", resp.StatusCode)
		}
	}()
	<-entered // the slot is taken

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap request = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	close(release)
	wg.Wait()

	// The slot frees: the next request is admitted again.
	resp2, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-release request = %d, want 200", resp2.StatusCode)
	}
	if s.shedTotals.Inflight.Load() != 1 {
		t.Fatalf("inflight shed total = %d, want 1", s.shedTotals.Inflight.Load())
	}
}

// TestDraining: once draining, heavy endpoints shed with 503 +
// Retry-After, /readyz reports the reason, and observability endpoints
// stay reachable; un-draining restores admission.
func TestDraining(t *testing.T) {
	srv, ts := newJobServer(t)
	srv.SetDraining(true)

	for _, ep := range []struct{ method, path string }{
		{http.MethodPatch, "/network"},
		{http.MethodPost, "/jobs?suite=default"},
		{http.MethodGet, "/coverage"},
		{http.MethodGet, "/gaps"},
	} {
		req, _ := http.NewRequest(ep.method, ts.URL+ep.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("draining %s %s = %d, want 503", ep.method, ep.path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("draining %s %s missing Retry-After", ep.method, ep.path)
		}
	}

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ready ReadyReport
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || ready.Reason != "draining" {
		t.Fatalf("/readyz draining = %d %+v", resp.StatusCode, ready)
	}

	// Cheap observability endpoints stay reachable while draining.
	for _, path := range []string{"/healthz", "/metrics", "/stats", "/jobs"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("draining GET %s = %d, want 200", path, resp.StatusCode)
		}
	}

	// Un-draining restores admission: a job is accepted and runs.
	srv.SetDraining(false)
	runSuite(t, ts.URL, "default")
}

// TestReadyzNoNetworkReason: an empty server reports why it is unready.
func TestReadyzNoNetworkReason(t *testing.T) {
	ts := httptest.NewServer(New(WithLogger(discardLogger())).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ready ReadyReport
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || ready.Reason != "no_network" {
		t.Fatalf("/readyz = %d %+v, want 503 no_network", resp.StatusCode, ready)
	}
}
