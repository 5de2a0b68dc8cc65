package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"yardstick/internal/obs"
	"yardstick/internal/promlint"
	"yardstick/internal/topogen"
)

func newWorkerServer(t *testing.T, workers int) *httptest.Server {
	t.Helper()
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(WithNetwork(rg.Net, WithLogger(discardLogger()), WithWorkers(workers)).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestMetricsEndpoint scrapes /metrics after real traffic and checks
// content type, required metric families, and lint-cleanliness.
func TestMetricsEndpoint(t *testing.T) {
	ts := newWorkerServer(t, 2)
	doJSON(t, "POST", ts.URL+"/run?suite=default,internal,connected", nil, http.StatusOK, nil)
	doJSON(t, "GET", ts.URL+"/coverage", nil, http.StatusOK, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("content type = %q, want %q", ct, obs.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"yardstick_bdd_ops_total",
		"yardstick_bdd_cache_hits_total",
		"yardstick_bdd_cache_misses_total",
		"yardstick_bdd_nodes_allocated_total",
		"yardstick_sharded_runs_total 1",
		"yardstick_sharded_worker_runs_total 2",
		"yardstick_sharded_workers 2",
		`yardstick_stage_duration_seconds_bucket{stage="service.run",le="+Inf"}`,
		`yardstick_stage_duration_seconds_bucket{stage="service.coverage",le="+Inf"}`,
		`yardstick_http_requests_total{route="/run",status="200"} 1`,
		`yardstick_http_request_duration_seconds_count{route="/coverage"} 1`,
		"yardstick_engine_nodes",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if issues := promlint.Lint(strings.NewReader(body)); len(issues) != 0 {
		t.Errorf("/metrics fails lint: %v", issues)
	}

	// BDD work must have been settled into the registry: the run's ops
	// reached /metrics through the replica flushes + the canonical flush.
	if !metricPositive(t, body, "yardstick_bdd_ops_total") {
		t.Error("yardstick_bdd_ops_total is zero after a run")
	}
}

// metricPositive reports whether the (unlabelled) sample is > 0.
func metricPositive(t *testing.T, body, name string) bool {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(line[len(name)+1:], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v > 0
		}
	}
	t.Fatalf("sample %s not found", name)
	return false
}

// TestServerTiming parses the Server-Timing header on /coverage.
func TestServerTiming(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/coverage")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	h := resp.Header.Get("Server-Timing")
	if h == "" {
		t.Fatal("no Server-Timing header on /coverage")
	}
	seen := map[string]float64{}
	for _, entry := range strings.Split(h, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ";")
		if len(parts) != 2 || !strings.HasPrefix(parts[1], "dur=") {
			t.Fatalf("malformed Server-Timing entry %q in %q", entry, h)
		}
		d, err := strconv.ParseFloat(strings.TrimPrefix(parts[1], "dur="), 64)
		if err != nil || d < 0 {
			t.Fatalf("bad duration in %q: %v", entry, err)
		}
		seen[parts[0]] = d
	}
	for _, want := range []string{"compute", "stats"} {
		if _, ok := seen[want]; !ok {
			t.Errorf("Server-Timing missing %q: %q", want, h)
		}
	}
}

// TestEngineStatsAggregation: with a worker pool, /coverage's engine
// stats must cover the replicas too — more managers, more nodes.
func TestEngineStatsAggregation(t *testing.T) {
	seq := newWorkerServer(t, 1)
	par := newWorkerServer(t, 2)
	doJSON(t, "POST", seq.URL+"/run?suite=default,internal", nil, http.StatusOK, nil)
	doJSON(t, "POST", par.URL+"/run?suite=default,internal", nil, http.StatusOK, nil)

	var seqCov, parCov CoverageReport
	doJSON(t, "GET", seq.URL+"/coverage", nil, http.StatusOK, &seqCov)
	doJSON(t, "GET", par.URL+"/coverage", nil, http.StatusOK, &parCov)

	if seqCov.Engine.Workers != 1 {
		t.Errorf("sequential Workers = %d, want 1", seqCov.Engine.Workers)
	}
	if parCov.Engine.Workers != 3 { // canonical + 2 replicas
		t.Errorf("parallel Workers = %d, want 3", parCov.Engine.Workers)
	}
	// The replicas each hold a full copy of the network's forwarding
	// state, so the aggregate node count must exceed the single-manager
	// server's.
	if parCov.Engine.Nodes <= seqCov.Engine.Nodes {
		t.Errorf("aggregated nodes = %d, want > sequential %d", parCov.Engine.Nodes, seqCov.Engine.Nodes)
	}
	if parCov.Engine.PeakNodes < seqCov.Engine.PeakNodes/2 {
		t.Errorf("aggregated peak = %d looks wrong vs sequential %d", parCov.Engine.PeakNodes, seqCov.Engine.PeakNodes)
	}
}

// TestStatsEndpoint: /stats serves the JSON debug vars.
func TestStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/run?suite=default", nil, http.StatusOK, nil)

	var st StatsReport
	doJSON(t, "GET", ts.URL+"/stats", nil, http.StatusOK, &st)
	if !st.NetworkLoaded {
		t.Error("networkLoaded = false on a loaded server")
	}
	if st.Goroutines <= 0 || st.UptimeSeconds < 0 {
		t.Errorf("implausible runtime vars: %+v", st)
	}
	if st.Engine.Nodes == 0 {
		t.Error("engine stats empty")
	}
	if st.MarkedRules == 0 {
		t.Error("trace empty after a run")
	}
	if len(st.Metrics) == 0 {
		t.Error("metrics snapshot empty after traffic")
	}
	for _, m := range st.Metrics {
		if m.Name == "yardstick_http_requests_total" {
			return
		}
	}
	t.Error("http request counter missing from /stats metrics")
}
