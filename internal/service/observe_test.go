package service

import (
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"yardstick/internal/obs"
	"yardstick/internal/promlint"
)

// TestMetricsEndpoint scrapes /metrics after real traffic and checks
// content type, required metric families, and lint-cleanliness.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newJobServer(t, WithWorkers(2))
	runSuite(t, ts.URL, "default,internal,connected")
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
		`yardstick_stage_duration_seconds_bucket{stage="service.job",le="+Inf"}`,
		`yardstick_stage_duration_seconds_bucket{stage="service.coverage",le="+Inf"}`,
		`yardstick_http_requests_total{route="/jobs",status="202"} 1`,
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
	if v, _ := sampleValue(t, body, "yardstick_bdd_ops_total"); v <= 0 {
		t.Error("yardstick_bdd_ops_total is zero after a run")
	}
	// Every engine gauge is described, not just named.
	for _, name := range []string{
		"yardstick_engine_nodes", "yardstick_engine_unique_slots", "yardstick_engine_unique_load",
		"yardstick_engine_cache_slots", "yardstick_engine_satfrac_entries", "yardstick_sharded_workers",
	} {
		if strings.Contains(body, "# HELP "+name+" "+name+"\n") || !strings.Contains(body, "# HELP "+name+" ") {
			t.Errorf("/metrics has no HELP text for %s", name)
		}
	}
}

// scrape returns the body of GET base/metrics.
func scrape(t *testing.T, base string) string {
	t.Helper()
	return string(getBody(t, base+"/metrics"))
}

// sampleValue returns the value of the sample whose name and label set
// are exactly series (labels as exposed, sorted by name, e.g.
// `yardstick_http_shed_total{reason="inflight",route="/jobs"}`) and
// whether body exposes it at all.
func sampleValue(t *testing.T, body, series string) (float64, bool) {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return f, true
		}
	}
	return 0, false
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

// TestEngineStatsAggregation: the BDD counters in /metrics cover the
// replicas too — each shard flushes its replica's allocations — so after
// the same job a two-worker server has allocated more nodes than a
// sequential one.
func TestEngineStatsAggregation(t *testing.T) {
	_, seq := newJobServer(t)
	_, par := newJobServer(t, WithWorkers(2))
	runSuite(t, seq.URL, "default,internal")
	runSuite(t, par.URL, "default,internal")

	const nodes = "yardstick_bdd_nodes_allocated_total"
	seqNodes, _ := sampleValue(t, scrape(t, seq.URL), nodes)
	parNodes, _ := sampleValue(t, scrape(t, par.URL), nodes)
	if seqNodes <= 0 || parNodes <= seqNodes {
		t.Errorf("%s: two workers %v, sequential %v; want more with the replicas", nodes, parNodes, seqNodes)
	}
}

// TestEngineGaugesMatchCanonicalSpace: after a job, each gauge of the
// canonical manager's table geometry equals what the space reports.
func TestEngineGaugesMatchCanonicalSpace(t *testing.T) {
	srv, ts := newJobServer(t)
	runSuite(t, ts.URL, "default,internal")
	body := scrape(t, ts.URL)
	srv.mu.Lock()
	st := srv.eng.Net().Space.EngineStats()
	srv.mu.Unlock()
	for series, want := range map[string]float64{
		"yardstick_engine_nodes":           float64(st.Nodes),
		"yardstick_engine_unique_slots":    float64(st.UniqueSlots),
		"yardstick_engine_unique_load":     st.UniqueLoad,
		"yardstick_engine_cache_slots":     float64(st.CacheSlots),
		"yardstick_engine_satfrac_entries": float64(st.SatFracEntries),
	} {
		if got, ok := sampleValue(t, body, series); !ok || got != want {
			t.Errorf("%s = %v (exposed %v), want %v", series, got, ok, want)
		}
	}
}

// TestMetricsAnswersWhileLocked: a scrape never waits for the server
// lock, which a job holds for its whole run.
func TestMetricsAnswersWhileLocked(t *testing.T) {
	srv, ts := newJobServer(t)
	runSuite(t, ts.URL, "default")
	srv.mu.Lock()
	defer srv.mu.Unlock()
	c := &http.Client{Timeout: time.Second}
	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics with the lock held: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics with the lock held = %d, want 200", resp.StatusCode)
	}
}

// TestStatsEndpoint: /stats serves the JSON debug vars.
func TestStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	runSuite(t, ts.URL, "default")

	var st StatsReport
	doJSON(t, "GET", ts.URL+"/stats", nil, http.StatusOK, &st)
	if st.Goroutines <= 0 || st.UptimeSeconds < 0 {
		t.Errorf("implausible runtime vars: %+v", st)
	}
	if st.MarkedRules == 0 {
		t.Error("trace empty after a run")
	}
	if len(st.Metrics) == 0 {
		t.Error("metrics snapshot empty after traffic")
	}
	seen := map[string]float64{}
	for _, m := range st.Metrics {
		seen[m.Name] = m.Value
	}
	if _, ok := seen["yardstick_http_requests_total"]; !ok {
		t.Error("http request counter missing from /stats metrics")
	}
	if seen["yardstick_engine_nodes"] <= 0 {
		t.Error("/stats metrics snapshot has no engine node count after a run")
	}
}

// TestSelfReportKeys pins what /coverage and /stats carry: the coverage
// table, and the facts no series carries plus the federated snapshot.
// Everything the daemon counts about itself lives in /metrics only.
func TestSelfReportKeys(t *testing.T) {
	ts, _ := newTestServer(t)
	runSuite(t, ts.URL, "default")
	for path, want := range map[string][]string{
		"/coverage": {"byRole", "total"},
		"/stats":    {"delta", "goroutines", "inflight", "markedRules", "metrics", "traceLocations", "uptimeSeconds"},
	} {
		var body map[string]json.RawMessage
		if err := json.Unmarshal(getBody(t, ts.URL+path), &body); err != nil {
			t.Fatal(err)
		}
		var got []string
		for k := range body {
			got = append(got, k)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s keys = %v, want %v", path, got, want)
		}
	}
}
