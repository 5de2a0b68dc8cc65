package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"yardstick/internal/promlint"
)

func workerSnapshot(reqs float64) []Metric {
	reg := NewRegistry()
	reg.Counter("yardstick_http_requests_total", "route", "/run", "status", "200").Add(uint64(reqs))
	reg.Gauge("yardstick_jobs_running").Set(2)
	reg.Histogram("yardstick_http_request_duration_seconds", DefBuckets, "route", "/run").Observe(0.03)
	return reg.Snapshot()
}

func TestFederationNodeLabel(t *testing.T) {
	fed := NewFederation(time.Minute)
	now := time.Now()
	fed.Ingest("http://a:8081", workerSnapshot(5), now)
	fed.Ingest("http://b:8082", workerSnapshot(7), now)

	snap := fed.Snapshot(now)
	if len(snap) == 0 {
		t.Fatal("empty federation snapshot")
	}
	// Every series carries exactly its node label; same-named series from
	// different nodes must not collide.
	counters := map[string]float64{}
	for _, m := range snap {
		node := m.Labels["node"]
		if node == "" {
			t.Errorf("series %s%v missing node label", m.Name, m.Labels)
		}
		if m.Name == "yardstick_http_requests_total" {
			counters[node] = m.Value
		}
	}
	if counters["http://a:8081"] != 5 || counters["http://b:8082"] != 7 {
		t.Errorf("per-node counters = %v", counters)
	}
}

func TestFederationReplacesWholesale(t *testing.T) {
	// A worker restart resets its counters. The federated reading must
	// follow the node down, never accumulate across scrapes.
	fed := NewFederation(time.Minute)
	now := time.Now()
	fed.Ingest("n1", workerSnapshot(100), now)
	fed.Ingest("n1", workerSnapshot(3), now.Add(time.Second)) // restarted

	for _, m := range fed.Snapshot(now.Add(time.Second)) {
		if m.Name == "yardstick_http_requests_total" && m.Value != 3 {
			t.Errorf("restarted node's counter = %v, want 3 (no accumulation)", m.Value)
		}
	}
}

func TestFederationStaleness(t *testing.T) {
	fed := NewFederation(10 * time.Second)
	t0 := time.Now()
	fed.Ingest("alive", workerSnapshot(1), t0)
	fed.Ingest("dead", workerSnapshot(2), t0)

	// Within maxAge both are visible.
	if got := fed.Nodes(t0.Add(5 * time.Second)); len(got) != 2 {
		t.Fatalf("fresh nodes = %v, want 2", got)
	}

	// "dead" stops being scraped; "alive" keeps refreshing.
	t1 := t0.Add(15 * time.Second)
	fed.Ingest("alive", workerSnapshot(9), t1)
	if got := fed.Nodes(t1); len(got) != 1 || got[0] != "alive" {
		t.Fatalf("nodes after aging = %v, want [alive]", got)
	}
	for _, m := range fed.Snapshot(t1) {
		if m.Labels["node"] == "dead" {
			t.Fatalf("stale node's series still exposed: %s%v", m.Name, m.Labels)
		}
	}

	// Revival: a node that answers again is immediately fresh, with its
	// new (reset) readings.
	t2 := t1.Add(time.Minute)
	fed.Ingest("dead", workerSnapshot(1), t2)
	fed.Ingest("alive", workerSnapshot(9), t2)
	if got := fed.Nodes(t2); len(got) != 2 {
		t.Fatalf("nodes after revival = %v, want 2", got)
	}
}

// wire round-trips a snapshot through JSON, as GET /stats carries it.
func wire(t testing.TB, ms []Metric) []Metric {
	t.Helper()
	data, err := json.Marshal(ms)
	if err != nil {
		t.Fatal(err)
	}
	var out []Metric
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// exposition writes ms and fails the test unless promlint accepts it.
func exposition(t testing.TB, help map[string]string, ms []Metric) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePrometheusMetrics(&buf, help, ms); err != nil {
		t.Fatal(err)
	}
	if issues := promlint.Lint(bytes.NewReader(buf.Bytes())); len(issues) > 0 {
		t.Fatalf("exposition is not promlint-clean: %v\n%s", issues, buf.Bytes())
	}
	return buf.String()
}

// TestSnapshotWireRoundTrip: a snapshot that crosses the wire as JSON
// writes the same exposition bytes as the registry it came from — raw
// label values (quote, backslash, newline) and histograms (finite
// buckets, +Inf from Count) survive the trip.
func TestSnapshotWireRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c", "path", `with"quote`, "esc", `back\slash`, "nl", "a\nb").Inc()
	reg.Histogram("h", []float64{0.5, 1}, "stage", "eval").Observe(3)
	var want strings.Builder
	if err := reg.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	got := exposition(t, reg.Help(), wire(t, reg.Snapshot()))
	if got != want.String() {
		t.Errorf("wire round trip changed the exposition:\n--- got ---\n%s--- want ---\n%s", got, want.String())
	}
}

// TestIngestNodeLabel: Ingest sets node on every series it keeps —
// overriding a worker's own node label, leaving the caller's maps alone
// — and drops a series the exposition cannot carry: a bad label name, a
// histogram's own le, a bucket above the +Inf count.
func TestIngestNodeLabel(t *testing.T) {
	own := map[string]string{"node": "old", "zzz": "1"}
	fed := NewFederation(time.Minute)
	now := time.Now()
	fed.Ingest(`n"1`, []Metric{
		{Name: "a", Type: "counter", Value: 1},
		{Name: "b", Type: "counter", Labels: own, Value: 2},
		{Name: "c", Type: "counter", Labels: map[string]string{"a b": "x"}, Value: 3},
		{Name: "d", Type: "counter", Labels: map[string]string{"0k": "v"}, Value: 4},
		{Name: "e", Type: "histogram", Labels: map[string]string{"le": "1"}, Count: 1},
		{Name: "f", Type: "histogram", Count: 1, Buckets: []Bucket{{LE: 1, Count: 2}}},
	}, now)
	if own["node"] != "old" || len(own) != 2 {
		t.Errorf("Ingest modified the caller's labels: %v", own)
	}
	want := `# HELP a a
# TYPE a counter
a{node="n\"1"} 1
# HELP b b
# TYPE b counter
b{node="n\"1",zzz="1"} 2
`
	if got := exposition(t, nil, fed.Snapshot(now)); got != want {
		t.Errorf("federated exposition:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFederatedLabelEscapedOnce: a worker label value holding a
// backslash, a quote and a newline crosses the wire raw and is escaped
// exactly once, in the fleet exposition.
func TestFederatedLabelEscapedOnce(t *testing.T) {
	worker := NewRegistry()
	worker.Counter("yardstick_http_requests_total", "route", "a\\b\"c\nd").Add(2)
	fed := NewFederation(time.Minute)
	now := time.Now()
	fed.Ingest("n1", wire(t, worker.Snapshot()), now)
	out := exposition(t, nil, fed.Snapshot(now))
	if want := `yardstick_http_requests_total{node="n1",route="a\\b\"c\nd"} 2` + "\n"; !strings.Contains(out, want) {
		t.Errorf("exposition lacks %q:\n%s", want, out)
	}
}

// TestOldSnapshotRejected: a snapshot from a worker that still sends
// labels as one escaped string, or a "+Inf" bucket edge, does not
// decode — the coordinator counts a failed scrape instead of federating
// a guess.
func TestOldSnapshotRejected(t *testing.T) {
	for _, body := range []string{
		`[{"name":"m","type":"counter","labels":"k=\"v\"","value":1}]`,
		`[{"name":"h","type":"histogram","count":1,"buckets":[{"le":"+Inf","count":1}]}]`,
	} {
		var ms []Metric
		if err := json.Unmarshal([]byte(body), &ms); err == nil {
			t.Errorf("old snapshot %s decoded to %+v", body, ms)
		}
	}
}

func TestMergeMetrics(t *testing.T) {
	na := map[string]string{"node": "a"}
	nb := map[string]string{"node": "b"}
	a := []Metric{
		{Name: "m", Type: "counter", Labels: na, Value: 1},
		{Name: "zz", Type: "gauge", Value: 5},
	}
	b := []Metric{
		{Name: "m", Type: "counter", Labels: nb, Value: 2},
		{Name: "m", Type: "counter", Labels: map[string]string{"node": "a"}, Value: 9}, // duplicate series
		{Name: "zz", Type: "counter", Labels: map[string]string{"x": "1"}, Value: 3},   // type conflict
		{Name: "h", Type: "histogram", Labels: nb},
		{Name: "h_count", Type: "gauge", Labels: nb, Value: 1}, // shadows h's _count line
	}
	merged, dropped := MergeMetrics(a, b)
	if dropped != 3 {
		t.Errorf("dropped = %d, want 3", dropped)
	}
	if len(merged) != 4 {
		t.Fatalf("merged = %v", merged)
	}
	if merged[1].Labels["node"] != "a" || merged[1].Value != 1 {
		t.Errorf("first source must win duplicates: %+v", merged[1])
	}
	// Output must be sorted by name then labels (the exposition-order
	// contract promlint enforces).
	for i, want := range []string{"h", "m", "m", "zz"} {
		if merged[i].Name != want {
			t.Errorf("merge order: %v", merged)
		}
	}
}

func TestFederatedExpositionLints(t *testing.T) {
	// End to end: two workers' snapshots plus native coordinator-style
	// series, merged and written, must be a valid exposition. (The CI
	// cluster-smoke runs the real promlint binary against the live
	// coordinator; this pins the same property in-process.)
	native := NewRegistry()
	native.Counter("yardstick_coord_dispatch_total", "node", "n1", "outcome", "success").Inc()
	native.Gauge("yardstick_coord_breaker_state", "node", "n1").Set(0)

	fed := NewFederation(time.Minute)
	now := time.Now()
	fed.Ingest("n1", workerSnapshot(4), now)
	fed.Ingest("n2", workerSnapshot(6), now)

	merged, dropped := MergeMetrics(native.Snapshot(), fed.Snapshot(now))
	if dropped != 0 {
		t.Fatalf("unexpected drops: %d", dropped)
	}
	var buf bytes.Buffer
	if err := WritePrometheusMetrics(&buf, native.Help(), merged); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Families must be contiguous: every TYPE line appears exactly once.
	seenType := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name := strings.Fields(line)[2]
		if seenType[name] {
			t.Fatalf("family %s split across the exposition:\n%s", name, out)
		}
		seenType[name] = true
	}
	for _, want := range []string{`node="n1"`, `node="n2"`, "yardstick_coord_dispatch_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// FuzzFederationIngest: whatever a worker's /stats metric snapshot
// decodes to, the coordinator's merged exposition stays promlint-clean —
// the bad series are dropped, the rest render. The seeds are series that
// each would break the whole exposition if rendered, and a label value
// that needs every escape.
func FuzzFederationIngest(f *testing.F) {
	for _, m := range []Metric{
		{Name: "m", Type: "counter", Labels: map[string]string{"a b": "x"}, Value: 1},
		{Name: "m", Type: "counter", Labels: map[string]string{"0k": "v"}, Value: 1},
		{Name: "h", Type: "histogram", Labels: map[string]string{"le": "1"}, Count: 1, Buckets: []Bucket{{LE: 1, Count: 1}}},
		{Name: "h", Type: "histogram", Count: 2, Buckets: []Bucket{{LE: 2, Count: 1}, {LE: 1, Count: 2}}},
		{Name: "m", Type: "counter", Labels: map[string]string{"k": "a\\b\"c\nd"}, Value: 1},
		{Name: "bad name", Type: "gauge", Value: 1},
		{Name: "m", Type: "weird", Value: 1},
		{Name: "yardstick_coord_shard_seconds_count", Type: "gauge", Value: 1},
	} {
		seed, err := json.Marshal([]Metric{m})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	good, err := json.Marshal(workerSnapshot(3))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Fuzz(func(t *testing.T, data []byte) {
		var ms []Metric
		if json.Unmarshal(data, &ms) != nil {
			return
		}
		// The coordinator's own series, which a worker's may collide with.
		native := NewRegistry()
		native.Counter("yardstick_coord_dispatch_total", "node", "n1", "outcome", "success").Inc()
		native.Histogram("yardstick_coord_shard_seconds", DefBuckets, "suite", "default").Observe(0.2)

		fed := NewFederation(time.Minute)
		now := time.Now()
		fed.Ingest("n1", ms, now)
		fed.Ingest("n2", workerSnapshot(2), now)
		merged, _ := MergeMetrics(native.Snapshot(), fed.Snapshot(now))
		exposition(t, native.Help(), merged)
	})
}
