package obs

import (
	"bytes"
	"encoding/json"
	"math"
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
		pairs, err := ParseLabelSig(m.Labels)
		if err != nil {
			t.Fatalf("series %s has unparseable labels %q: %v", m.Name, m.Labels, err)
		}
		node := ""
		for _, p := range pairs {
			if p[0] == "node" {
				node = p[1]
			}
		}
		if node == "" {
			t.Errorf("series %s{%s} missing node label", m.Name, m.Labels)
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
		if strings.Contains(m.Labels, `node="dead"`) {
			t.Fatalf("stale node's series still exposed: %s{%s}", m.Name, m.Labels)
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

func TestParseLabelSig(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c", "path", `with"quote`, "esc", "back\\slash", "nl", "a\nb").Inc()
	sig := reg.Snapshot()[0].Labels

	pairs, err := ParseLabelSig(sig)
	if err != nil {
		t.Fatalf("canonical sig %q failed to parse: %v", sig, err)
	}
	if len(pairs) != 3 {
		t.Fatalf("pairs = %v", pairs)
	}
	// Parsing must be the inverse of rendering: re-rendering reproduces
	// the signature byte for byte.
	if got := renderRawSig(pairs); got != sig {
		t.Errorf("re-rendered %q != original %q", got, sig)
	}

	for _, bad := range []string{
		`x`, `="v"`, `k="unterminated`, `k="v"x="y"`,
		`a b="x"`, `0k="v"`, `k:x="v"`, `k="v",k="w"`, `k="a\q"`, `k="a\`, "k=\"a\nb\"",
	} {
		if _, err := ParseLabelSig(bad); err == nil {
			t.Errorf("ParseLabelSig(%q) accepted malformed input", bad)
		}
	}
}

func TestInjectLabel(t *testing.T) {
	cases := []struct{ sig, want string }{
		{"", `node="n1"`},
		{`route="/run"`, `node="n1",route="/run"`},
		{`node="old",route="/run"`, `node="n1",route="/run"`}, // override wins
		{`zzz="1"`, `node="n1",zzz="1"`},                      // sorted splice
	}
	for _, c := range cases {
		if got, err := InjectLabel(c.sig, "node", "n1"); err != nil || got != c.want {
			t.Errorf("InjectLabel(%q) = (%q, %v), want %q", c.sig, got, err, c.want)
		}
	}
	// A corrupt signature is an error: the caller drops the series.
	if got, err := InjectLabel("corrupt", "node", "n1"); err == nil {
		t.Errorf("InjectLabel(corrupt) = %q, want an error", got)
	}
	// Values needing escapes must come out in canonical escaped form.
	if got, _ := InjectLabel("", "node", `a"b`); got != `node="a\"b"` {
		t.Errorf("escaped inject = %q", got)
	}
}

func TestMergeMetrics(t *testing.T) {
	a := []Metric{
		{Name: "m", Type: "counter", Labels: `node="a"`, Value: 1},
		{Name: "zz", Type: "gauge", Labels: "", Value: 5},
	}
	b := []Metric{
		{Name: "m", Type: "counter", Labels: `node="b"`, Value: 2},
		{Name: "m", Type: "counter", Labels: `node="a"`, Value: 9}, // duplicate series
		{Name: "zz", Type: "counter", Labels: `x="1"`, Value: 3},   // type conflict
		{Name: "h", Type: "histogram", Labels: `node="b"`, Count: 0, Buckets: []Bucket{{LE: math.Inf(1)}}},
		{Name: "h_count", Type: "gauge", Labels: `node="b"`, Value: 1}, // shadows h's _count line
	}
	merged, dropped := MergeMetrics(a, b)
	if dropped != 3 {
		t.Errorf("dropped = %d, want 3", dropped)
	}
	if len(merged) != 4 {
		t.Fatalf("merged = %v", merged)
	}
	if merged[1].Labels != `node="a"` || merged[1].Value != 1 {
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
// each used to break the whole exposition.
func FuzzFederationIngest(f *testing.F) {
	for _, m := range []Metric{
		{Name: "m", Type: "counter", Labels: `a b="x"`, Value: 1},
		{Name: "m", Type: "counter", Labels: `0k="v"`, Value: 1},
		{Name: "m", Type: "counter", Labels: `k="v",k="w"`, Value: 1},
		{Name: "m", Type: "counter", Labels: `k="a\q"`, Value: 1},
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
		var buf bytes.Buffer
		if err := WritePrometheusMetrics(&buf, native.Help(), merged); err != nil {
			t.Fatal(err)
		}
		if issues := promlint.Lint(bytes.NewReader(buf.Bytes())); len(issues) > 0 {
			t.Fatalf("exposition of %s is not promlint-clean: %v\n%s", data, issues, buf.Bytes())
		}
	})
}
