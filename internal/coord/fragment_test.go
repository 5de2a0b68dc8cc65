package coord

// Tests of the fleet's wire path: YSS1 fragments negotiated on Accept,
// merge-as-they-land on the coordinator's one BDD space, and the
// fingerprint-gated network push.

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/netip"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"yardstick/internal/client"
	"yardstick/internal/core"
	"yardstick/internal/netmodel"
	"yardstick/internal/obs"
	"yardstick/internal/report"
	"yardstick/internal/service"
	"yardstick/internal/topogen"
)

// aclReplica builds a two-pod regional Clos whose spines carry seeded
// 5-tuple deny entries (source /24, protocol, destination-port range)
// ahead of a permit-all: no test packet is dropped, but every match set
// on a spine spans all five header fields — the shape that makes packet
// sets structurally rich, where a codec that loses anything shows.
func aclReplica(t *testing.T) *netmodel.Network {
	t.Helper()
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 2, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A frozen network accepts no rules: rebuild it rule by rule on a
	// copy of its topology, then add the ACLs.
	n := rg.Net.CloneTopology()
	for _, r := range rg.Net.Rules {
		n.AddFIBRule(r.Device, r.Match, r.Action, r.Origin)
	}
	rng := rand.New(rand.NewSource(7))
	for _, sp := range rg.Spines {
		for j := 0; j < 6; j++ {
			m := netmodel.MatchAll()
			third := rng.Intn(512) // 198.18.0.0/15 holds 512 /24s
			m.SrcPrefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{198, byte(18 + third/256), byte(third % 256), 0}), 24)
			m.Proto = []int32{6, 17}[rng.Intn(2)]
			lo := uint16(1024 + rng.Intn(60000))
			m.DstPortLo, m.DstPortHi = lo, lo+uint16(rng.Intn(2000))
			n.AddACLRule(sp, m, true)
		}
		n.AddACLRule(sp, netmodel.MatchAll(), false)
	}
	n.ComputeMatchSets()
	return n
}

// wireLog counts what crosses the wire: PUT /network requests, and the
// content type of every fragment body that came back.
type wireLog struct {
	mu         sync.Mutex
	puts       int
	traceTypes map[string]int
}

func (w *wireLog) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	w.mu.Lock()
	defer w.mu.Unlock()
	if r.Method == http.MethodPut && r.URL.Path == "/network" {
		w.puts++
	}
	if err == nil && resp.StatusCode == http.StatusOK && strings.HasSuffix(r.URL.Path, "/trace") {
		if w.traceTypes == nil {
			w.traceTypes = map[string]int{}
		}
		w.traceTypes[resp.Header.Get("Content-Type")]++
	}
	return resp, err
}

func (w *wireLog) snapshot() (puts int, traceTypes map[string]int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := map[string]int{}
	for k, v := range w.traceTypes {
		out[k] = v
	}
	return w.puts, out
}

// loggedCfg is fastCfg over plain transports (one wireLog per node) with
// the coordinator's log captured.
func loggedCfg(nodes []string, rep *netmodel.Network, wrap func(base string, rt http.RoundTripper) http.RoundTripper) (Config, map[string]*wireLog, *syncBuffer) {
	logs := map[string]*wireLog{}
	for _, n := range nodes {
		logs[n] = &wireLog{}
	}
	var out syncBuffer
	cfg := fastCfg(nodes, nil, rep)
	cfg.Logger = slog.New(slog.NewTextHandler(&out, nil))
	cfg.NewClient = func(base string) *client.Client {
		var rt http.RoundTripper = logs[base]
		if wrap != nil {
			rt = wrap(base, rt)
		}
		return client.New(base, client.WithHTTPClient(&http.Client{Transport: rt}))
	}
	return cfg, logs, &out
}

type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func mustRun(t *testing.T, cfg Config, suites ...string) (*Coordinator, *Result) {
	t.Helper()
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(context.Background(), suites...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Complete {
		t.Fatalf("run incomplete: %+v", res.Shards)
	}
	return co, res
}

func coverageTable(net *netmodel.Network, tr *core.Trace) string {
	cov := core.NewCoverage(net, tr)
	seen := map[netmodel.Role]bool{}
	var roles []netmodel.Role
	for _, d := range net.Devices {
		if !seen[d.Role] {
			seen[d.Role] = true
			roles = append(roles, d.Role)
		}
	}
	rows := append(report.ByRole(cov, roles), report.Total(cov, "TOTAL"))
	var buf bytes.Buffer
	report.RenderTable(&buf, rows)
	return buf.String()
}

func counterSum(co *Coordinator, name string) float64 {
	var sum float64
	for _, m := range co.Metrics().Snapshot() {
		if m.Name == name {
			sum += m.Value
		}
	}
	return sum
}

// stripAccept makes every worker answer as one that ignores the
// fragment negotiation: it never sees an Accept header, so it answers
// the JSON export.
type stripAccept struct{ rt http.RoundTripper }

func (s stripAccept) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Del("Accept")
	return s.rt.RoundTrip(r)
}

// traceCoding counts how fragment bodies crossed the wire: gzipped
// (inflated by the transport) or as they are.
type traceCoding struct {
	rt             http.RoundTripper
	gzip, identity atomic.Int32
}

func (c *traceCoding) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.rt.RoundTrip(r)
	if err == nil && resp.StatusCode == http.StatusOK && strings.HasSuffix(r.URL.Path, "/trace") {
		if resp.Uncompressed {
			c.gzip.Add(1)
		} else {
			c.identity.Add(1)
		}
	}
	return resp, err
}

// TestFragmentCodecsAgree is the differential: on a Clos whose spines
// carry 5-tuple ACLs, a fleet run merged from arena fragments and a
// single-node sequential run are one trace and print one coverage table
// — with the fragments gzipped on the wire, as Go's transport asks by
// default, and with a transport that disables compression.
func TestFragmentCodecsAgree(t *testing.T) {
	rep := aclReplica(t)
	nodes := []string{startWorkerWith(t, nil).URL, startWorkerWith(t, nil).URL}
	suites := []string{"default", "connected", "internal", "agg", "contract", "reach", "pingmesh", "host"}
	single := baseline(t, rep, suites)

	var merged []*core.Trace
	for _, disable := range []bool{false, true} {
		tr := &http.Transport{DisableCompression: disable}
		t.Cleanup(tr.CloseIdleConnections)
		coding := &traceCoding{rt: tr}
		cfg := fastCfg(nodes, nil, rep)
		cfg.NewClient = func(base string) *client.Client {
			return client.New(base, client.WithHTTPClient(&http.Client{Transport: coding}))
		}
		_, arena := mustRun(t, cfg, suites...)
		for _, sh := range arena.Shards {
			if sh.FragmentBytes == 0 {
				t.Fatalf("shard = %+v, want a fragment with its size", sh)
			}
		}
		if gz, id := coding.gzip.Load(), coding.identity.Load(); disable && (gz != 0 || id == 0) || !disable && (gz == 0 || id != 0) {
			t.Fatalf("compression disabled %v: %d fragments gzipped, %d not", disable, gz, id)
		}
		requireIdentical(t, arena.Trace, single)
		if got, want := coverageTable(rep, arena.Trace), coverageTable(rep, single); got != want {
			t.Fatalf("arena-merged coverage table (compression disabled %v) differs from single-node:\n%s\nwant:\n%s", disable, got, want)
		}
		merged = append(merged, arena.Trace)
	}
	requireIdentical(t, merged[1], merged[0])
}

// TestNonArenaFragmentFailsAttempt: a fragment body that is not a YSS1
// arena carries no network fingerprint, so the coordinator refuses it
// rather than merge it into whatever network it holds. Against workers
// that ignore Accept, every attempt fails naming its job, and the run
// ends incomplete.
func TestNonArenaFragmentFailsAttempt(t *testing.T) {
	rep := replica(t)
	nodes := []string{startWorkerWith(t, nil).URL, startWorkerWith(t, nil).URL}
	cfg, _, logs := loggedCfg(nodes, rep, func(_ string, rt http.RoundTripper) http.RoundTripper { return stripAccept{rt} })
	cfg.MaxAttempts, cfg.FailureThreshold = 2, 100 // no breaker: every attempt reaches a worker
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(context.Background(), "default", "internal")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Complete {
		t.Fatal("a run merged from fragments that are not arenas claims to be complete")
	}
	attempts := 0
	for _, sh := range res.Shards {
		attempts += sh.Attempts
		if sh.Done || !strings.Contains(sh.Error, "fragment of job ") || !strings.Contains(sh.Error, "not a YSS1 arena") {
			t.Errorf("shard %d: done %v, error %q; want failed on a body that is not an arena", sh.ID, sh.Done, sh.Error)
		}
	}
	failed := strings.Count(logs.String(), "coord: shard attempt failed")
	if refused := strings.Count(logs.String(), "not a YSS1 arena"); failed != attempts || refused != attempts {
		t.Errorf("%d attempts, %d logged failed, %d refused as not an arena; want all equal", attempts, failed, refused)
	}
}

// TestWarmFleetWire: against workers that already hold the network, one
// coordinator run puts no network body and no JSON trace body on the
// wire — every node's push is skipped on its GET /network fingerprint
// and every fragment travels as an arena.
func TestWarmFleetWire(t *testing.T) {
	rep := replica(t)
	nodes := []string{startWorkerWith(t, replica(t)).URL, startWorkerWith(t, replica(t)).URL}
	suites := []string{"default", "internal", "contract"}

	cfg, logs, _ := loggedCfg(nodes, rep, nil)
	cfg.Rounds = 2
	co, res := mustRun(t, cfg, suites...)

	fragments := 0
	for base, wl := range logs {
		puts, types := wl.snapshot()
		if puts != 0 {
			t.Errorf("%s: %d PUT /network against a warm worker, want 0", base, puts)
		}
		for ct, n := range types {
			if ct != service.TraceArenaMediaType {
				t.Errorf("%s: %d fragment bodies of type %q, want only %s", base, n, ct, service.TraceArenaMediaType)
			}
			fragments += n
		}
	}
	if fragments < len(res.Shards) {
		t.Errorf("saw %d fragment bodies for %d shards", fragments, len(res.Shards))
	}
	var bytesSum int64
	for _, sh := range res.Shards {
		if sh.FragmentBytes == 0 {
			t.Errorf("shard %+v: want a fragment with its size", sh)
		}
		bytesSum += int64(sh.FragmentBytes)
	}
	if res.Totals.FragmentBytes != bytesSum {
		t.Errorf("Totals.FragmentBytes = %d, shards sum to %d", res.Totals.FragmentBytes, bytesSum)
	}
	if res.Totals.NetworkPushes != 0 || res.Totals.NetworkPushSkipped != len(nodes) {
		t.Errorf("totals = %+v, want 0 pushes and %d skipped", res.Totals, len(nodes))
	}
	if got := counterSum(co, MetricFragmentBytes); got < float64(bytesSum) {
		t.Errorf("%s = %v, want at least the %d bytes the shards report", MetricFragmentBytes, got, bytesSum)
	}
	if got := counterSum(co, MetricNetworkPush); got != float64(len(nodes)) {
		t.Errorf("%s = %v, want one (skipped) check per node", MetricNetworkPush, got)
	}
	requireIdentical(t, res.Trace, baseline(t, rep, suites))
}

// TestNetworkPushGating: a node is sent the network only when its
// GET /network says it must be — never when it already holds the same
// one, exactly once when it holds another or none.
func TestNetworkPushGating(t *testing.T) {
	other := replica(t)
	other.AddDevice("stray", netmodel.Role("tor"), 65099)
	for _, tc := range []struct {
		name    string
		preload func() *netmodel.Network
		puts    int
	}{
		{"same network", func() *netmodel.Network { return replica(t) }, 0},
		{"different network", func() *netmodel.Network { return other }, 1},
		{"no network", func() *netmodel.Network { return nil }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := replica(t)
			nodes := []string{startWorkerWith(t, tc.preload()).URL}
			cfg, logs, _ := loggedCfg(nodes, rep, nil)
			cfg.Rounds = 3
			_, res := mustRun(t, cfg, "default", "internal")
			if puts, _ := logs[nodes[0]].snapshot(); puts != tc.puts {
				t.Errorf("PUT /network count = %d, want %d", puts, tc.puts)
			}
			if res.Totals.NetworkPushes != tc.puts || res.Totals.NetworkPushSkipped != 1-tc.puts {
				t.Errorf("totals = %+v, want %d pushed, %d skipped", res.Totals, tc.puts, 1-tc.puts)
			}
			requireIdentical(t, res.Trace, baseline(t, rep, []string{"default", "internal"}))
		})
	}
}

// onNthSubmit runs hook just before the node's nth job submission is
// forwarded.
type onNthSubmit struct {
	rt   http.RoundTripper
	n    int32
	seen atomic.Int32
	hook func()
}

func (o *onNthSubmit) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost && r.URL.Path == "/jobs" && o.seen.Add(1) == o.n {
		o.hook()
	}
	return o.rt.RoundTrip(r)
}

// TestWorkerRestartReload: a worker that restarts mid-run (losing its
// network and artifacts, keeping its address) fails the next job for
// want of a network; the failed attempt makes the coordinator re-read
// GET /network, which now answers 404, so it pushes again and the retry
// succeeds — no operator intervention, and no error text parsed.
func TestWorkerRestartReload(t *testing.T) {
	rep := replica(t)

	// One address, a replaceable process behind it.
	var cur atomic.Value // http.Handler
	boot := func() {
		srv := service.New(quiet())
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); srv.RunJobs(ctx) }()
		t.Cleanup(func() { cancel(); <-done })
		cur.Store(srv.Handler())
	}
	boot()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer ts.Close()

	cfg, logs, _ := loggedCfg([]string{ts.URL}, rep, func(_ string, rt http.RoundTripper) http.RoundTripper {
		return &onNthSubmit{rt: rt, n: 3, hook: boot}
	})
	cfg.Rounds = 3
	cfg.Concurrency = 1
	cfg.FailureThreshold = 3
	co, res := mustRun(t, cfg, "default", "internal")

	if puts, _ := logs[ts.URL].snapshot(); puts != 2 {
		t.Errorf("PUT /network count = %d, want 2 (first load, re-push after the restart)", puts)
	}
	if res.Totals.NetworkPushes != 2 {
		t.Errorf("Totals.NetworkPushes = %d, want 2", res.Totals.NetworkPushes)
	}
	if sh := res.Shards[2]; sh.Attempts != 2 {
		t.Errorf("the shard that met the restart took %d attempts, want 2 (fail, re-push, succeed): %+v", sh.Attempts, sh)
	}
	if got := counterSum(co, MetricRedispatch); got != 1 {
		t.Errorf("%s = %v, want 1", MetricRedispatch, got)
	}
	requireIdentical(t, res.Trace, baseline(t, rep, []string{"default", "internal"}))
}

// TestForeignNetworkFragmentRejected: a worker that is handed a
// different network behind the coordinator's back keeps answering jobs,
// but its fragments carry the other network's fingerprint. The merger
// rejects them (core.ErrSnapshotMismatch) instead of merging rule IDs
// that mean something else; the node is re-checked, re-pushed, and the
// shard re-dispatched.
func TestForeignNetworkFragmentRejected(t *testing.T) {
	rep := replica(t)
	ts := startWorkerWith(t, nil)
	foreign := replica(t)
	foreign.AddDevice("stray", netmodel.Role("tor"), 65099)
	var foreignJSON bytes.Buffer
	if err := foreign.EncodeJSON(&foreignJSON); err != nil {
		t.Fatal(err)
	}
	swap := func() {
		if _, err := client.New(ts.URL).LoadNetworkJSON(context.Background(), foreignJSON.Bytes()); err != nil {
			t.Errorf("swapping the worker's network: %v", err)
		}
	}
	cfg, logs, out := loggedCfg([]string{ts.URL}, rep, func(_ string, rt http.RoundTripper) http.RoundTripper {
		return &onNthSubmit{rt: rt, n: 3, hook: swap}
	})
	cfg.Rounds = 3
	cfg.Concurrency = 1
	cfg.FailureThreshold = 3
	_, res := mustRun(t, cfg, "default", "internal")

	if !strings.Contains(out.String(), core.ErrSnapshotMismatch.Error()) {
		t.Errorf("no attempt failed on the fingerprint mismatch; coordinator log:\n%s", out.String())
	}
	if puts, _ := logs[ts.URL].snapshot(); puts != 2 {
		t.Errorf("PUT /network count = %d, want 2 (first load, re-push over the foreign network)", puts)
	}
	if sh := res.Shards[2]; sh.Attempts != 2 {
		t.Errorf("the shard run on the foreign network took %d attempts, want 2: %+v", sh.Attempts, sh)
	}
	requireIdentical(t, res.Trace, baseline(t, rep, []string{"default", "internal"}))
}

// fragmentFault is what damageFirstFetch does to a shard's first
// fragment fetch: it takes the worker's answer and returns what the
// client sees instead.
type fragmentFault func(*http.Response) (*http.Response, error)

// corruptBody delivers the fragment with its body damaged by f.
func corruptBody(f func([]byte) []byte) fragmentFault {
	return func(resp *http.Response) (*http.Response, error) {
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		body = f(body)
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
		resp.Header.Set("Content-Length", strconv.Itoa(len(body)))
		return resp, nil
	}
}

// fragmentDamage is the state the nodes' damageFirstFetch transports
// share: which shards have had a fragment fetched, and how many fetches
// were faulted.
type fragmentDamage struct {
	fault fragmentFault

	mu      sync.Mutex
	seen    map[string]bool
	damaged int
}

// damageFirstFetch faults the first fragment fetch of every
// even-numbered shard; retries and odd shards pass through.
type damageFirstFetch struct {
	rt http.RoundTripper
	st *fragmentDamage
}

func (d damageFirstFetch) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := d.rt.RoundTrip(r)
	if err != nil || resp.StatusCode != http.StatusOK || !strings.HasSuffix(r.URL.Path, "/trace") {
		return resp, err
	}
	if !d.st.hit(r) {
		return resp, nil
	}
	return d.st.fault(resp)
}

// hit reports whether the fragment fetch r is to be damaged: the first
// fetch of an even-numbered shard. It counts the hits.
func (st *fragmentDamage) hit(r *http.Request) bool {
	shard := r.Header.Get(service.HeaderShardID)
	id, _ := strconv.Atoi(strings.TrimPrefix(shard, "s"))
	st.mu.Lock()
	defer st.mu.Unlock()
	hit := !st.seen[shard] && id%2 == 0
	st.seen[shard] = true
	if hit {
		st.damaged++
	}
	return hit
}

// TestDamagedFragmentsRedispatch: a fragment fetch that fails — a body
// that arrives complete at the HTTP layer but truncated or bit-flipped, a
// 500, a dropped connection — fails its attempt at once; the client does
// not retry it. A damaged body is rejected by the arena checksum before it
// touches the coordinator's BDD manager. The coordinator dispatches the
// shard again, and the run still completes bit-identical to the
// single-node baseline.
func TestDamagedFragmentsRedispatch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault fragmentFault
		// corrupt: the body arrives, and the arena's checks must refuse it.
		corrupt bool
	}{
		{"truncated", corruptBody(func(b []byte) []byte { return b[:len(b)/2] }), true},
		{"bit-flipped", corruptBody(func(b []byte) []byte { c := bytes.Clone(b); c[len(c)/2] ^= 0x10; return c }), true},
		{"server-error", func(resp *http.Response) (*http.Response, error) {
			resp.Body.Close()
			return &http.Response{
				Status: "500 Internal Server Error", StatusCode: http.StatusInternalServerError,
				Proto: resp.Proto, ProtoMajor: resp.ProtoMajor, ProtoMinor: resp.ProtoMinor,
				Header:  http.Header{"Content-Type": {"application/json"}},
				Body:    io.NopCloser(strings.NewReader(`{"error":"fragment store failed"}`)),
				Request: resp.Request,
			}, nil
		}, false},
		{"connection-reset", func(resp *http.Response) (*http.Response, error) {
			resp.Body.Close()
			return nil, errors.New("connection reset by peer")
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := replica(t)
			nodes := []string{startWorkerWith(t, nil).URL, startWorkerWith(t, nil).URL}
			suites := []string{"default", "internal", "contract"}
			st := &fragmentDamage{fault: tc.fault, seen: map[string]bool{}}
			cfg, _, out := loggedCfg(nodes, rep, func(_ string, rt http.RoundTripper) http.RoundTripper {
				return damageFirstFetch{rt: rt, st: st}
			})
			cfg.Rounds = 2
			cfg.FailureThreshold = 100 // every other first attempt fails by design; keep breakers out of it
			co, res := mustRun(t, cfg, suites...)

			if st.damaged != 3 {
				t.Fatalf("faulted %d fragment fetches, want 3 (the even shards of 6)", st.damaged)
			}
			for _, sh := range res.Shards {
				if want := 1 + (sh.ID+1)%2; sh.Attempts != want {
					t.Errorf("shard %d took %d attempts, want %d", sh.ID, sh.Attempts, want)
				}
			}
			if got := counterSum(co, MetricRedispatch); got != 3 {
				t.Errorf("%s = %v, want 3", MetricRedispatch, got)
			}
			if tc.corrupt && !strings.Contains(out.String(), core.ErrSnapshotFormat.Error()) {
				t.Errorf("damage was not reported as an arena format error; coordinator log:\n%s", out.String())
			}
			requireIdentical(t, res.Trace, baseline(t, rep, suites))
		})
	}
}

// brokenBody is what a brokenFetchWorker sends instead of a fragment:
// the body, whether it is labelled gzip, and the Content-Length it
// declares.
type brokenBody func(arena []byte) (body []byte, gzipped bool, length int)

// gzipped returns data gzipped at the level a worker uses.
func gzipped(data []byte) []byte {
	var buf bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	zw.Write(data)
	zw.Close()
	return buf.Bytes()
}

// brokenFetchWorker is a fake worker: a real one behind a reverse proxy
// that answers the fetches st.hit picks with the body broken makes of
// the real fragment, written on the wire as it is, and passes every
// other request through (gzip negotiation included).
func brokenFetchWorker(t *testing.T, st *fragmentDamage, broken brokenBody) string {
	t.Helper()
	real := startWorkerWith(t, nil)
	target, err := url.Parse(real.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	identity := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || !strings.HasSuffix(r.URL.Path, "/trace") || !st.hit(r) {
			proxy.ServeHTTP(w, r)
			return
		}
		req, _ := http.NewRequestWithContext(r.Context(), http.MethodGet, real.URL+r.URL.Path, nil)
		req.Header.Set("Accept", service.TraceArenaMediaType)
		resp, err := identity.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		arena, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !core.IsSnapshotArena(arena) {
			http.Error(w, "the real worker had no fragment", http.StatusBadGateway)
			return
		}
		body, gz, length := broken(arena)
		w.Header().Set("Content-Type", service.TraceArenaMediaType)
		if gz {
			w.Header().Set("Content-Encoding", "gzip")
		}
		w.Header().Set("Content-Length", strconv.Itoa(length))
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestBrokenGzipFragmentsRedispatch: a fake worker answers the first
// fragment fetch of every even shard with a body the client must refuse
// before any decode — one declaring more bytes than the client's bound
// on a decoded body, a gzip stream cut in half, a gzip stream with a
// flipped byte. Each fails its attempt at the fetch, the shard is
// dispatched again like any refused fragment, and the run completes
// bit-identical to the single-node baseline.
func TestBrokenGzipFragmentsRedispatch(t *testing.T) {
	for _, tc := range []struct {
		name   string
		broken brokenBody
	}{
		{"over-bound", func(arena []byte) ([]byte, bool, int) { return arena, false, 1<<30 + 1 }},
		{"truncated-gzip", func(arena []byte) ([]byte, bool, int) {
			z := gzipped(arena)
			return z[:len(z)/2], true, len(z) / 2
		}},
		{"corrupt-gzip", func(arena []byte) ([]byte, bool, int) {
			z := gzipped(arena)
			z[len(z)/2] ^= 0xff
			return z, true, len(z)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := replica(t)
			suites := []string{"default", "internal", "contract"}
			st := &fragmentDamage{seen: map[string]bool{}}
			nodes := []string{brokenFetchWorker(t, st, tc.broken), brokenFetchWorker(t, st, tc.broken)}
			cfg, _, out := loggedCfg(nodes, rep, nil)
			cfg.Rounds = 2
			cfg.FailureThreshold = 100 // every other first attempt fails by design; keep breakers out of it
			co, res := mustRun(t, cfg, suites...)

			if st.damaged != 3 {
				t.Fatalf("broke %d fragment fetches, want 3 (the even shards of 6)", st.damaged)
			}
			for _, sh := range res.Shards {
				if want := 1 + (sh.ID+1)%2; sh.Attempts != want {
					t.Errorf("shard %d took %d attempts, want %d", sh.ID, sh.Attempts, want)
				}
			}
			if got := counterSum(co, MetricRedispatch); got != 3 {
				t.Errorf("%s = %v, want 3", MetricRedispatch, got)
			}
			if n := strings.Count(out.String(), "fetch trace "); n != 3 {
				t.Errorf("%d attempts failed at the fetch, want 3; coordinator log:\n%s", n, out.String())
			}
			requireIdentical(t, res.Trace, baseline(t, rep, suites))
		})
	}
}

func openSpans(tl *obs.SpanProfile) (open []string, stages map[string]int) {
	stages = map[string]int{}
	tl.Walk(func(_ int, sp *obs.SpanProfile) {
		stages[sp.Name]++
		if sp.Open {
			open = append(open, sp.Name)
		}
	})
	return open, stages
}

// damageEveryFetch flips a bit in the middle of every fragment body.
type damageEveryFetch struct{ rt http.RoundTripper }

func (d damageEveryFetch) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := d.rt.RoundTrip(r)
	if err != nil || resp.StatusCode != http.StatusOK || !strings.HasSuffix(r.URL.Path, "/trace") {
		return resp, err
	}
	return corruptBody(func(b []byte) []byte { c := bytes.Clone(b); c[len(c)/2] ^= 0x10; return c })(resp)
}

// TestSpansEndOnBudgetTrip: every merge fails inside the merger
// goroutine. The name is from when an op budget on the coordinator's
// manager was what failed it; with cancellation the one abort and no
// context watched by a merge, the merger's own way to fail is a fragment
// its arena checks refuse. Every fragment fails, the run degrades to
// incomplete — and every span the merger opened is closed.
func TestSpansEndOnBudgetTrip(t *testing.T) {
	rep := replica(t)
	nodes := []string{startWorkerWith(t, nil).URL, startWorkerWith(t, nil).URL}
	cfg, _, _ := loggedCfg(nodes, rep, func(_ string, rt http.RoundTripper) http.RoundTripper {
		return damageEveryFetch{rt: rt}
	})
	cfg.MaxAttempts = 2
	cfg.FailureThreshold = 100
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(context.Background(), "internal", "contract")
	if err != nil {
		t.Fatalf("failed merges must degrade the run, not error it: %v", err)
	}
	if res.Complete {
		t.Fatal("run claims completeness though no fragment could be merged")
	}
	for _, sh := range res.Shards {
		if sh.Done || !strings.Contains(sh.Error, core.ErrSnapshotFormat.Error()) {
			t.Errorf("shard = %+v, want failed on the arena format", sh)
		}
	}
	open, stages := openSpans(res.Timeline)
	if len(open) != 0 {
		t.Errorf("open spans after failed merges: %v", open)
	}
	if stages["codec.decode"] == 0 {
		t.Errorf("timeline has no codec.decode stage: %v", stages)
	}
}

// cancelOnFetch cancels the run when the nth fragment is fetched.
type cancelOnFetch struct {
	rt     http.RoundTripper
	n      int32
	seen   atomic.Int32
	cancel context.CancelFunc
}

func (c *cancelOnFetch) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasSuffix(r.URL.Path, "/trace") && c.seen.Add(1) == c.n {
		c.cancel()
	}
	return c.rt.RoundTrip(r)
}

// TestSpansEndOnCancel: cancelling mid-run returns the error together
// with the partial result, the merger goroutine has stopped by then, and
// the timeline holds no open span — its codec.decode and transfer stages
// from the fragments that did land included.
func TestSpansEndOnCancel(t *testing.T) {
	rep := replica(t)
	nodes := []string{startWorkerWith(t, nil).URL, startWorkerWith(t, nil).URL}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg, _, _ := loggedCfg(nodes, rep, func(_ string, rt http.RoundTripper) http.RoundTripper {
		return &cancelOnFetch{rt: rt, n: 3, cancel: cancel}
	})
	cfg.Rounds = 20
	cfg.Concurrency = 2
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(ctx, "default", "internal")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if res == nil || res.Complete || res.Timeline == nil {
		t.Fatalf("cancelled run result = %+v, want a partial result with its timeline", res)
	}
	open, stages := openSpans(res.Timeline)
	if len(open) != 0 {
		t.Errorf("open spans after cancellation: %v", open)
	}
	if stages["codec.decode"] == 0 || stages["transfer"] == 0 {
		t.Errorf("timeline lost the merge stages of the fragments that landed: %v", stages)
	}
	// The space is free again: the merger has exited.
	if got := coverageTable(rep, res.Trace); got == "" {
		t.Error("no coverage table from the partial trace")
	}
}
