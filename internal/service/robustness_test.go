package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"yardstick/internal/core"
	"yardstick/internal/dataplane"
	"yardstick/internal/jobs"
	"yardstick/internal/netmodel"
	"yardstick/internal/topogen"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// TestConcurrentRequests hammers the hot endpoints from parallel
// goroutines. The server serializes on its mutex (the BDD manager is
// single-threaded); under -race this validates the lock discipline.
func TestConcurrentRequests(t *testing.T) {
	ts, rg := newTestServer(t)

	// Pre-encode a trace fragment once: encoding touches the network's
	// BDD manager, which must not be shared across goroutines.
	local := core.NewTrace()
	local.MarkPacket(dataplane.Injected(rg.ToRs[0]), rg.Net.Space.DstPrefix(rg.HostPrefix[rg.ToRs[1]]))
	for _, rid := range rg.Net.Device(rg.ToRs[0]).FIB {
		local.MarkRule(rid)
	}
	var frag bytes.Buffer
	if err := local.EncodeJSON(&frag); err != nil {
		t.Fatal(err)
	}

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		jobIDs []string // read after wg.Wait
	)
	do := func(method, url string, body []byte, want int) {
		defer wg.Done()
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != want {
			t.Errorf("%s %s = %d (%v), want %d", method, url, resp.StatusCode, err, want)
			return
		}
		if want == http.StatusAccepted {
			var sub JobStatus
			if err := json.Unmarshal(data, &sub); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			jobIDs = append(jobIDs, sub.ID)
			mu.Unlock()
		}
	}
	for i := 0; i < 8; i++ {
		wg.Add(6)
		go do("POST", ts.URL+"/trace", frag.Bytes(), http.StatusOK)
		go do("GET", ts.URL+"/coverage", nil, http.StatusOK)
		go do("POST", ts.URL+"/jobs?suite=connected", nil, http.StatusAccepted)
		go do("GET", ts.URL+"/trace", nil, http.StatusOK)
		// Scrapes read the registry without the server lock while the
		// lock's holders settle into it.
		go do("GET", ts.URL+"/metrics", nil, http.StatusOK)
		go do("GET", ts.URL+"/stats", nil, http.StatusOK)
	}
	wg.Wait()
	for _, id := range jobIDs {
		if j := pollJob(t, ts.URL, id); j.State != jobs.StateDone {
			t.Errorf("job %s = %s %q, want done", id, j.State, j.Error)
		}
	}
}

// TestPanicRecovery drives a panicking handler through the full
// middleware chain: the panic answers 500 and the server keeps serving.
func TestPanicRecovery(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	mux.HandleFunc("/ok", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	var logbuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logbuf, nil))
	ts := httptest.NewServer(Chain(mux, LogRequests(logger), Recover(logger)))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("panicking handler = %d, want 500", resp.StatusCode)
	}
	if !bytes.Contains(logbuf.Bytes(), []byte("kaboom")) {
		t.Error("panic value not logged")
	}
	if !bytes.Contains(logbuf.Bytes(), []byte("goroutine")) {
		t.Error("stack trace not logged")
	}
	// The panicking request still gets its structured request line, with
	// the 500 Recover answered, tied together by the request id.
	if !bytes.Contains(logbuf.Bytes(), []byte("status=500")) {
		t.Errorf("request log line missing for panicking request:\n%s", logbuf.String())
	}
	if !bytes.Contains(logbuf.Bytes(), []byte("id="+resp.Header.Get("X-Request-Id"))) {
		t.Errorf("request id %q not in log:\n%s", resp.Header.Get("X-Request-Id"), logbuf.String())
	}

	// The server survives and keeps answering.
	resp, err = http.Get(ts.URL + "/ok")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("request after panic = %d, want 200", resp.StatusCode)
	}
}

func TestBodySizeLimit(t *testing.T) {
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(WithNetwork(rg.Net, WithMaxBody(512), WithLogger(discardLogger())).Handler())
	defer ts.Close()

	// Leading whitespace is valid JSON, so the decoder must read past
	// the cap and hit the MaxBytesReader limit rather than a syntax
	// error.
	big := append(bytes.Repeat([]byte(" "), 4096), []byte("{}")...)
	resp, err := http.Post(ts.URL+"/trace", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d, want 413", resp.StatusCode)
	}
	doJSON(t, "PUT", ts.URL+"/network", big, http.StatusRequestEntityTooLarge, nil)

	// A small (if invalid) body still gets the ordinary 400.
	resp, err = http.Post(ts.URL+"/trace", "application/json", bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("small junk body = %d, want 400", resp.StatusCode)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	ts := httptest.NewServer(New(WithLogger(discardLogger())).Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", code)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz without network = %d, want 503", code)
	}

	// Loading a network flips readiness.
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rg.Net.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doJSON(t, "PUT", ts.URL+"/network", buf.Bytes(), http.StatusOK, nil)
	if code := get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz with network = %d, want 200", code)
	}
}

// TestSnapshotPersistence accumulates a trace, checkpoints, and brings
// up a fresh server on the same snapshot: coverage survives the
// "restart". A third server with a different network must discard the
// stale snapshot.
func TestSnapshotPersistence(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "trace.snap")
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	srv1 := WithNetwork(rg.Net, WithSnapshot(snap, time.Hour), WithLogger(discardLogger()))
	ts1 := httptest.NewServer(srv1.Handler())
	local := core.NewTrace()
	local.MarkPacket(dataplane.Injected(rg.ToRs[0]), rg.Net.Space.DstPrefix(rg.HostPrefix[rg.ToRs[1]]))
	for _, rid := range rg.Net.Device(rg.ToRs[0]).FIB {
		local.MarkRule(rid)
	}
	var frag bytes.Buffer
	if err := local.EncodeJSON(&frag); err != nil {
		t.Fatal(err)
	}
	doJSON(t, "POST", ts1.URL+"/trace", frag.Bytes(), http.StatusOK, nil)
	var covBefore CoverageReport
	doJSON(t, "GET", ts1.URL+"/coverage", nil, http.StatusOK, &covBefore)
	if covBefore.Total.RuleFractional <= 0 {
		t.Fatal("no coverage accumulated")
	}
	if err := srv1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// "Restart": same network, same snapshot path.
	srv2 := WithNetwork(rg.Net, WithSnapshot(snap, time.Hour), WithLogger(discardLogger()))
	restored, err := srv2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("snapshot not restored on matching network")
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	var covAfter CoverageReport
	doJSON(t, "GET", ts2.URL+"/coverage", nil, http.StatusOK, &covAfter)
	if covAfter.Total.RuleFractional != covBefore.Total.RuleFractional {
		t.Errorf("coverage after restart = %v, want %v",
			covAfter.Total.RuleFractional, covBefore.Total.RuleFractional)
	}

	// A different network must reject the stale snapshot.
	other, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv3 := WithNetwork(other.Net, WithSnapshot(snap, time.Hour), WithLogger(discardLogger()))
	restored, err = srv3.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if restored {
		t.Error("stale snapshot (different network) must be discarded, not merged")
	}
	if st := srv3.eng.Trace().Stats(); st.Locations != 0 || st.MarkedRules != 0 {
		t.Errorf("trace after discarded restore = %+v, want empty", st)
	}
}

// TestRestartFromArenaCheckpoint is the arena-codec restart drill:
// Checkpoint writes the binary arena snapshot, a fresh server over a
// freshly *decoded* network (nothing shared in memory with the first
// daemon) restores from it, and the /coverage table — the total row and
// every per-role row — matches byte for byte. Engine counters are live
// manager diagnostics, not coverage state, so they are outside the
// comparison.
func TestRestartFromArenaCheckpoint(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "trace.snap")
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	srv1 := WithNetwork(rg.Net, WithSnapshot(snap, time.Hour), WithLogger(discardLogger()))
	ts1 := httptest.NewServer(srv1.Handler())
	local := core.NewTrace()
	local.MarkPacket(dataplane.Injected(rg.ToRs[0]), rg.Net.Space.DstPrefix(rg.HostPrefix[rg.ToRs[1]]))
	local.MarkPacket(dataplane.Injected(rg.ToRs[1]), rg.Net.Space.DstPrefix(rg.HostPrefix[rg.ToRs[0]]).Intersect(rg.Net.Space.Proto(6)))
	for _, rid := range rg.Net.Device(rg.ToRs[0]).FIB {
		local.MarkRule(rid)
	}
	var frag bytes.Buffer
	if err := local.EncodeJSON(&frag); err != nil {
		t.Fatal(err)
	}
	doJSON(t, "POST", ts1.URL+"/trace", frag.Bytes(), http.StatusOK, nil)
	totalBefore, byRoleBefore := covTable(t, ts1.URL)

	if err := srv1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !core.IsSnapshotArena(raw) {
		t.Fatalf("checkpoint is not the arena codec (starts %q)", raw[:min(8, len(raw))])
	}
	ts1.Close()

	// "Restart": round-trip the network through its wire form so the new
	// daemon rebuilds everything — spaces, match sets, rule IDs — from
	// scratch, exactly like a real process restart.
	var netJSON bytes.Buffer
	if err := rg.Net.EncodeJSON(&netJSON); err != nil {
		t.Fatal(err)
	}
	fresh, err := netmodel.DecodeJSON(bytes.NewReader(netJSON.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	srv2 := WithNetwork(fresh, WithSnapshot(snap, time.Hour), WithLogger(discardLogger()))
	restored, err := srv2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("arena checkpoint not restored on matching network")
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	totalAfter, byRoleAfter := covTable(t, ts2.URL)
	if !bytes.Equal(totalBefore, totalAfter) {
		t.Errorf("total row changed across restart:\n before %s\n after  %s", totalBefore, totalAfter)
	}
	if !bytes.Equal(byRoleBefore, byRoleAfter) {
		t.Errorf("per-role rows changed across restart:\n before %s\n after  %s", byRoleBefore, byRoleAfter)
	}
}

// TestRestartFromLegacyJSONCheckpoint: a checkpoint in the JSON format
// daemons wrote before the arena codec still restores, with exactly one
// deprecation warning, and the next Checkpoint rewrites it as an arena.
func TestRestartFromLegacyJSONCheckpoint(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "trace.snap")
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := core.NewTrace()
	want.MarkPacket(dataplane.Injected(rg.ToRs[0]), rg.Net.Space.DstPrefix(rg.HostPrefix[rg.ToRs[1]]))
	want.MarkRule(rg.Net.Device(rg.ToRs[0]).FIB[0])

	// The legacy envelope: the network fingerprint beside the cube-JSON
	// trace.
	fp := core.Fingerprint(rg.Net)
	var cubes bytes.Buffer
	if err := want.EncodeJSON(&cubes); err != nil {
		t.Fatal(err)
	}
	legacy, err := json.Marshal(map[string]any{"fingerprint": fp, "trace": json.RawMessage(cubes.Bytes())})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, legacy, 0o600); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	srv := WithNetwork(rg.Net, WithSnapshot(snap, time.Hour), WithLogger(slog.New(slog.NewTextHandler(&logs, nil))))
	restored, err := srv.Restore()
	if err != nil || !restored {
		t.Fatalf("Restore from a JSON checkpoint = %v, %v", restored, err)
	}
	if !srv.eng.Trace().Equal(want) {
		t.Error("restored trace differs from the checkpointed one")
	}
	if n := strings.Count(logs.String(), "deprecated"); n != 1 {
		t.Errorf("%d deprecation warnings, want 1:\n%s", n, logs.String())
	}

	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !core.IsSnapshotArena(raw) {
		t.Fatalf("checkpoint after a legacy restore is not an arena (starts %q)", raw[:min(8, len(raw))])
	}
	logs.Reset()
	again := WithNetwork(rg.Net, WithSnapshot(snap, time.Hour), WithLogger(slog.New(slog.NewTextHandler(&logs, nil))))
	if restored, err := again.Restore(); err != nil || !restored || !again.eng.Trace().Equal(want) {
		t.Fatalf("Restore from the rewritten checkpoint = %v, %v", restored, err)
	}
	if strings.Contains(logs.String(), "deprecated") {
		t.Errorf("arena restore logged a deprecation warning:\n%s", logs.String())
	}
}

// TestRestartFromJobRecordsWithWorkers: a job-records file written while
// a job could ask for its own worker count carries "workers" in its spec.
// It still restores, and the finished job's result is served again.
func TestRestartFromJobRecordsWithWorkers(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "trace.snap")
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	at, err := time.Now().UTC().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	result := `[{"name":"DefaultRouteCheck","kind":"reachability","checks":6,"pass":true}]`
	records := `{"fingerprint":"` + core.Fingerprint(rg.Net) + `","jobs":[{"id":"3f2a9c1d0b7e4a65",` +
		`"spec":{"suites":"default","workers":2},"state":"done",` +
		`"submitted":` + string(at) + `,"started":` + string(at) + `,"finished":` + string(at) + `,` +
		`"result":` + result + `}]}` + "\n"
	if err := os.WriteFile(snap+".jobs", []byte(records), 0o600); err != nil {
		t.Fatal(err)
	}

	srv := WithNetwork(rg.Net, WithSnapshot(snap, time.Hour), WithLogger(discardLogger()))
	if _, err := srv.Restore(); err != nil {
		t.Fatalf("Restore with a stored \"workers\" spec key: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var got JobStatus
	doJSON(t, http.MethodGet, ts.URL+"/jobs/3f2a9c1d0b7e4a65", nil, http.StatusOK, &got)
	if got.State != jobs.StateDone || got.Spec.Suites != "default" || string(got.Result) != result {
		t.Errorf("restored job = %+v, want done with its result", got)
	}
}

// TestCheckpointReusesFingerprint keeps the persistence and trace-ingest
// paths on the fingerprint the server already caches: Checkpoint, Restore
// and POST /trace each run under s.mu, and hashing the network's JSON
// there (64 KB of encoder buffer a call, tens of milliseconds on a
// datacenter-sized network) stalls every reader for nothing. Each may
// allocate what its codec call allocates plus well under one fingerprint.
func TestCheckpointReusesFingerprint(t *testing.T) {
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{})
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "trace.snap")
	srv := WithNetwork(rg.Net, WithSnapshot(snap, time.Hour), WithLogger(discardLogger()))
	srv.eng.Trace().MarkRule(rg.Net.Device(rg.ToRs[0]).FIB[0])
	fp := srv.eng.Fingerprint()
	var arena bytes.Buffer
	if err := core.EncodeFragmentArena(&arena, rg.Net, fp, srv.eng.Trace()); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	// worst is the most f allocated over a few calls, after one to settle
	// lazily built state.
	worst := func(f func()) uint64 {
		f()
		var worst uint64
		for i := 0; i < 4; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			worst = max(worst, after.TotalAlloc-before.TotalAlloc)
		}
		return worst
	}
	encode := worst(func() { core.EncodeFragmentArena(io.Discard, rg.Net, fp, srv.eng.Trace()) })
	decode := worst(func() { core.DecodeFragment(arena.Bytes(), rg.Net, fp) })
	const slack = 32 << 10
	for _, c := range []struct {
		name  string
		codec uint64
		f     func()
	}{
		{"Checkpoint", encode, func() {
			if err := srv.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}},
		{"Restore", decode, func() {
			if ok, err := srv.Restore(); err != nil || !ok {
				t.Fatal(ok, err)
			}
		}},
		{"POST /trace", decode, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/trace", bytes.NewReader(arena.Bytes())))
			if rec.Code != http.StatusOK {
				t.Fatal(rec.Code, rec.Body.String())
			}
		}},
	} {
		got := worst(c.f)
		t.Logf("%s: %d bytes, codec alone %d", c.name, got, c.codec)
		if got > c.codec+slack {
			t.Errorf("%s allocated %d bytes, %d more than its codec call: is it fingerprinting the network again?", c.name, got, got-c.codec)
		}
	}
}

// TestCheckpointerFinalSave: the shutdown path writes the final
// checkpoint once. Cancelling RunCheckpointer writes nothing — its
// owner takes the final checkpoint after the work it records settles —
// and that Checkpoint holds the marks.
func TestCheckpointerFinalSave(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "trace.snap")
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := WithNetwork(rg.Net, WithSnapshot(snap, time.Hour), WithLogger(discardLogger()))
	srv.eng.Trace().MarkRule(rg.Net.Device(rg.ToRs[0]).FIB[0])

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv.RunCheckpointer(ctx) }()
	cancel()
	<-done
	if _, err := os.Stat(snap); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the cancelled checkpointer wrote a snapshot (stat: %v); the final one is its owner's", err)
	}

	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	got, _, err := core.LoadSnapshot(snap, rg.Net, srv.eng.Fingerprint())
	if err != nil {
		t.Fatalf("no snapshot after the final checkpoint: %v", err)
	}
	if !got.RuleMarked(rg.Net.Device(rg.ToRs[0]).FIB[0]) {
		t.Error("final checkpoint lost the marked rule")
	}
}
