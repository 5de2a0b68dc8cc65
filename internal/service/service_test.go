package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"yardstick/internal/core"
	"yardstick/internal/dataplane"
	"yardstick/internal/delta"
	"yardstick/internal/jobs"
	"yardstick/internal/obs"
	"yardstick/internal/topogen"
)

func newTestServer(t *testing.T) (*httptest.Server, *topogen.Regional) {
	t.Helper()
	rg := smallRegional(t)
	return serve(t, WithNetwork(rg.Net, WithLogger(discardLogger()))), rg
}

func doJSON(t *testing.T, method, url string, body []byte, wantCode int, out any) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("%s %s = %d, want %d (%v)", method, url, resp.StatusCode, wantCode, e)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
}

// getBody is a GET that must answer 200; it returns the body bytes.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// covTable is the coverage table as served: raw JSON of the total and
// per-role rows, bytes untouched. Engine counters are live manager
// diagnostics, not coverage state, so they are outside it.
func covTable(t *testing.T, url string) (total, byRole json.RawMessage) {
	t.Helper()
	var rep struct {
		Total  json.RawMessage `json:"total"`
		ByRole json.RawMessage `json:"byRole"`
	}
	if err := json.Unmarshal(getBody(t, url+"/coverage"), &rep); err != nil {
		t.Fatal(err)
	}
	return rep.Total, rep.ByRole
}

func TestNetworkStats(t *testing.T) {
	ts, rg := newTestServer(t)
	var st NetworkStats
	doJSON(t, "GET", ts.URL+"/network", nil, http.StatusOK, &st)
	if st.Devices != rg.Net.Stats().Devices || st.Family != "ipv4" {
		t.Errorf("stats = %+v", st)
	}
}

func TestRunAndCoverage(t *testing.T) {
	ts, _ := newTestServer(t)

	results := runSuite(t, ts.URL, "default,internal")
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if !r.Pass || r.Checks == 0 {
			t.Errorf("%s: pass=%v checks=%d", r.Name, r.Pass, r.Checks)
		}
	}

	var cov CoverageReport
	doJSON(t, "GET", ts.URL+"/coverage", nil, http.StatusOK, &cov)
	if cov.Total.RuleFractional <= 0 || cov.Total.RuleFractional > 1 {
		t.Errorf("total rule coverage = %v", cov.Total.RuleFractional)
	}
	if len(cov.ByRole) == 0 {
		t.Error("no per-role rows")
	}
	// Engine diagnostics are series: a run plus a coverage computation
	// has interned nodes and consulted the op cache.
	body := scrape(t, ts.URL)
	if nodes, _ := sampleValue(t, body, "yardstick_engine_nodes"); nodes <= 0 {
		t.Errorf("yardstick_engine_nodes = %v after a run", nodes)
	}
	hits, _ := sampleValue(t, body, "yardstick_bdd_cache_hits_total")
	misses, _ := sampleValue(t, body, "yardstick_bdd_cache_misses_total")
	if hits+misses == 0 {
		t.Error("no op-cache consultations in /metrics after a run")
	}

	var gaps []Gap
	doJSON(t, "GET", ts.URL+"/gaps", nil, http.StatusOK, &gaps)
	found := false
	for _, g := range gaps {
		if g.Origin == "wide-area" {
			found = true
		}
	}
	if !found {
		t.Error("wide-area gap should remain")
	}
}

func TestRemoteTraceReporting(t *testing.T) {
	ts, rg := newTestServer(t)

	// A remote testing tool records coverage locally and POSTs it.
	local := core.NewTrace()
	local.MarkPacket(dataplane.Injected(rg.ToRs[0]), rg.Net.Space.DstPrefix(rg.HostPrefix[rg.ToRs[1]]))
	for _, rid := range rg.Net.Device(rg.ToRs[0]).FIB {
		local.MarkRule(rid)
	}
	var buf bytes.Buffer
	if err := local.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var st map[string]int
	doJSON(t, "POST", ts.URL+"/trace", buf.Bytes(), http.StatusOK, &st)
	if st["locations"] != 1 || st["markedRules"] == 0 {
		t.Errorf("trace stats = %v", st)
	}

	// Coverage reflects the remote report.
	var cov CoverageReport
	doJSON(t, "GET", ts.URL+"/coverage", nil, http.StatusOK, &cov)
	if cov.Total.RuleFractional <= 0 {
		t.Error("remote marks did not register")
	}

	// Round trip: download and re-upload is idempotent.
	resp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	dump := new(bytes.Buffer)
	dump.ReadFrom(resp.Body)
	resp.Body.Close()
	doJSON(t, "POST", ts.URL+"/trace", dump.Bytes(), http.StatusOK, &st)
	var cov2 CoverageReport
	doJSON(t, "GET", ts.URL+"/coverage", nil, http.StatusOK, &cov2)
	if cov2.Total.RuleFractional != cov.Total.RuleFractional {
		t.Error("re-uploading the trace changed coverage")
	}

	// Reset.
	doJSON(t, "DELETE", ts.URL+"/trace", nil, http.StatusNoContent, nil)
	var cov3 CoverageReport
	doJSON(t, "GET", ts.URL+"/coverage", nil, http.StatusOK, &cov3)
	if cov3.Total.RuleFractional != 0 {
		t.Error("trace reset did not clear coverage")
	}
}

// TestPostTraceForeignArena: a well-formed arena recorded against
// another network is a conflict that names the loaded fingerprint, like
// a PATCH with a stale base; a damaged arena is a bad request.
func TestPostTraceForeignArena(t *testing.T) {
	ts, rg := newTestServer(t)
	current := netStats(t, ts.URL).Fingerprint
	var foreign, own bytes.Buffer
	if err := core.EncodeFragmentArena(&foreign, rg.Net, "deadbeef", core.NewTrace()); err != nil {
		t.Fatal(err)
	}
	var body map[string]string
	doJSON(t, "POST", ts.URL+"/trace", foreign.Bytes(), http.StatusConflict, &body)
	if body["current"] != current || body["error"] == "" {
		t.Errorf("409 body = %v, want current fingerprint %q and an error", body, current)
	}

	if err := core.EncodeFragmentArena(&own, rg.Net, current, core.NewTrace()); err != nil {
		t.Fatal(err)
	}
	damaged := own.Bytes()
	damaged[len(damaged)/2] ^= 0x01
	doJSON(t, "POST", ts.URL+"/trace", damaged, http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/trace", damaged[:len(damaged)-3], http.StatusBadRequest, nil)
}

// TestPostTraceSlowUploadHoldsNoLock: POST /trace reads its body before
// it takes the server lock, as PUT and PATCH do, so an uploader that
// stalls mid-body stalls nobody else.
func TestPostTraceSlowUploadHoldsNoLock(t *testing.T) {
	ts, _ := newTestServer(t)
	frag := getBody(t, ts.URL+"/trace")

	pr, pw := io.Pipe()
	posted := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/trace", "application/json", pr)
		if err != nil {
			posted <- 0
			return
		}
		resp.Body.Close()
		posted <- resp.StatusCode
	}()
	// Once the first byte is accepted the handler is in its body read;
	// the rest of the fragment is withheld.
	if _, err := pw.Write(frag[:1]); err != nil {
		t.Fatal(err)
	}

	// The handler may not have been entered yet when the write returns,
	// so keep reading for a while: every read must be answered.
	answered := make(chan struct{})
	go func() {
		defer close(answered)
		for i := 0; i < 10; i++ {
			if resp, err := http.Get(ts.URL + "/network"); err == nil {
				resp.Body.Close()
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	select {
	case <-answered:
	case <-time.After(5 * time.Second):
		t.Error("GET /network waited for a POST /trace whose body is still open")
	}

	if _, err := pw.Write(frag[1:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if code := <-posted; code != http.StatusOK {
		t.Errorf("POST /trace = %d once the body completed, want 200", code)
	}
}

func TestPutNetwork(t *testing.T) {
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := serve(t, New(WithLogger(discardLogger())))

	// No network yet: coverage is 409 and a job fails for want of one.
	doJSON(t, "GET", ts.URL+"/coverage", nil, http.StatusConflict, nil)
	var sub JobStatus
	doJSON(t, "POST", ts.URL+"/jobs?suite=default", nil, http.StatusAccepted, &sub)
	if j := pollJob(t, ts.URL, sub.ID); j.State != jobs.StateFailed || j.Error != "no network loaded" {
		t.Errorf("job without a network = %s %q, want failed with %q", j.State, j.Error, "no network loaded")
	}
	doJSON(t, "GET", ts.URL+"/network", nil, http.StatusNotFound, nil)

	var buf bytes.Buffer
	if err := rg.Net.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var st NetworkStats
	doJSON(t, "PUT", ts.URL+"/network", buf.Bytes(), http.StatusOK, &st)
	if st.Devices != rg.Net.Stats().Devices {
		t.Errorf("stats = %+v", st)
	}
	// Now runs work.
	runSuite(t, ts.URL, "default")

	// Text format load.
	textNet := `
device a role=tor
device b role=spine
link a b 10.128.0.0/31
route a 0.0.0.0/0 via b origin=default
`
	req, _ := http.NewRequest("PUT", ts.URL+"/network?format=text", strings.NewReader(textNet))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text load = %d", resp.StatusCode)
	}
	// Loading a network resets the trace.
	var cov CoverageReport
	doJSON(t, "GET", ts.URL+"/coverage", nil, http.StatusOK, &cov)
	if cov.Total.RuleFractional != 0 {
		t.Error("network reload should reset the trace")
	}
}

func TestRunTimeoutAborts(t *testing.T) {
	// An already-expired -run-timeout deadline: every evaluation it
	// bounds aborts through the engine's watched context — a request with
	// 503, a job as failed — and the server survives to serve the next
	// (untimed) request.
	_, ts := newJobServer(t, WithRunTimeout(time.Nanosecond))

	doJSON(t, "GET", ts.URL+"/coverage", nil, http.StatusServiceUnavailable, nil)
	doJSON(t, "GET", ts.URL+"/gaps", nil, http.StatusServiceUnavailable, nil)

	// A PATCH aborts before its commit: the network is unchanged.
	before := netStats(t, ts.URL).Fingerprint
	doc := delta.Document{Base: before, Ops: []delta.Op{{Op: delta.OpRemove, Rule: 0}}}
	doJSON(t, "PATCH", ts.URL+"/network", marshal(t, doc), http.StatusServiceUnavailable, nil)
	if after := netStats(t, ts.URL).Fingerprint; after != before {
		t.Errorf("an aborted PATCH moved the fingerprint from %s to %s", before, after)
	}

	// A job runs under the same deadline and ends failed.
	var sub JobStatus
	doJSON(t, "POST", ts.URL+"/jobs?suite=default", nil, http.StatusAccepted, &sub)
	if j := pollJob(t, ts.URL, sub.ID); j.State != jobs.StateFailed || j.Error != "run aborted: context deadline exceeded" {
		t.Errorf("job = %s %q, want failed with the deadline error", j.State, j.Error)
	}

	// Liveness is untouched by evaluation deadlines.
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, nil)
}

func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	doJSON(t, "PUT", ts.URL+"/network", []byte("junk"), http.StatusBadRequest, nil)
	doJSON(t, "PUT", ts.URL+"/network?format=xml", nil, http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/trace", []byte("junk"), http.StatusBadRequest, nil)
}

// TestWorkersSetByServer: WithWorkers is a run's only worker count.
// On a two-worker server a job with no parameter shards, and a ?workers
// a request still sends is ignored like any other unknown parameter; a
// server without WithWorkers stays sequential.
func TestWorkersSetByServer(t *testing.T) {
	_, par := newJobServer(t, WithWorkers(2))
	var sub JobStatus
	doJSON(t, "POST", par.URL+"/jobs?suite=default,internal", nil, http.StatusAccepted, &sub)
	if j := pollJob(t, par.URL, sub.ID); j.State != jobs.StateDone {
		t.Fatalf("job = %+v, want done", j)
	}
	if w, _ := sampleValue(t, scrape(t, par.URL), "yardstick_sharded_workers"); w != 2 {
		t.Errorf("two-worker server: yardstick_sharded_workers = %v, want 2", w)
	}
	p, err := obs.DecodeSpanProfile(getBody(t, par.URL+"/jobs/"+sub.ID+"/profile"))
	if err != nil {
		t.Fatal(err)
	}
	sharded := false
	p.Walk(func(_ int, sp *obs.SpanProfile) { sharded = sharded || sp.Name == "shard[1]" })
	if !sharded {
		t.Error("a job on a two-worker server has no shard[1] span")
	}

	doJSON(t, "POST", par.URL+"/jobs?suite=default&workers=x", nil, http.StatusAccepted, &sub)
	if j := pollJob(t, par.URL, sub.ID); j.State != jobs.StateDone {
		t.Errorf("job with ?workers=x = %+v, want done", j)
	}

	_, seq := newJobServer(t)
	doJSON(t, "POST", seq.URL+"/jobs?suite=default,internal&workers=2", nil, http.StatusAccepted, &sub)
	if j := pollJob(t, seq.URL, sub.ID); j.State != jobs.StateDone {
		t.Errorf("job with ?workers=2 = %+v, want done", j)
	}
	if runs, ok := sampleValue(t, scrape(t, seq.URL), "yardstick_sharded_runs_total"); ok {
		t.Errorf("server without WithWorkers: yardstick_sharded_runs_total = %v, want no sharded run", runs)
	}
}
