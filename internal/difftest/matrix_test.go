package difftest

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"yardstick/internal/core"
	"yardstick/internal/engine"
	"yardstick/internal/jobs"
	"yardstick/internal/netmodel"
	"yardstick/internal/service"
)

// A row evaluates a scenario its own way and holds every step to the
// reference (Reference.check). Remote rows serve over HTTP; FuzzMatrix
// runs the in-process ones.
type row struct {
	name   string
	remote bool
	run    func(t *testing.T, ref *Reference)
}

var rows = []row{
	{"workers", false, workersRow},
	{"rebuild", false, rebuildRow},
	{"restore", false, restoreRow},
	{"fragment", false, fragmentRow},
	{"daemon", true, daemonRow},
}

// flapStream is the length of the delta stream TestMatrix replays on the
// small regional families (one data center): long enough that the
// daemon's coverage view and the reference's are carried across dozens of
// rule-ID compactions, each held to a rebuild.
const flapStream = 50

// TestMatrix runs every row on one seed per family.
func TestMatrix(t *testing.T) {
	for seed := range int64(len(families)) {
		sc := Generate(seed)
		if strings.HasPrefix(sc.Family, "regional-") {
			sc.Events = flapStream
		}
		t.Run(sc.Family, func(t *testing.T) {
			ref := evaluate(t, sc)
			for _, r := range rows {
				t.Run(r.name, func(t *testing.T) { r.run(t, ref) })
			}
		})
	}
}

// FuzzMatrix lets the fuzzer pick the seed, and so the family, the
// suite and the delta stream, for the in-process rows.
func FuzzMatrix(f *testing.F) {
	for seed := range int64(len(families)) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		ref := evaluate(t, Generate(seed))
		for _, r := range rows {
			if !r.remote {
				r.run(t, ref)
			}
		}
	})
}

// workersRow is Workers=1 ≡ N: engine.Run sharded over a pool of two and
// of three clones of the generated network (so also clone ≡ the JSON
// rebuild the reference holds), the reference's deltas through Patch,
// which drops the pool, and the suite again, over an empty trace, on a
// pool of clones of the patched network.
func workersRow(t *testing.T, ref *Reference) {
	for _, workers := range []int{2, 3} {
		name := fmt.Sprintf("workers=%d", workers)
		e := engine.New(ref.start.Clone(), engine.Config{Workers: workers})
		for i, st := range ref.Steps {
			if st.Doc != nil {
				applied, err := e.Patch(bg, *st.Doc)
				if err != nil {
					t.Fatalf("%s, step %d: %v", name, i, err)
				}
				got := observe(t, e, ref.space)
				got.applied = marshal(t, applied)
				ref.check(t, name, i, got)
				continue
			}
			if i > 0 {
				e.ResetTrace()
			}
			results, err := e.Run(bg, "", suiteOf(t, ref.Suites), nil)
			if err != nil {
				t.Fatalf("%s, step %d: %v", name, i, err)
			}
			got := observe(t, e, ref.space)
			got.results = summarize(results)
			ref.check(t, name, i, got)
		}
	}
}

// rebuildRow is delta ≡ rebuild: at every step, an engine over the JSON
// rebuild of the reference's network, every match set derived from
// configuration, with the reference's trace transferred in. The
// reference reached that network by incremental Commits and carried its
// coverage view across them.
func rebuildRow(t *testing.T, ref *Reference) {
	for i, st := range ref.Steps {
		e := engine.New(decode(t, st.netJSON), engine.Config{})
		if err := e.MergeTrace(bg, st.want.trace.TransferTo(e.Net().Space)); err != nil {
			t.Fatal(err)
		}
		ref.check(t, "rebuild", i, observe(t, e, ref.space))
	}
}

// restoreRow is arena restore ≡ live: the reference's YSS1 checkpoint of
// every step restored into a fresh engine over the decoded network.
func restoreRow(t *testing.T, ref *Reference) {
	for i, st := range ref.Steps {
		e := engine.New(decode(t, st.netJSON), engine.Config{})
		if legacy, err := e.Restore(bg, st.snapshot); err != nil || legacy {
			t.Fatalf("step %d: Restore = legacy %v, %v", i, legacy, err)
		}
		ref.check(t, "restore", i, observe(t, e, ref.space))
	}
}

// fragmentRow is arena merge ≡ cube merge: the reference's trace encoded
// as a YSS1 fragment and as cube JSON, each merged into a fresh engine.
func fragmentRow(t *testing.T, ref *Reference) {
	for i, st := range ref.Steps {
		for _, frag := range []struct {
			name string
			data []byte
		}{{"fragment/arena", st.arena}, {"fragment/cubes", st.want.traceJSON}} {
			e := engine.New(decode(t, st.netJSON), engine.Config{})
			if _, err := e.Merge(bg, frag.data); err != nil {
				t.Fatalf("%s, step %d: %v", frag.name, i, err)
			}
			ref.check(t, frag.name, i, observe(t, e, ref.space))
		}
	}
}

// daemonRow is daemon ≡ local twin under PATCH, over the wire: PUT
// /network, the suite as a job on a two-worker daemon, every delta as a
// PATCH, then DELETE /trace and the suite again as a job (on a pool the
// PATCHes dropped). After each, GET /trace, /coverage, /gaps and
// /network must match the reference, and so must the PATCH body and the
// job's results. After the first job the trace is also reset and POSTed
// again in two halves, one as a YSS1 arena and one as cube JSON: both
// codecs must merge, and a POST that replaced the trace instead would
// keep one half.
func daemonRow(t *testing.T, ref *Reference) {
	base := startServer(t, service.WithWorkers(2)).URL
	var netJSON bytes.Buffer
	if err := ref.start.EncodeJSON(&netJSON); err != nil {
		t.Fatal(err)
	}
	call(t, http.MethodPut, base+"/network", netJSON.Bytes(), http.StatusOK)
	for i, st := range ref.Steps {
		if st.Doc != nil {
			applied := call(t, http.MethodPatch, base+"/network", marshal(t, st.Doc), http.StatusOK)
			got := served(t, base, ref, i)
			got.applied = bytes.TrimSpace(applied)
			ref.check(t, "daemon", i, got)
			continue
		}
		if i > 0 {
			call(t, http.MethodDelete, base+"/trace", nil, http.StatusNoContent)
		}
		results := runJob(t, base, ref.Suites)
		got := served(t, base, ref, i)
		got.results = summarizeWire(results)
		ref.check(t, "daemon", i, got)
		if i == 0 {
			postHalves(t, base, ref)
			ref.check(t, "daemon/trace", 0, served(t, base, ref, 0))
		}
	}
}

// runJob submits the suites as a job, polls it to a terminal state and
// returns its results.
func runJob(t *testing.T, base string, suites []string) []service.RunResult {
	t.Helper()
	var j service.JobStatus
	path := "/jobs?suite=" + url.QueryEscape(strings.Join(suites, ","))
	unmarshal(t, call(t, http.MethodPost, base+path, nil, http.StatusAccepted), &j)
	for !j.State.Terminal() {
		time.Sleep(time.Millisecond)
		unmarshal(t, call(t, http.MethodGet, base+"/jobs/"+j.ID, nil, http.StatusOK), &j)
	}
	if j.State != jobs.StateDone {
		t.Fatalf("job %s %s: %s", j.ID, j.State, j.Error)
	}
	var results []service.RunResult
	unmarshal(t, j.Result, &results)
	return results
}

// postHalves resets the daemon's trace and POSTs the reference's first
// trace back in two halves, alternating locations and rules: the first
// as a YSS1 arena, the second as cube JSON.
func postHalves(t *testing.T, base string, ref *Reference) {
	t.Helper()
	call(t, http.MethodDelete, base+"/trace", nil, http.StatusNoContent)
	tr := ref.Steps[0].want.trace
	h := [2]*core.Trace{core.NewTrace(), core.NewTrace()}
	for i, loc := range tr.Locations() {
		h[i%2].MarkPacket(loc, tr.PacketsAt(ref.space, loc))
	}
	for r := range len(ref.start.Rules) {
		if id := netmodel.RuleID(r); tr.RuleMarked(id) {
			h[r%2].MarkRule(id)
		}
	}
	local := engine.New(decode(t, ref.Steps[0].netJSON), engine.Config{})
	arena, err := local.EncodeFragment(bg, h[0].TransferTo(local.Net().Space), true)
	if err != nil {
		t.Fatal(err)
	}
	call(t, http.MethodPost, base+"/trace", arena, http.StatusOK)
	var cubes bytes.Buffer
	if err := h[1].EncodeJSON(&cubes); err != nil {
		t.Fatal(err)
	}
	call(t, http.MethodPost, base+"/trace", cubes.Bytes(), http.StatusOK)
}

// served is what the daemon serves at step i. Its trace is decoded
// against the network of that step and moved into the reference's space.
func served(t *testing.T, base string, ref *Reference, i int) observation {
	t.Helper()
	tr, err := core.DecodeTraceJSON(decode(t, ref.Steps[i].netJSON),
		bytes.NewReader(call(t, http.MethodGet, base+"/trace", nil, http.StatusOK)))
	if err != nil {
		t.Fatal(err)
	}
	var cov service.CoverageReport
	unmarshal(t, call(t, http.MethodGet, base+"/coverage", nil, http.StatusOK), &cov)
	var gaps []service.Gap
	unmarshal(t, call(t, http.MethodGet, base+"/gaps", nil, http.StatusOK), &gaps)
	var st service.NetworkStats
	unmarshal(t, call(t, http.MethodGet, base+"/network", nil, http.StatusOK), &st)
	return observation{
		trace: tr.TransferTo(ref.space),
		rows:  marshal(t, coverageBody{Total: cov.Total, ByRole: cov.ByRole}),
		gaps:  marshal(t, gaps),
		fp:    st.Fingerprint,
	}
}

// call sends one request to the daemon and returns the response body,
// failing the test unless the status is want.
func call(t *testing.T, method, target string, body []byte, want int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, target, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("%s %s = %d (%s), want %d", method, target, resp.StatusCode, bytes.TrimSpace(data), want)
	}
	return data
}

// startServer boots an empty daemon with a live job pool.
func startServer(t *testing.T, opts ...service.Option) *httptest.Server {
	t.Helper()
	opts = append(opts, service.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	srv := service.New(opts...)
	ts := httptest.NewServer(srv.Handler())
	ctx, cancel := context.WithCancel(bg)
	done := make(chan struct{})
	go func() { defer close(done); srv.RunJobs(ctx) }()
	t.Cleanup(func() { ts.Close(); cancel(); <-done })
	return ts
}
