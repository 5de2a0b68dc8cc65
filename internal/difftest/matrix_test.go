package difftest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"yardstick/internal/core"
	"yardstick/internal/delta"
	"yardstick/internal/engine"
	"yardstick/internal/faults"
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
	{"cancel", false, cancelRow},
	{"daemon", true, daemonRow},
}

// flapStream is the length of the delta stream TestMatrix replays on the
// small regional families (one data center): long enough that the
// daemon's coverage view and the reference's are carried across dozens of
// rule-ID compactions, each held to a rebuild.
const flapStream = 50

// pinned are scenarios TestMatrix runs beside the generated ones.
var pinned = []Scenario{
	// Reachability and pingmesh fail from every source, more than ten
	// times each, so the workers rows hold a split test's folded
	// failures to the sequential order, and the daemon row the ten a
	// job serves.
	{Seed: 5, Family: "fattree-blackholes", Suites: []string{"default", "contract", "reach", "pingmesh"}, Events: 3, Reject: 1},
	// Pingmesh without reachability, so its pings miss their hops and
	// every row marks them through the bulk build, not only the
	// contained walk (the subtest is "fattree#01").
	{Seed: 6, Family: "fattree", Suites: []string{"default", "agg", "pingmesh"}, Events: 3, Reject: 1},
}

// TestMatrix runs every row on one seed per family, and on the pinned
// scenarios.
func TestMatrix(t *testing.T) {
	var scenarios []Scenario
	for seed := range int64(len(families)) {
		sc := Generate(seed)
		if strings.HasPrefix(sc.Family, "regional-") {
			sc.Events = flapStream
		}
		scenarios = append(scenarios, sc)
	}
	for _, sc := range append(scenarios, pinned...) {
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

// refuse applies step i's rejected document to e, which must refuse it
// with the reference's error.
func (ref *Reference) refuse(t *testing.T, row string, i int, e *engine.Engine) {
	t.Helper()
	st := ref.Steps[i]
	if _, err := e.Patch(bg, *st.Doc); err == nil || err.Error() != st.rejected {
		t.Fatalf("%s row, step %d (%v): Patch error %v, want %q", row, i, ref.Scenario, err, st.rejected)
	}
}

// workersRow is Workers=1 ≡ N: engine.Run sharded over a pool of two and
// of three clones of the generated network (so also clone ≡ the JSON
// rebuild the reference holds), the reference's deltas through Patch,
// which drops the pool (a rejected document leaves it), and the suite
// again, over an empty trace, on a pool of clones of the patched network.
func workersRow(t *testing.T, ref *Reference) {
	for _, workers := range []int{2, 3} {
		name := fmt.Sprintf("workers=%d", workers)
		e := engine.New(ref.start.Clone(), engine.Config{Workers: workers})
		for i, st := range ref.Steps {
			if st.rejected != "" {
				ref.refuse(t, name, i, e)
				ref.check(t, name, i, observe(t, e, ref.space))
				continue
			}
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
			got.results = summarize(e.Net(), results, -1)
			ref.check(t, name, i, got)
		}
	}
}

// rebuildRow is delta ≡ rebuild: at every step, an engine over the JSON
// rebuild of the reference's network, every match set derived from
// configuration, with the reference's trace transferred in. The
// reference reached that network by incremental Commits and carried its
// coverage view across them. At the rejected document's step the engine
// is handed that document too, and must refuse it.
func rebuildRow(t *testing.T, ref *Reference) {
	for i, st := range ref.Steps {
		e := engine.New(decode(t, st.netJSON), engine.Config{})
		if err := e.MergeTrace(bg, st.want.trace.TransferTo(e.Net().Space)); err != nil {
			t.Fatal(err)
		}
		if st.rejected != "" {
			ref.refuse(t, "rebuild", i, e)
		}
		ref.check(t, "rebuild", i, observe(t, e, ref.space))
	}
}

// restoreRow is arena restore ≡ live: the reference's YSS1 checkpoint of
// every step restored into a fresh engine over the decoded network,
// which must refuse the rejected document at its step.
func restoreRow(t *testing.T, ref *Reference) {
	for i, st := range ref.Steps {
		e := engine.New(decode(t, st.netJSON), engine.Config{})
		if legacy, err := e.Restore(bg, st.snapshot); err != nil || legacy {
			t.Fatalf("step %d: Restore = legacy %v, %v", i, legacy, err)
		}
		if st.rejected != "" {
			ref.refuse(t, "restore", i, e)
		}
		ref.check(t, "restore", i, observe(t, e, ref.space))
	}
}

// fragmentRow is arena merge ≡ cube merge: the reference's trace encoded
// as a YSS1 fragment and as cube JSON, each merged into a fresh engine,
// which must refuse the rejected document at its step.
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
			if st.rejected != "" {
				ref.refuse(t, frag.name, i, e)
			}
			ref.check(t, frag.name, i, observe(t, e, ref.space))
		}
	}
}

// cancelRow is cancellation ≡ no delta: a sequential engine over the
// reference's starting point replays the stream with each delta's Patch
// cancelled at an op drawn from the seed, inside the first seven eighths
// of what the reference's Patch charged, so that it is always cut short
// (a delta that charges no op is applied whole).
// Cut before its commit, the engine must observe what the reference did
// before the delta, and applying the delta again under a live context
// must reach the reference's next step, delta report and all. Cut in the
// drift report, after the commit, the delta is applied and the engine
// must observe the reference's next step without the report's drift
// section.
func cancelRow(t *testing.T, ref *Reference) {
	rng := rand.New(rand.NewSource(ref.Seed ^ 0xca9ce1))
	e := engine.New(decode(t, encode(t, ref.start)), engine.Config{})
	for i, st := range ref.Steps {
		switch {
		case st.rejected != "":
			ref.refuse(t, "cancel", i, e)
		case st.Doc == nil:
			if i > 0 {
				e.ResetTrace()
			}
			if _, err := e.Run(bg, "", suiteOf(t, ref.Suites), nil); err != nil {
				t.Fatalf("cancel row, step %d: %v", i, err)
			}
		default:
			// A delta that charges no op (a flap that changes no rule) has
			// no inside to cancel.
			ctx, row := bg, "cancel"
			if st.ops > 0 {
				k := rng.Int63n(max(int64(st.ops)*7/8, 1))
				ctx = faults.CancelAtOp(e.Net().Space.Manager(), int(k))
				row = fmt.Sprintf("cancel (after %d of %d ops)", k, st.ops)
			}
			applied, err := e.Patch(ctx, *st.Doc)
			switch {
			case applied == nil && errors.Is(err, context.Canceled):
				ref.check(t, row, i-1, observe(t, e, ref.space))
				if applied, err = e.Patch(bg, *st.Doc); err != nil {
					t.Fatalf("%s row, step %d, applied again: %v", row, i, err)
				}
			case errors.Is(err, delta.ErrDriftIncomplete):
				ref.check(t, row, i, observe(t, e, ref.space))
				continue
			case err != nil || st.ops > 0:
				t.Fatalf("%s row, step %d: Patch = %v, want it cancelled", row, i, err)
			}
			got := observe(t, e, ref.space)
			got.applied = marshal(t, applied)
			ref.check(t, row, i, got)
			continue
		}
		ref.check(t, "cancel", i, observe(t, e, ref.space))
	}
}

// daemonRow is daemon ≡ local twin under PATCH, over the wire: PUT
// /network, the suite as a job on a two-worker daemon, every delta as a
// PATCH, then DELETE /trace and the suite again as a job (on a pool the
// PATCHes dropped). The rejected document's PATCH must answer 400 with
// the reference's error. After each, GET /trace, /coverage, /gaps and
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
		if st.rejected != "" {
			var body map[string]string
			unmarshal(t, call(t, http.MethodPatch, base+"/network", marshal(t, st.Doc), http.StatusBadRequest), &body)
			if body["error"] != st.rejected {
				t.Errorf("daemon row, step %d (%v): PATCH refused with %q, want %q", i, ref.Scenario, body["error"], st.rejected)
			}
			ref.check(t, "daemon", i, served(t, base, ref, i))
			continue
		}
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
		got.served = summarizeWire(results)
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
