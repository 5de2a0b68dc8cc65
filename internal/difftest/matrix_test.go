package difftest

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"yardstick/internal/client"
	"yardstick/internal/core"
	"yardstick/internal/engine"
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
			results, err := e.Run(bg, "", suiteOf(t, ref.Suites), workers, nil)
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

// daemonRow is daemon ≡ local twin under PATCH, through the client: PUT
// /network, the suite as a two-worker job, every delta as a PATCH, then
// DELETE /trace and the suite again as a job (on a pool the PATCHes
// dropped). After each, GET /trace, /coverage, /gaps and /network must
// match the reference. After the first job the trace is also reset and
// POSTed again in two halves, one as a YSS1 arena and one as cube JSON:
// both codecs must merge, and a POST that replaced the trace instead
// would keep one half.
func daemonRow(t *testing.T, ref *Reference) {
	srv := startServer(t, service.WithWorkers(2))
	cli := client.New(srv.URL)
	if _, err := cli.LoadNetwork(bg, ref.start); err != nil {
		t.Fatal(err)
	}
	for i, st := range ref.Steps {
		if st.Doc != nil {
			applied, err := cli.PatchNetwork(bg, *st.Doc)
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			got := served(t, cli, ref, i)
			got.applied = marshal(t, applied)
			ref.check(t, "daemon", i, got)
			continue
		}
		if i > 0 {
			if err := cli.ResetTrace(bg); err != nil {
				t.Fatal(err)
			}
		}
		results, err := cli.RunAsync(bg, 2, ref.Suites...)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		got := served(t, cli, ref, i)
		got.results = summarizeWire(results)
		ref.check(t, "daemon", i, got)
		if i == 0 {
			postHalves(t, srv.URL, cli, ref)
			ref.check(t, "daemon/trace", 0, served(t, cli, ref, 0))
		}
	}
}

// postHalves resets the daemon's trace and POSTs the reference's first
// trace back in two halves, alternating locations and rules: the first
// as a YSS1 arena, the second as cube JSON through the client.
func postHalves(t *testing.T, url string, cli *client.Client, ref *Reference) {
	t.Helper()
	if err := cli.ResetTrace(bg); err != nil {
		t.Fatal(err)
	}
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
	resp, err := http.Post(url+"/trace", service.TraceArenaMediaType, bytes.NewReader(arena))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /trace with an arena = %d", resp.StatusCode)
	}
	if _, err := cli.ReportTrace(bg, h[1]); err != nil {
		t.Fatal(err)
	}
}

// served is what the daemon serves at step i. Its trace is decoded
// against the network of that step and moved into the reference's space.
func served(t *testing.T, cli *client.Client, ref *Reference, i int) observation {
	t.Helper()
	tr, err := cli.FetchTrace(bg, decode(t, ref.Steps[i].netJSON))
	if err != nil {
		t.Fatal(err)
	}
	cov, err := cli.Coverage(bg)
	if err != nil {
		t.Fatal(err)
	}
	gaps, err := cli.Gaps(bg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cli.NetworkStats(bg)
	if err != nil {
		t.Fatal(err)
	}
	return observation{
		trace: tr.TransferTo(ref.space),
		rows:  marshal(t, coverageBody{Total: cov.Total, ByRole: cov.ByRole}),
		gaps:  marshal(t, gaps),
		fp:    st.Fingerprint,
	}
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
