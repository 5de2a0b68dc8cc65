package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"yardstick/internal/bdd"
	"yardstick/internal/core"
	"yardstick/internal/dataplane"
	"yardstick/internal/delta"
	"yardstick/internal/engine"
	"yardstick/internal/jobs"
	"yardstick/internal/netmodel"
	"yardstick/internal/obs"
	"yardstick/internal/report"
)

// refreshLog records, per read of the coverage view, how many devices
// its coverage.refresh span re-derived.
type refreshLog struct {
	mu      sync.Mutex
	devices []int64
	roots   []string
}

func (l *refreshLog) observe(sp *obs.Span) {
	for _, c := range sp.Children() {
		if c.Name() != "coverage.refresh" {
			continue
		}
		for _, m := range c.Metrics() {
			if m.Name == "devices" {
				l.mu.Lock()
				l.devices = append(l.devices, m.Value)
				l.roots = append(l.roots, sp.Name())
				l.mu.Unlock()
			}
		}
	}
}

// last returns the newest read's refreshed-device count and root span.
func (l *refreshLog) last(t *testing.T) (int64, string) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.devices) == 0 {
		t.Fatal("no coverage.refresh span observed")
	}
	return l.devices[len(l.devices)-1], l.roots[len(l.roots)-1]
}

// tableRows renders (net, trace) through a view of its own — every
// device dirty, so everything is derived here and now.
func tableRows(n *netmodel.Network, tr *core.Trace) (total MetricsRow, byRole []MetricsRow) {
	cov := core.NewCoverage(n, tr)
	seen := map[netmodel.Role]bool{}
	var roles []netmodel.Role
	for _, d := range n.Devices {
		if !seen[d.Role] {
			seen[d.Role] = true
			roles = append(roles, d.Role)
		}
	}
	for _, m := range report.ByRole(cov, roles) {
		byRole = append(byRole, toMetricsRow(m))
	}
	return toMetricsRow(report.Total(cov, "total")), byRole
}

func sameRow(a, b MetricsRow) bool {
	bits := math.Float64bits
	return a.Group == b.Group && a.Devices == b.Devices &&
		bits(a.DeviceFractional) == bits(b.DeviceFractional) && bits(a.IfaceFractional) == bits(b.IfaceFractional) &&
		bits(a.RuleFractional) == bits(b.RuleFractional) && bits(a.RuleWeighted) == bits(b.RuleWeighted)
}

// assertServesRebuild checks the table GET /coverage serves against a
// from-scratch rebuild of the server's state: its network re-decoded
// from JSON into a fresh space, its trace transferred over.
func assertServesRebuild(t *testing.T, srv *Server, url string) {
	t.Helper()
	var got CoverageReport
	doJSON(t, http.MethodGet, url+"/coverage", nil, http.StatusOK, &got)
	srv.mu.Lock()
	defer srv.mu.Unlock()
	var buf bytes.Buffer
	if err := srv.eng.Net().EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rb, err := netmodel.DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	total, byRole := tableRows(rb, srv.eng.Trace().TransferTo(rb.Space))
	if !sameRow(got.Total, total) {
		t.Fatalf("served total %+v, rebuild %+v", got.Total, total)
	}
	if len(got.ByRole) != len(byRole) {
		t.Fatalf("served %d role rows, rebuild %d", len(got.ByRole), len(byRole))
	}
	for i := range byRole {
		if !sameRow(got.ByRole[i], byRole[i]) {
			t.Fatalf("served row %+v, rebuild %+v", got.ByRole[i], byRole[i])
		}
	}
}

// TestCoverageReadsPayForWhatChanged pins the view's cost model at the
// HTTP surface: a read re-derives exactly the devices whose marks
// changed since the last read, whichever endpoint does the reading.
func TestCoverageReadsPayForWhatChanged(t *testing.T) {
	var log refreshLog
	srv, ts := newJobServer(t, WithSpanObserver(log.observe))
	devices := int64(len(srv.eng.Net().Devices))
	read := func(wantDevices int64) CoverageReport {
		t.Helper()
		var cov CoverageReport
		doJSON(t, http.MethodGet, ts.URL+"/coverage", nil, http.StatusOK, &cov)
		if n, root := log.last(t); n != wantDevices || root != "service.coverage" {
			t.Fatalf("read refreshed %d devices under %q, want %d under service.coverage", n, root, wantDevices)
		}
		return cov
	}

	runSuite(t, ts.URL, "default,internal,connected")
	first := read(devices) // a new view starts with every device dirty

	// Nothing in between: identical rows, no device, not one BDD op.
	const ops = "yardstick_bdd_ops_total"
	opsBefore, _ := sampleValue(t, scrape(t, ts.URL), ops)
	second := read(0)
	if opsAfter, _ := sampleValue(t, scrape(t, ts.URL), ops); opsAfter != opsBefore {
		t.Errorf("clean read charged %v BDD ops", opsAfter-opsBefore)
	}
	if !sameRow(first.Total, second.Total) || len(first.ByRole) != len(second.ByRole) {
		t.Fatalf("clean read changed the table: %+v then %+v", first.Total, second.Total)
	}
	for i := range first.ByRole {
		if !sameRow(first.ByRole[i], second.ByRole[i]) {
			t.Fatalf("clean read changed row %d", i)
		}
	}

	// A job that only re-marks what the trace already holds.
	runSuite(t, ts.URL, "default,connected")
	if third := read(0); !sameRow(third.Total, first.Total) {
		t.Fatalf("re-run changed the table: %+v", third.Total)
	}

	// New coverage at one ToR: that device only.
	srv.mu.Lock()
	tor := core.DevicesByRole(srv.eng.Net(), netmodel.RoleToR)[0]
	frag := core.NewTrace()
	frag.MarkPacket(dataplane.Injected(tor), srv.eng.Net().Space.Full())
	var body bytes.Buffer
	err := frag.EncodeJSON(&body)
	srv.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	doJSON(t, http.MethodPost, ts.URL+"/trace", body.Bytes(), http.StatusOK, nil)
	if fourth := read(1); fourth.Total.RuleFractional <= first.Total.RuleFractional {
		t.Errorf("new marks at a ToR did not raise rule coverage: %v then %v", first.Total.RuleFractional, fourth.Total.RuleFractional)
	}
	assertServesRebuild(t, srv, ts.URL)

	// GET /gaps reads the same view: clean now, with the root span and
	// the Server-Timing header /coverage has.
	resp, err := http.Get(ts.URL + "/gaps")
	if err != nil {
		t.Fatal(err)
	}
	var gaps []Gap
	if err := json.NewDecoder(resp.Body).Decode(&gaps); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /gaps = %d, %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	if _, ok := parseServerTiming(t, resp.Header.Get("Server-Timing"))["compute"]; !ok {
		t.Errorf("GET /gaps Server-Timing = %q, want a compute entry", resp.Header.Get("Server-Timing"))
	}
	if n, root := log.last(t); n != 0 || root != "service.gaps" {
		t.Errorf("GET /gaps refreshed %d devices under %q, want 0 under service.gaps", n, root)
	}

	if got := srv.metrics.Counter(engine.MetricCoverageRefreshDevices).Value(); got != uint64(devices+1) {
		t.Errorf("%s = %d, want %d", engine.MetricCoverageRefreshDevices, got, devices+1)
	}
	if clean := srv.metrics.Counter(engine.MetricCoverageReads, "result", "clean").Value(); clean != 4 {
		t.Errorf("clean reads = %d, want 4", clean)
	}
	if refreshed := srv.metrics.Counter(engine.MetricCoverageReads, "result", "refreshed").Value(); refreshed != 2 {
		t.Errorf("refreshed reads = %d, want 2", refreshed)
	}

	// Replacing the trace or the network replaces the view with it: the
	// old one must be unreachable, never patched up.
	doJSON(t, http.MethodDelete, ts.URL+"/trace", nil, http.StatusNoContent, nil)
	if empty := read(devices); empty.Total.RuleFractional != 0 || empty.Total.DeviceFractional != 0 {
		t.Errorf("coverage after DELETE /trace = %+v, want zero", empty.Total)
	}
	runSuite(t, ts.URL, "default")
	assertServesRebuild(t, srv, ts.URL)
	srv.mu.Lock()
	other := srv.eng.Net().CloneTopology()
	for _, r := range srv.eng.Net().Rules[:len(srv.eng.Net().Rules)/2] {
		if r.Table == netmodel.TableFIB {
			other.AddFIBRule(r.Device, r.Match, r.Action, r.Origin)
		}
	}
	other.ComputeMatchSets()
	var put bytes.Buffer
	err = other.EncodeJSON(&put)
	srv.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	doJSON(t, http.MethodPut, ts.URL+"/network", put.Bytes(), http.StatusOK, nil)
	if fresh := read(devices); fresh.Total.RuleFractional != 0 {
		t.Errorf("coverage after PUT /network = %+v, want zero", fresh.Total)
	}
	assertServesRebuild(t, srv, ts.URL)
}

// TestViewAfterPatch: rule IDs compact under PATCH, so the view's
// per-rule state has to move with them; the served table must equal a
// rebuild after deltas that remove low IDs, and the drift rows must be
// what a fresh view computes.
func TestViewAfterPatch(t *testing.T) {
	var log refreshLog
	srv, ts := newJobServer(t, WithSpanObserver(log.observe))
	runSuite(t, ts.URL, "default,internal,connected,contract")
	doJSON(t, http.MethodGet, ts.URL+"/coverage", nil, http.StatusOK, nil)
	for i := 0; i < 3; i++ {
		srv.mu.Lock()
		victim := srv.eng.Net().Devices[i].FIB[0]
		touched := srv.eng.Net().Devices[i].Name
		srv.mu.Unlock()
		doc := delta.Document{Base: netStats(t, ts.URL).Fingerprint, Ops: []delta.Op{{Op: delta.OpRemove, Rule: victim}}}
		var ap delta.Applied
		doJSON(t, http.MethodPatch, ts.URL+"/network", marshal(t, doc), http.StatusOK, &ap)
		if len(ap.Drift) != 1 || ap.Drift[0].Device != touched {
			t.Fatalf("drift = %+v, want one row for %s", ap.Drift, touched)
		}
		srv.mu.Lock()
		dev, _ := srv.eng.Net().DeviceByName(touched)
		want := core.RuleCoverage(core.NewCoverage(srv.eng.Net(), srv.eng.Trace()), srv.eng.Net().DeviceRules(dev.ID), core.Weighted)
		srv.mu.Unlock()
		if math.Float64bits(ap.Drift[0].After) != math.Float64bits(want) {
			t.Fatalf("drift after = %v, fresh view %v", ap.Drift[0].After, want)
		}
		// The PATCH already re-derived the touched device: the reader gets
		// the new table without refreshing anything.
		assertServesRebuild(t, srv, ts.URL)
		if n, _ := log.last(t); n != 0 {
			t.Errorf("read after PATCH refreshed %d devices, want 0", n)
		}
	}
}

// TestViewSurvivesAbortedRefresh: a budget trip or a cancellation in the
// middle of a refresh answers 503, leaves the unfinished devices dirty,
// and does not poison later reads.
func TestViewSurvivesAbortedRefresh(t *testing.T) {
	var log refreshLog
	srv, ts := newJobServer(t, WithSpanObserver(log.observe))
	devices := int64(len(srv.eng.Net().Devices))
	runSuite(t, ts.URL, "default,internal,connected,contract,reach")

	// Enough budget for the first devices, not for all of them.
	srv.mu.Lock()
	srv.eng.Net().Space.SetLimits(bdd.Limits{MaxOps: 40})
	srv.mu.Unlock()
	doJSON(t, http.MethodGet, ts.URL+"/coverage", nil, http.StatusServiceUnavailable, nil)
	doJSON(t, http.MethodGet, ts.URL+"/gaps", nil, http.StatusServiceUnavailable, nil)
	srv.mu.Lock()
	srv.eng.Net().Space.SetLimits(bdd.Limits{})
	srv.mu.Unlock()

	// A request whose client is already gone.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/coverage", nil).WithContext(ctx))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled GET /coverage = %d, want 503", rec.Code)
	}

	assertServesRebuild(t, srv, ts.URL)
	// That read finished what the aborted ones left: something, and no
	// more than everything. The next one is clean.
	if n, _ := log.last(t); n < 1 || n > devices {
		t.Errorf("recovery read refreshed %d of %d devices", n, devices)
	}
	doJSON(t, http.MethodGet, ts.URL+"/coverage", nil, http.StatusOK, nil)
	if n, _ := log.last(t); n != 0 {
		t.Errorf("read after recovery refreshed %d devices, want 0", n)
	}
}

// TestViewUnderConcurrentTraffic runs readers, jobs, trace posts and
// patches at once (the -race target for the view); whatever order the
// mutex picked, the final table equals a rebuild.
func TestViewUnderConcurrentTraffic(t *testing.T) {
	srv, ts := newJobServer(t)
	srv.mu.Lock()
	tor := core.DevicesByRole(srv.eng.Net(), netmodel.RoleToR)[0]
	frag := core.NewTrace()
	frag.MarkPacket(dataplane.Injected(tor), srv.eng.Net().Space.Full())
	var fragJSON bytes.Buffer
	err := frag.EncodeJSON(&fragJSON)
	srv.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	hit := func(method, path string, body []byte, want int) {
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s %s = %d, want %d", method, path, resp.StatusCode, want)
		}
	}
	var wg sync.WaitGroup
	spawn := func(n int, fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				fn(i)
			}
		}()
	}
	suites := []string{"default", "internal", "connected", "contract", "agg", "host"}
	var (
		jobsMu sync.Mutex
		jobIDs []string // read after wg.Wait
	)
	submit := func(suite string) {
		resp, err := http.Post(ts.URL+"/jobs?suite="+suite, "", nil)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		var sub JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Errorf("POST /jobs = %d, %v", resp.StatusCode, err)
			return
		}
		jobsMu.Lock()
		jobIDs = append(jobIDs, sub.ID)
		jobsMu.Unlock()
	}
	spawn(12, func(int) { hit(http.MethodGet, "/coverage", nil, http.StatusOK) })
	spawn(12, func(int) { hit(http.MethodGet, "/gaps", nil, http.StatusOK) })
	spawn(6, func(i int) { submit(suites[i]) })
	spawn(6, func(i int) { submit(suites[len(suites)-1-i]) })
	spawn(3, func(int) { hit(http.MethodPost, "/trace", fragJSON.Bytes(), http.StatusOK) })
	// One writer, so every document names the base it was built on.
	spawn(4, func(i int) {
		srv.mu.Lock()
		victim := srv.eng.Net().Devices[i].FIB[0]
		base := srv.eng.Fingerprint()
		srv.mu.Unlock()
		doc, err := json.Marshal(delta.Document{Base: base, Ops: []delta.Op{{Op: delta.OpRemove, Rule: victim}}})
		if err != nil {
			t.Error(err)
			return
		}
		hit(http.MethodPatch, "/network", doc, http.StatusOK)
	})
	wg.Wait()
	for _, id := range jobIDs {
		if j := pollJob(t, ts.URL, id); j.State != jobs.StateDone {
			t.Errorf("job %s = %s %q, want done", id, j.State, j.Error)
		}
	}
	assertServesRebuild(t, srv, ts.URL)
}

// parseServerTiming splits a Server-Timing header into name → dur.
func parseServerTiming(t *testing.T, h string) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for _, entry := range bytes.Split([]byte(h), []byte(",")) {
		name, _, ok := bytes.Cut(bytes.TrimSpace(entry), []byte(";dur="))
		if ok {
			out[string(name)] = true
		}
	}
	return out
}
