package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"yardstick/internal/delta"
	"yardstick/internal/netmodel"
	"yardstick/internal/topogen"
)

func netStats(t *testing.T, url string) NetworkStats {
	t.Helper()
	var st NetworkStats
	doJSON(t, "GET", url+"/network", nil, http.StatusOK, &st)
	return st
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mixedOps is one batch against net's rule universe with an op of each
// kind: drop rule 0, repoint rule 1, add a blackhole on rule 1's device.
func mixedOps(net *netmodel.Network) []delta.Op {
	mod := net.RuleSpecOf(1)
	mod.Match.Dst = "10.99.0.0/16"
	add := netmodel.RuleSpec{
		Device: mod.Device, Table: "fib", Action: "drop",
		Match:  netmodel.MatchSpec{Dst: "10.123.0.0/16"},
		Origin: "static",
	}
	return []delta.Op{
		{Op: delta.OpRemove, Rule: 0},
		{Op: delta.OpModify, Rule: 1, Spec: &mod},
		{Op: delta.OpAdd, Spec: &add},
	}
}

func TestPatchNetwork(t *testing.T) {
	ts, rg := newTestServer(t)

	// Accumulate a trace the delta must carry across.
	runSuite(t, ts.URL, "default,internal")
	var covBefore CoverageReport
	doJSON(t, "GET", ts.URL+"/coverage", nil, http.StatusOK, &covBefore)
	if covBefore.Total.RuleFractional <= 0 {
		t.Fatal("no coverage to carry")
	}
	before := netStats(t, ts.URL)
	if before.Fingerprint == "" {
		t.Fatal("GET /network carries no fingerprint")
	}

	doc := delta.Document{Base: before.Fingerprint, Ops: mixedOps(rg.Net)}
	var ap delta.Applied
	doJSON(t, "PATCH", ts.URL+"/network", marshal(t, doc), http.StatusOK, &ap)
	if ap.Removed != 1 || ap.Modified != 1 || ap.Added != 1 {
		t.Fatalf("applied = %+v", ap)
	}
	if ap.Fingerprint == before.Fingerprint || ap.Fingerprint == "" {
		t.Fatal("fingerprint did not advance")
	}
	if len(ap.Drift) == 0 {
		t.Error("no drift rows for touched devices")
	}

	after := netStats(t, ts.URL)
	if after.Fingerprint != ap.Fingerprint {
		t.Errorf("GET /network fingerprint %s, PATCH reported %s", after.Fingerprint, ap.Fingerprint)
	}
	if after.Rules != before.Rules {
		t.Errorf("rules = %d, want %d (one removed, one added)", after.Rules, before.Rules)
	}

	// The trace survived: coverage is still measurable, not reset.
	var covAfter CoverageReport
	doJSON(t, "GET", ts.URL+"/coverage", nil, http.StatusOK, &covAfter)
	if covAfter.Total.RuleFractional <= 0 {
		t.Error("delta reset the trace")
	}

	// And a second run still works against the patched universe.
	runSuite(t, ts.URL, "default")

	var st StatsReport
	doJSON(t, "GET", ts.URL+"/stats", nil, http.StatusOK, &st)
	if st.Delta.Applied != 1 || st.Delta.RulesRemoved != 1 ||
		st.Delta.RulesModified != 1 || st.Delta.RulesAdded != 1 {
		t.Errorf("delta report = %+v", st.Delta)
	}
	if st.Delta.NetworkResets != 0 {
		t.Errorf("networkResets = %d on a delta-only history", st.Delta.NetworkResets)
	}
}

func TestPatchStaleBase(t *testing.T) {
	ts, _ := newTestServer(t)
	before := netStats(t, ts.URL)
	doc := delta.Document{Base: "deadbeef", Ops: []delta.Op{{Op: delta.OpRemove, Rule: 0}}}
	req, _ := http.NewRequest("PATCH", ts.URL+"/network", bytes.NewReader(marshal(t, doc)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["current"] != before.Fingerprint {
		t.Errorf("409 body current = %q, want live fingerprint %q", body["current"], before.Fingerprint)
	}
	if netStats(t, ts.URL).Fingerprint != before.Fingerprint {
		t.Error("stale delta changed the network")
	}
}

func TestPatchBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	before := netStats(t, ts.URL)
	doJSON(t, "PATCH", ts.URL+"/network", []byte("junk"), http.StatusBadRequest, nil)
	bad := delta.Document{Ops: []delta.Op{{Op: "replace", Rule: 0}}}
	doJSON(t, "PATCH", ts.URL+"/network", marshal(t, bad), http.StatusBadRequest, nil)
	outOfRange := delta.Document{Ops: []delta.Op{{Op: delta.OpRemove, Rule: 1 << 20}}}
	doJSON(t, "PATCH", ts.URL+"/network", marshal(t, outOfRange), http.StatusBadRequest, nil)
	if netStats(t, ts.URL).Fingerprint != before.Fingerprint {
		t.Error("rejected deltas changed the network")
	}

	// No network loaded: 409, mirroring the other evaluation routes.
	empty := httptest.NewServer(New(WithLogger(discardLogger())).Handler())
	defer empty.Close()
	ok := delta.Document{Ops: []delta.Op{{Op: delta.OpRemove, Rule: 0}}}
	doJSON(t, "PATCH", empty.URL+"/network", marshal(t, ok), http.StatusConflict, nil)
}

// TestBadNetworkInputIs400: input that used to panic past the decoders —
// a duplicate device name, a prefix or rewrite address of the other
// family — answers 400 (it answered 500 through Recover) and leaves the
// loaded network as it was.
func TestBadNetworkInputIs400(t *testing.T) {
	ts, rg := newTestServer(t)
	before := netStats(t, ts.URL).Fingerprint
	doJSON(t, "PUT", ts.URL+"/network", []byte(`{"devices":[{"name":"a"},{"name":"a"}],"ifaces":[],"rules":[]}`), http.StatusBadRequest, nil)
	doJSON(t, "PUT", ts.URL+"/network", []byte(`{"devices":[{"name":"a","loopbacks":["2001:db8::1/128"]}]}`), http.StatusBadRequest, nil)
	doJSON(t, "PUT", ts.URL+"/network?format=text", []byte("device a\nroute a 2001:db8::/32 drop\n"), http.StatusBadRequest, nil)
	v6dst := rg.Net.RuleSpecOf(0)
	v6dst.Match.Dst = "2001:db8::/32"
	v6nat := rg.Net.RuleSpecOf(1)
	v6nat.Transform = &netmodel.TransformSpec{RewriteDst: true, Addr: "2001:db8::1"}
	for _, op := range []delta.Op{{Op: delta.OpAdd, Spec: &v6dst}, {Op: delta.OpModify, Rule: 1, Spec: &v6nat}} {
		doJSON(t, "PATCH", ts.URL+"/network", marshal(t, delta.Document{Ops: []delta.Op{op}}), http.StatusBadRequest, nil)
	}
	if netStats(t, ts.URL).Fingerprint != before {
		t.Error("rejected input changed the network")
	}
}

// TestPutNetworkIdempotent is the PUT no-op satellite: re-uploading the
// network that is already loaded must keep the accumulated trace (and
// count no reset), while a genuinely different network still resets.
func TestPutNetworkIdempotent(t *testing.T) {
	ts, rg := newTestServer(t)

	runSuite(t, ts.URL, "default")
	var covBefore CoverageReport
	doJSON(t, "GET", ts.URL+"/coverage", nil, http.StatusOK, &covBefore)
	if covBefore.Total.RuleFractional <= 0 {
		t.Fatal("no coverage accumulated")
	}

	var buf bytes.Buffer
	if err := rg.Net.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var st NetworkStats
	doJSON(t, "PUT", ts.URL+"/network", buf.Bytes(), http.StatusOK, &st)
	if !st.Unchanged {
		t.Fatal("re-upload of the loaded network not detected as unchanged")
	}
	var covAfter CoverageReport
	doJSON(t, "GET", ts.URL+"/coverage", nil, http.StatusOK, &covAfter)
	if covAfter.Total.RuleFractional != covBefore.Total.RuleFractional {
		t.Error("no-op PUT changed coverage — the trace was reset")
	}
	var sr StatsReport
	doJSON(t, "GET", ts.URL+"/stats", nil, http.StatusOK, &sr)
	if sr.Delta.NetworkResets != 0 {
		t.Errorf("networkResets = %d after a no-op PUT", sr.Delta.NetworkResets)
	}

	// A different network is a real replacement: trace resets, the
	// counter moves.
	other, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 1,
		SpinesPerDC: 1, Hubs: 2, WANHubs: 1, WANPrefixes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := other.Net.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var st2 NetworkStats
	doJSON(t, "PUT", ts.URL+"/network", buf.Bytes(), http.StatusOK, &st2)
	if st2.Unchanged {
		t.Fatal("different network marked unchanged")
	}
	var covReset CoverageReport
	doJSON(t, "GET", ts.URL+"/coverage", nil, http.StatusOK, &covReset)
	if covReset.Total.RuleFractional != 0 {
		t.Error("network replacement did not reset the trace")
	}
	doJSON(t, "GET", ts.URL+"/stats", nil, http.StatusOK, &sr)
	if sr.Delta.NetworkResets != 1 {
		t.Errorf("networkResets = %d after a real replacement", sr.Delta.NetworkResets)
	}
}
