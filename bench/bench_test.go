package main

import (
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"yardstick/internal/bgp"
)

func TestPercentileRule(t *testing.T) {
	v := make([]float64, 199)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if _, err := percentile(v, 0.95); err == nil {
		t.Error("p95 of 199 samples has 9 samples beyond it and must be refused")
	}
	v = append(v, 200)
	got, err := percentile(v, 0.95)
	if err != nil || got != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 (10 samples beyond it)", got, err)
	}
	if _, err := percentile(v, 0.5); err == nil {
		t.Error("percentile must send the median to median()")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(values, n=4) returns, since the driver judges
// spread with that function.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 30, 20})
	if q1 != 10 || q3 != 30 {
		t.Errorf("quartiles(10,20,30) = %v, %v; Python gives 10, 30", q1, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op.x", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 70},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "d", Start: 20, End: 30},
		{ID: 6, Parent: 1, Name: "open", Start: 95, End: -1}, // never ended
	}
	self := selfTimes(spans)
	// a∪b covers 10..70 = 60, c covers 90..100 = 10 inside the parent.
	if self[1] != 30 {
		t.Errorf("parent self = %d, want 100-60-10 = 30", self[1])
	}
	if self[2] != 30 {
		t.Errorf("a self = %d, want 40-10 = 30", self[2])
	}
	if self[3] != 30 || self[4] != 30 || self[5] != 10 {
		t.Errorf("leaf selves = %d, %d, %d; want 30, 30, 10", self[3], self[4], self[5])
	}
	if _, ok := self[6]; ok {
		t.Error("an open span has no self time")
	}
}

// TestSharesPartitionTheOp checks the priority rule of the layer-share
// table: evaluation claims the instants it overlaps with serving, and
// the shares of one op never sum past 1.
func TestSharesPartitionTheOp(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op.service_mix", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "jobs.poll_wait", Start: 0, End: 60},
		{ID: 3, Parent: 1, Name: "jobs.run", Start: 10, End: 50},
		{ID: 4, Parent: 1, Name: "service.get_coverage", Start: 60, End: 100},
		{ID: 5, Parent: 4, Name: "core.metric_table", Start: 70, End: 100},
	}
	vals := map[string]float64{}
	deriveReplay(vals, spans, &measured{lat: []float64{1e-4}}, &measured{lat: []float64{1e-4}})
	want := map[string]float64{"share.evaluation": 0.4, "share.metrics": 0.3, "share.serving": 0.3,
		"share.wire": 0, "share.churn": 0, "share.replication": 0}
	for k, w := range want {
		if math.Abs(vals[k]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, vals[k], w)
		}
	}
}

func TestForwarderCountsPayloadBothWays(t *testing.T) {
	echo, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Close()
	go func() {
		for {
			c, err := echo.Accept()
			if err != nil {
				return
			}
			go func() { // replies with twice what it reads
				defer c.Close()
				buf := make([]byte, 1000)
				if _, err := io.ReadFull(c, buf); err == nil {
					c.Write(buf)
					c.Write(buf)
				}
			}()
		}
	}()
	f, err := newForwarder(echo.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c, err := net.Dial("tcp", f.addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(make([]byte, 1000)); err != nil {
			t.Fatal(err)
		}
		if n, _ := io.Copy(io.Discard, c); n != 2000 {
			t.Fatalf("read %d bytes back, want 2000", n)
		}
		c.Close()
	}
	f.close()
	if got := f.bytes.Load(); got != 3*3000 {
		t.Errorf("forwarder counted %d bytes, want %d (1000 up + 2000 down, three times)", got, 3*3000)
	}
}

func TestSameSeedSameSequences(t *testing.T) {
	for c := 0; c < 2; c++ {
		if !reflect.DeepEqual(suiteMix(7, c, 200), suiteMix(7, c, 200)) {
			t.Errorf("client %d: the same seed gave two different op sequences", c)
		}
	}
	if reflect.DeepEqual(suiteMix(7, 0, 64), suiteMix(8, 0, 64)) {
		t.Error("different seeds gave the same op sequence")
	}
	if reflect.DeepEqual(suiteMix(7, 0, 64), suiteMix(7, 1, 64)) {
		t.Error("the two clients of one seed got the same op sequence")
	}
	// Every pass of sixteen ops holds the whole deck.
	count := map[string]int{}
	for _, op := range suiteMix(3, 0, 2*len(mixDeck)) {
		count[strings.Join(op, ",")]++
	}
	for _, op := range mixDeck {
		if count[strings.Join(op, ",")] != 2 {
			t.Errorf("op %v appears %d times in two passes, want 2", op, count[strings.Join(op, ",")])
		}
	}
	origins := make([]int, 64)
	for i := range origins {
		origins[i] = 100 + i
	}
	a, b := flapSchedule(5, origins), flapSchedule(5, origins)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different flap schedules")
	}
	for i, ev := range bgp.GenFlaps(5, flapCycle, len(origins)) {
		if a[i].Origin != origins[ev.Origin] || a[i].Up != ev.Up {
			t.Errorf("event %d is not bgp.GenFlaps's event mapped onto the given originations", i)
		}
	}
	up := map[int]bool{}
	for _, ev := range a {
		up[ev.Origin] = ev.Up
	}
	for o, u := range up {
		if !u {
			t.Errorf("origination %d is still withdrawn at the end of the cycle", o)
		}
	}
}

// TestChurnPlanCloses builds the flap documents for one seed and checks
// what the timed loop relies on: the second pass ends on the fingerprint
// it started from, so it can be repeated.
func TestChurnPlanCloses(t *testing.T) {
	in, err := genRegional(3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := genChurnPlan(in, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.cycle) < flapCycle || len(p.cycle) != len(p.warm) {
		t.Fatalf("cycle of %d steps after a warm pass of %d", len(p.cycle), len(p.warm))
	}
	for i, st := range p.cycle {
		var doc struct {
			Base string `json:"base"`
		}
		if err := json.Unmarshal(st.doc, &doc); err != nil {
			t.Fatal(err)
		}
		prev := p.warm[len(p.warm)-1].fp
		if i > 0 {
			prev = p.cycle[i-1].fp
		}
		if doc.Base != prev {
			t.Errorf("step %d is based on %.12s, the state before it is %.12s", i, doc.Base, prev)
		}
		if st.fp != fingerprintOf(st.netJSON) {
			t.Errorf("step %d: fingerprint is not that of the twin network", i)
		}
	}
}

func TestTableFrom(t *testing.T) {
	out := "network: 1 devices\n\ntest results:\n  x PASS\n\ncoverage:\ngroup devices\ntor 1\nTOTAL 1\n\nwrote report\n"
	if got := tableFrom([]byte(out)); got != "group devices\ntor 1\nTOTAL 1\n" {
		t.Errorf("tableFrom = %q", got)
	}
	if got := tableFrom([]byte("coverage:\nA\nB\n")); got != "A\nB\n" {
		t.Errorf("table at end of output = %q", got)
	}
	if tableFrom([]byte("no table here\n")) != "" {
		t.Error("tableFrom invented a table")
	}
}

func TestJudge(t *testing.T) {
	lat := metricSpec{Name: "op_p50_ms", Better: lower, Bound: 0.10}
	thr := metricSpec{Name: "throughput_ops_s", Better: higher, Bound: 0.10}
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c} }
	if v, _, _ := judge(lat, steady(100), steady(105)); v != vOK {
		t.Errorf("+5%% latency inside a 10%% bound = %s", v)
	}
	if v, _, _ := judge(lat, steady(100), steady(115)); v != vWorse {
		t.Errorf("+15%% latency = %s, want worse", v)
	}
	if v, _, _ := judge(lat, steady(100), steady(80)); v != vOK {
		t.Errorf("-20%% latency = %s, want ok (better is not worse)", v)
	}
	if v, _, _ := judge(thr, steady(100), steady(85)); v != vWorse {
		t.Errorf("-15%% throughput = %s, want worse", v)
	}
	if v, _, _ := judge(lat, []float64{80, 90, 100, 110, 120}, steady(100)); v != vUnresolved {
		t.Errorf("a 30%% spread against a 10%% bound = %s, want unresolved", v)
	}
}

// TestManifestMatchesCatalogue is the consistency test: what the harness
// can emit is what BENCHMARK.json declares, and every name is one the
// contract accepts.
func TestManifestMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(raw, k)
	}
	for k := range raw {
		t.Errorf("BENCHMARK.json has the extra key %q", k)
	}
	var got manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if want := specManifest(); !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with BENCH_WRITE_MANIFEST=1 go test -run TestWriteManifest")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, the contract wants 2 to 8", len(workloads))
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 / 128", len(endToEnd), len(perLayer))
	}
	setup := false
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside 0..0.25", m.Name, m.Bound)
		}
	}
	for _, m := range endToEnd {
		if m.Bound < 0.05 {
			t.Errorf("end-to-end metric %s: bound %v is below the 5%% floor", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Error("the end-to-end metrics must include setup_s in s, lower is better")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the contract allows 64 KiB", len(data))
	}
}

// TestEveryPerLayerMetricHasASource fails when the catalogue names a
// per-layer metric that no probe and no derivation ever writes: the
// harness would report it as 0 on every workload for ever.
func TestEveryPerLayerMetricHasASource(t *testing.T) {
	var src strings.Builder
	for _, f := range []string{"layers.go", "run.go"} {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src.Write(b)
	}
	for _, m := range perLayer {
		literal := `"` + m.Name + `"`
		computed := false
		switch {
		case strings.HasPrefix(m.Name, "share."):
			computed = strings.Contains(src.String(), `"share."+g`)
		case strings.HasPrefix(m.Name, "testkit.") && strings.HasSuffix(m.Name, "_ms"):
			_, computed = map[string]bool{"default": true, "connected": true, "internal": true, "agg": true,
				"contract": true, "reach": true, "pingmesh": true, "host": true}[strings.TrimSuffix(strings.TrimPrefix(m.Name, "testkit."), "_ms")]
		case strings.HasPrefix(m.Name, "bdd.") && strings.HasSuffix(m.Name, "_ns"):
			computed = strings.Contains(src.String(), `"`+strings.TrimSuffix(m.Name, "_ns")+`"`)
		}
		if !computed && !strings.Contains(src.String(), literal) {
			t.Errorf("per-layer metric %s is never written by layers.go or run.go", m.Name)
		}
	}
}

func TestShareGroups(t *testing.T) {
	for spanName, want := range map[string]string{
		"testkit.ToRPingmesh": "evaluation", "jobs.run": "evaluation", "sharded.run": "evaluation",
		"core.metric_table": "metrics", "sharded.build_replicas": "replication", "netmodel.clone": "replication",
		"netmodel.json_decode": "wire", "coord.fragment_fetch": "wire", "coord.run": "wire",
		"service.get_job": "serving", "jobs.poll_wait": "serving", "service.patch_network": "churn",
		"op.batch_fattree": "",
	} {
		if got := shareGroup(spanName); got != want {
			t.Errorf("shareGroup(%q) = %q, want %q", spanName, got, want)
		}
	}
}
