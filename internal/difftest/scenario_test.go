// Package difftest is the differential matrix. One seed generates a
// scenario — a topogen family, a testkit suite and a delta stream — and
// a sequential in-process engine evaluates it as the reference: the
// suite, every delta, the suite again over an empty trace on the patched
// network, recording what it observes after each step. Each row of the
// matrix (matrix_test.go) evaluates the same scenario another way and
// must match the reference at every step: the same trace node for node
// in the reference's space, and byte-identical results, delta reports,
// trace JSON, coverage tables, gap reports and fingerprints. The package
// is test code only; it also holds the interval-list packet sets
// (ipset_test.go) that stand as the oracle of the destination-only FIB
// derivation.
package difftest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/netip"
	"path/filepath"
	"strings"
	"testing"

	"yardstick/internal/bgp"
	"yardstick/internal/core"
	"yardstick/internal/delta"
	"yardstick/internal/engine"
	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
	"yardstick/internal/report"
	"yardstick/internal/service"
	"yardstick/internal/testkit"
	"yardstick/internal/topogen"
)

var bg = context.Background()

// families are the topogen networks a seed picks from, by seed modulo
// their count: every family a row must hold on, including IPv6 and
// 5-tuple ACLs, at sizes a test run can afford.
var families = []string{"example", "fattree", "regional", "regional-v6", "regional-acl"}

// builtinSuites is testkit.BuiltinSuite's vocabulary, in its order.
var builtinSuites = []string{"default", "connected", "internal", "agg", "contract", "reach", "pingmesh", "host"}

// Scenario is what one seed generates.
type Scenario struct {
	Seed   int64
	Family string
	// Suites are built-in suite names, so the daemon can be asked for
	// the same tests by name.
	Suites []string
	// Events is the length of the delta stream: BGP flaps on the
	// regional families, random rule operations on the others.
	Events int
}

// Generate derives a scenario from a seed. The family is the seed modulo
// len(families), so seeds 0 to 4 cover them all; the rest is drawn from a
// generator seeded with it.
func Generate(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{
		Seed:   seed,
		Family: families[uint64(seed)%uint64(len(families))],
		Events: 2 + rng.Intn(3),
	}
	// At least three suites, so every scenario marks through several
	// kinds of test; each is kept with probability 3/4, in the
	// catalogue's order.
	for len(sc.Suites) < 3 {
		sc.Suites = sc.Suites[:0]
		for _, s := range builtinSuites {
			if rng.Intn(4) != 0 {
				sc.Suites = append(sc.Suites, s)
			}
		}
	}
	return sc
}

func (sc Scenario) String() string {
	return fmt.Sprintf("seed %d: %s, suites %s, %d events",
		sc.Seed, sc.Family, strings.Join(sc.Suites, ","), sc.Events)
}

// world is a built scenario: its network and the source of its deltas.
type world struct {
	net *netmodel.Network
	// next returns the delta that takes the reference's current network
	// one event further.
	next func(cur *netmodel.Network) ([]delta.Op, error)
}

func build(sc Scenario) (*world, error) {
	// A stream of its own, so the ACLs and rule operations do not shift
	// when Generate draws one more field.
	rng := rand.New(rand.NewSource(sc.Seed ^ 0x5eed))
	random := func(net *netmodel.Network) *world {
		return &world{net: net, next: func(cur *netmodel.Network) ([]delta.Op, error) {
			return ruleOps(rng, cur), nil
		}}
	}
	switch sc.Family {
	case "example":
		ex, err := topogen.BuildExample(topogen.ExampleOpts{})
		if err != nil {
			return nil, err
		}
		return random(ex.Net), nil
	case "fattree":
		ft, err := topogen.BuildFatTree(4)
		if err != nil {
			return nil, err
		}
		return random(ft.Net), nil
	}
	// "regional" is the case-study network at its default size; the
	// IPv6 and ACL variants are one and two pods of one data center.
	var opts topogen.RegionalOpts
	if sc.Family != "regional" {
		opts = topogen.RegionalOpts{
			DCs: 1, PodsPerDC: 2, ToRsPerPod: 2, AggsPerPod: 2,
			SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4,
		}
	}
	if sc.Family == "regional-v6" {
		opts.PodsPerDC, opts.IPv6 = 1, true
	}
	rg, err := topogen.BuildRegional(opts)
	if err != nil {
		return nil, err
	}
	decorate := func(n *netmodel.Network) *netmodel.Network { return n }
	if sc.Family == "regional-acl" {
		decorate = spineACLs(rng, rg.Spines)
	}
	replay := bgp.NewReplay(bgp.Config{Net: rg.Net, Origins: rg.Origins, Statics: rg.Statics, Export: rg.Export})
	flaps := bgp.GenFlaps(sc.Seed, sc.Events, len(rg.Origins))
	w := &world{net: decorate(rg.Net)}
	w.next = func(cur *netmodel.Network) ([]delta.Op, error) {
		if err := replay.Toggle(flaps[0]); err != nil {
			return nil, err
		}
		flaps = flaps[1:]
		next, err := replay.Build()
		if err != nil {
			return nil, err
		}
		return delta.Diff(cur, decorate(next))
	}
	return w, nil
}

// spineACLs returns a decoration that rebuilds a network with seeded
// 5-tuple deny entries (and a closing permit) on every spine, so match
// sets and marks constrain more than the destination; the same entries
// go on every network of the flap stream.
func spineACLs(rng *rand.Rand, spines []netmodel.DeviceID) func(*netmodel.Network) *netmodel.Network {
	var acl []netmodel.Match
	for range 6 {
		m := netmodel.MatchAll()
		third := rng.Intn(512) // 198.18.0.0/15 holds 512 /24s
		m.SrcPrefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{198, byte(18 + third/256), byte(third % 256), 0}), 24)
		m.Proto = []int32{6, 17}[rng.Intn(2)]
		lo := uint16(1024 + rng.Intn(60000))
		m.DstPortLo, m.DstPortHi = lo, lo+uint16(rng.Intn(2000))
		acl = append(acl, m)
	}
	return func(src *netmodel.Network) *netmodel.Network {
		// A network accepts rules only before its match sets exist:
		// rebuild it rule by rule on a copy of its topology.
		n := src.CloneTopology()
		for _, r := range src.Rules {
			if r.Table == netmodel.TableFIB {
				n.AddFIBRule(r.Device, r.Match, r.Action, r.Origin)
			}
		}
		for _, sp := range spines {
			for _, m := range acl {
				n.AddACLRule(sp, m, true)
			}
			n.AddACLRule(sp, netmodel.MatchAll(), false)
		}
		return n
	}
}

// ruleOps is a seeded delta against net: removals and re-prefixes of
// distinct FIB rules and drop routes added beside them. Every new prefix
// is one the network routes, lengthened or shortened, so it overlaps
// what the suite marked.
func ruleOps(rng *rand.Rand, net *netmodel.Network) []delta.Op {
	var fib []netmodel.RuleID
	for _, r := range net.Rules {
		if r.Table == netmodel.TableFIB && r.Match.DstPrefix.IsValid() {
			fib = append(fib, r.ID)
		}
	}
	nearby := func(id netmodel.RuleID) string {
		p := net.Rule(id).Match.DstPrefix
		bits := min(max(p.Bits()+rng.Intn(9)-4, 0), p.Addr().BitLen())
		return netip.PrefixFrom(p.Addr(), bits).Masked().String()
	}
	var ops []delta.Op
	used := map[netmodel.RuleID]bool{}
	for range 1 + rng.Intn(4) {
		id := fib[rng.Intn(len(fib))]
		switch k := rng.Intn(3); {
		case k < 2 && used[id]: // one removal or modify per rule and document
		case k == 0:
			used[id] = true
			ops = append(ops, delta.Op{Op: delta.OpRemove, Rule: id})
		case k == 1:
			used[id] = true
			spec := net.RuleSpecOf(id)
			spec.Match.Dst = nearby(id)
			ops = append(ops, delta.Op{Op: delta.OpModify, Rule: id, Spec: &spec})
		default:
			spec := netmodel.RuleSpec{
				Device: int32(net.Rule(id).Device), Table: "fib", Action: "drop",
				Match: netmodel.MatchSpec{Dst: nearby(id)}, Origin: "static",
			}
			ops = append(ops, delta.Op{Op: delta.OpAdd, Spec: &spec})
		}
	}
	return ops
}

// observation is what a row sees at one step. A nil field is one the
// row cannot observe: the daemon serves no config table, results exist
// only where the suite ran and an Applied document only where a delta
// was applied.
type observation struct {
	results   []string    // per test: name, verdict, checks, failures
	applied   []byte      // the delta's Applied document: counts, decay, drift
	trace     *core.Trace // in the reference's space
	traceJSON []byte      // exact-cube JSON, as GET /trace serves it
	table     []byte      // the by-role table and the config table, rendered
	rows      []byte      // the by-role rows and the total, exact, as GET /coverage serves them
	gaps      []byte      // the gap report, as GET /gaps serves it
	fp        string
}

// Step is the reference after the suite (the first step), after one
// delta, or after the suite ran again, over an empty trace, on the
// patched network (the last).
type Step struct {
	Doc  *delta.Document // the delta that led here; nil where the suite ran
	want observation
	// What the rows that derive their state from the reference read.
	netJSON  []byte // the network's encoding, written without its cache
	snapshot string // the trace checkpointed as YSS1 (engine.Snapshot)
	arena    []byte // the trace as a YSS1 fragment; want.traceJSON is its cube JSON
}

// Reference is a scenario evaluated by a sequential engine.
type Reference struct {
	Scenario
	space *hdr.Space // the reference engine's; every observed trace is moved here
	// start is the generated network. The reference holds its JSON
	// rebuild; the workers and daemon rows start from it.
	start *netmodel.Network
	Steps []Step
}

// evaluate runs the reference: the suite, the delta stream, the suite
// again over an empty trace. Its engine holds the JSON rebuild of the
// generated network, so a row over the generated one (or its clones)
// also holds clones to the rebuild.
func evaluate(t testing.TB, sc Scenario) *Reference {
	t.Helper()
	w, err := build(sc)
	if err != nil {
		t.Fatal(err)
	}
	w.net.ComputeMatchSets()
	ref := &Reference{Scenario: sc, start: w.net}
	e := engine.New(decode(t, encode(t, w.net)), engine.Config{})
	ref.space = e.Net().Space
	dir := t.TempDir()
	record := func(doc *delta.Document, results []testkit.Result, applied *delta.Applied) {
		st := Step{Doc: doc, netJSON: encode(t, e.Net()), want: observe(t, e, ref.space)}
		if doc == nil {
			st.want.results = summarize(results)
		} else {
			st.want.applied = marshal(t, applied)
		}
		st.snapshot = filepath.Join(dir, fmt.Sprintf("step%d.snap", len(ref.Steps)))
		if err := e.Snapshot(st.snapshot); err != nil {
			t.Fatal(err)
		}
		if st.arena, err = e.EncodeFragment(bg, e.Trace(), true); err != nil {
			t.Fatal(err)
		}
		ref.Steps = append(ref.Steps, st)
	}
	run := func() {
		results, err := e.Run(bg, "", suiteOf(t, sc.Suites), nil)
		if err != nil {
			t.Fatal(err)
		}
		record(nil, results, nil)
	}
	run()
	if st := e.Trace().Stats(); st.Locations == 0 && st.MarkedRules == 0 {
		t.Fatalf("%v: the suite recorded nothing", sc)
	}
	for i := range sc.Events {
		ops, err := w.next(e.Net())
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		doc := delta.Document{Base: e.Fingerprint(), Ops: ops}
		applied, err := e.Patch(bg, doc)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		record(&doc, nil, applied)
	}
	// The last run starts from an empty trace, so what it records on the
	// patched network is not hidden under the marks carried across.
	e.ResetTrace()
	run()
	return ref
}

// observe reads everything a row is held to from an engine, moving its
// trace into the reference's space.
func observe(t testing.TB, e *engine.Engine, refSpace *hdr.Space) observation {
	t.Helper()
	rows, err := e.Table(bg, "", e.Net().Roles(), "TOTAL")
	if err != nil {
		t.Fatal(err)
	}
	cov := e.Coverage()
	var table bytes.Buffer
	report.RenderTable(&table, rows)
	report.RenderConfig(&table, report.ConfigCoverage(cov))
	body := coverageBody{Total: wireRow(report.Total(cov, "total"))}
	for _, m := range report.ByRole(cov, cov.Net.Roles()) {
		body.ByRole = append(body.ByRole, wireRow(m))
	}
	gaps := []service.Gap{}
	for _, g := range report.Gaps(cov) {
		gaps = append(gaps, service.Gap{Origin: string(g.Origin), Role: string(g.Role), Count: g.Count})
	}
	traceJSON, err := e.EncodeFragment(bg, e.Trace(), false)
	if err != nil {
		t.Fatal(err)
	}
	// A copy: the engine's own trace moves on with the next delta.
	tr := core.NewTrace()
	tr.Merge(e.Trace())
	if e.Net().Space != refSpace {
		tr = e.Trace().TransferTo(refSpace)
	}
	return observation{
		trace: tr, traceJSON: traceJSON, table: table.Bytes(),
		rows: marshal(t, body), gaps: marshal(t, gaps), fp: e.Fingerprint(),
	}
}

// coverageBody is GET /coverage's body without its engine counters,
// which are diagnostics of a manager, not coverage.
type coverageBody struct {
	Total  service.MetricsRow   `json:"total"`
	ByRole []service.MetricsRow `json:"byRole"`
}

func wireRow(m report.Metrics) service.MetricsRow {
	return service.MetricsRow{
		Group: m.Label, Devices: m.Devices,
		DeviceFractional: m.DeviceFractional, IfaceFractional: m.IfaceFractional,
		RuleFractional: m.RuleFractional, RuleWeighted: m.RuleWeighted,
	}
}

// summarize is one line per test result: name, verdict, checks and
// failures.
func summarize(results []testkit.Result) []string {
	out := make([]string, len(results))
	for i, r := range results {
		out[i] = fmt.Sprintf("%s pass=%v errored=%v checks=%d failures=%d", r.Name, r.Pass(), r.Errored(), r.Checks, len(r.Failures))
	}
	return out
}

// summarizeWire is summarize for results as the daemon serves them,
// which list ten failures and then "... n more".
func summarizeWire(results []service.RunResult) []string {
	out := make([]string, len(results))
	for i, r := range results {
		failures := len(r.Failures)
		var more int
		if failures > 10 {
			if _, err := fmt.Sscanf(r.Failures[10], "... %d more", &more); err == nil {
				failures = 10 + more
			}
		}
		out[i] = fmt.Sprintf("%s pass=%v errored=%v checks=%d failures=%d", r.Name, r.Pass, r.Errored, r.Checks, failures)
	}
	return out
}

// check holds a row's observation at step i to the reference's.
func (ref *Reference) check(t testing.TB, row string, i int, got observation) {
	t.Helper()
	want := ref.Steps[i].want
	at := fmt.Sprintf("%s row, step %d (%v)", row, i, ref.Scenario)
	if got.results != nil && strings.Join(got.results, "\n") != strings.Join(want.results, "\n") {
		t.Errorf("%s: results\n%s\nwant\n%s", at, strings.Join(got.results, "\n"), strings.Join(want.results, "\n"))
	}
	if !got.trace.Equal(want.trace) {
		t.Errorf("%s: the trace differs from the reference's", at)
	}
	for _, f := range []struct {
		name      string
		got, want []byte
	}{
		{"applied delta", got.applied, want.applied},
		{"trace JSON", got.traceJSON, want.traceJSON},
		{"table", got.table, want.table},
		{"coverage rows", got.rows, want.rows},
		{"gap report", got.gaps, want.gaps},
	} {
		if f.got != nil && !bytes.Equal(f.got, f.want) {
			t.Errorf("%s: %s\n%s\nwant\n%s", at, f.name, f.got, f.want)
		}
	}
	if got.fp != want.fp {
		t.Errorf("%s: fingerprint %.12s, want %.12s", at, got.fp, want.fp)
	}
}

func suiteOf(t testing.TB, names []string) testkit.Suite {
	t.Helper()
	s, err := testkit.BuiltinSuite(strings.Join(names, ","))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// encode writes net's JSON from its rules' fields: a clone carries no
// encoding cache, so a stale cache cannot reach a rebuild.
func encode(t testing.TB, net *netmodel.Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := net.Clone().EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decode(t testing.TB, data []byte) *netmodel.Network {
	t.Helper()
	n, err := netmodel.DecodeJSON(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func marshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func unmarshal(t testing.TB, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatal(err)
	}
}
