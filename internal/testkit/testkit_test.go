package testkit

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"yardstick/internal/core"
	"yardstick/internal/dataplane"
	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
	"yardstick/internal/topogen"
)

func buildRegional(t *testing.T) *topogen.Regional {
	t.Helper()
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return rg
}

func TestDefaultRouteCheckPassesOnRegional(t *testing.T) {
	rg := buildRegional(t)
	tr := core.NewTrace()
	res := DefaultRouteCheck{}.Run(rg.Net, tr)
	if !res.Pass() {
		t.Fatalf("failures: %+v", res.Failures)
	}
	// Checks cover ToRs, aggs, spines, and WAN hubs, but not
	// interconnect-only hubs.
	want := len(rg.ToRs) + len(rg.Aggs) + len(rg.Spines) + len(rg.WANHubs)
	if res.Checks != want {
		t.Errorf("checks = %d, want %d", res.Checks, want)
	}
	// Exactly one marked rule per checked device.
	if st := tr.Stats(); st.MarkedRules != want {
		t.Errorf("marked rules = %d, want %d", st.MarkedRules, want)
	}
}

func TestDefaultRouteCheckCatchesNullRoute(t *testing.T) {
	ex, err := topogen.BuildExample(topogen.ExampleOpts{BugNullRoute: true})
	if err != nil {
		t.Fatal(err)
	}
	res := DefaultRouteCheck{}.Run(ex.Net, core.NewTrace())
	if res.Pass() {
		t.Fatal("null-routed default should fail the check")
	}
	b2, _ := ex.Net.DeviceByName("b2")
	found := false
	for _, f := range res.Failures {
		if f.Device == b2.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("failure should implicate b2: %+v", res.Failures)
	}
}

func TestDefaultRouteCheckCatchesMissingDefault(t *testing.T) {
	// Spines in the buggy example still have a default via B1; remove B1
	// too and they have none.
	ex, err := topogen.BuildExample(topogen.ExampleOpts{BugNullRoute: true, OmitB1: true})
	if err != nil {
		t.Fatal(err)
	}
	res := DefaultRouteCheck{}.Run(ex.Net, core.NewTrace())
	fails := map[netmodel.DeviceID]bool{}
	for _, f := range res.Failures {
		fails[f.Device] = true
	}
	for _, s := range ex.Spines {
		if !fails[s] {
			t.Errorf("spine %d missing-default not flagged", s)
		}
	}
}

func TestConnectedRouteCheckPasses(t *testing.T) {
	rg := buildRegional(t)
	tr := core.NewTrace()
	res := ConnectedRouteCheck{}.Run(rg.Net, tr)
	if !res.Pass() {
		t.Fatalf("failures: %+v", res.Failures)
	}
	// One check per internal interface end.
	want := 2 * rg.Net.Stats().Links
	if res.Checks != want {
		t.Errorf("checks = %d, want %d", res.Checks, want)
	}
	if st := tr.Stats(); st.MarkedRules != want {
		t.Errorf("marked rules = %d, want %d", st.MarkedRules, want)
	}
}

func TestInternalRouteCheckPasses(t *testing.T) {
	rg := buildRegional(t)
	tr := core.NewTrace()
	res := InternalRouteCheck{}.Run(rg.Net, tr)
	if !res.Pass() {
		t.Fatalf("failures (%d): %+v", len(res.Failures), res.Failures[:min(5, len(res.Failures))])
	}
	if res.Checks == 0 {
		t.Fatal("no checks ran")
	}
	// Coverage marked on every device except none (origins excluded per
	// prefix but every device transits some prefix).
	if st := tr.Stats(); st.Locations != len(rg.Net.Devices) {
		t.Errorf("marked locations = %d, want %d", st.Locations, len(rg.Net.Devices))
	}
}

// markCounter counts MarkPacket calls per location on the way to a trace.
type markCounter struct {
	*core.Trace
	calls map[dataplane.Loc]int
}

func (m markCounter) MarkPacket(loc dataplane.Loc, pkts hdr.Set) {
	m.calls[loc]++
	m.Trace.MarkPacket(loc, pkts)
}

// TestContractCheckMarksOncePerDevice: the contract tests report one
// markPacket per exercised device, carrying exactly the prefixes checked
// there — every other device's subnets and loopbacks.
func TestContractCheckMarksOncePerDevice(t *testing.T) {
	rg := buildRegional(t)
	m := markCounter{core.NewTrace(), map[dataplane.Loc]int{}}
	if res := (InternalRouteCheck{}).Run(rg.Net, m); !res.Pass() {
		t.Fatalf("failures: %+v", res.Failures)
	}
	for _, d := range rg.Net.Devices {
		loc := dataplane.Injected(d.ID)
		if m.calls[loc] != 1 {
			t.Fatalf("%s: %d MarkPacket calls, want 1", d.Name, m.calls[loc])
		}
		want := rg.Net.Space.Empty()
		for _, o := range rg.Net.Devices {
			if o.ID == d.ID {
				continue
			}
			for _, p := range append(append([]netip.Prefix(nil), o.Subnets...), o.Loopbacks...) {
				want = want.Union(rg.Net.Space.DstPrefix(p))
			}
		}
		if got := m.PacketsAt(rg.Net.Space, loc); !got.Equal(want) {
			t.Fatalf("%s: marked set differs from the prefixes checked there", d.Name)
		}
	}
}

func TestInternalRouteCheckSkipsOriginDelivery(t *testing.T) {
	// The origin's own rule must not be covered by the contract test:
	// host-facing interfaces stay untested (the §7.3 residual gap).
	rg := buildRegional(t)
	tr := core.NewTrace()
	InternalRouteCheck{}.Run(rg.Net, tr)
	c := core.NewCoverage(rg.Net, tr)
	tor := rg.ToRs[0]
	hostIface := rg.HostIface[tor]
	spec := core.OutIfaceSpec(rg.Net, hostIface)
	if got := core.ComponentCoverage(c, spec); got != 0 {
		t.Errorf("host-facing interface coverage = %v, want 0", got)
	}
}

func TestAggCanReachTorLoopback(t *testing.T) {
	rg := buildRegional(t)
	tr := core.NewTrace()
	res := AggCanReachTorLoopback{}.Run(rg.Net, tr)
	if !res.Pass() {
		t.Fatalf("failures: %+v", res.Failures)
	}
	// Marks only aggregation devices.
	for _, loc := range tr.Locations() {
		if rg.Net.Device(loc.Device).Role != netmodel.RoleAgg {
			t.Errorf("marked non-agg device %s", rg.Net.Device(loc.Device).Name)
		}
	}
	if len(tr.Locations()) != len(rg.Aggs) {
		t.Errorf("marked %d devices, want %d aggs", len(tr.Locations()), len(rg.Aggs))
	}
}

func TestToRReachabilityFatTree(t *testing.T) {
	ft, err := topogen.BuildFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	tr := core.NewTrace()
	res := ToRReachability{}.Run(ft.Net, tr)
	if !res.Pass() {
		t.Fatalf("failures: %+v", res.Failures[:min(5, len(res.Failures))])
	}
	nt := len(ft.ToRs)
	if res.Checks != nt*(nt-1) {
		t.Errorf("checks = %d, want %d", res.Checks, nt*(nt-1))
	}
	// Every ToR device is marked (as source or transit/destination).
	c := core.NewCoverage(ft.Net, tr)
	if got := core.DeviceCoverage(c, ft.ToRs, core.Fractional); got != 1 {
		t.Errorf("ToR fractional device coverage = %v, want 1", got)
	}
}

func TestToRContractFatTree(t *testing.T) {
	ft, err := topogen.BuildFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	tr := core.NewTrace()
	res := ToRContract{}.Run(ft.Net, tr)
	if !res.Pass() {
		t.Fatalf("failures: %+v", res.Failures[:min(5, len(res.Failures))])
	}
	if res.Checks == 0 {
		t.Fatal("no checks")
	}
}

func TestToRPingmeshFatTree(t *testing.T) {
	ft, err := topogen.BuildFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	tr := core.NewTrace()
	res := ToRPingmesh{}.Run(ft.Net, tr)
	if !res.Pass() {
		t.Fatalf("failures: %+v", res.Failures[:min(5, len(res.Failures))])
	}
	nt := len(ft.ToRs)
	if res.Checks != nt*(nt-1) {
		t.Errorf("checks = %d, want %d", res.Checks, nt*(nt-1))
	}
}

// checksLeft is a context whose Err is nil for its first n calls and
// context.Canceled after: a cancellation that lands between two of a
// test's own checks. No space watches it, so no BDD op reads it.
type checksLeft struct {
	context.Context
	n int
}

func (c *checksLeft) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// pingLog marks into a trace and keeps the pings and the number of
// MarkConcrete calls.
type pingLog struct {
	*core.Trace
	pings []core.Ping
	calls int
}

func (l *pingLog) MarkConcrete(sp *hdr.Space, pings []core.Ping) {
	l.calls++
	l.pings = append(l.pings, pings...)
	l.Trace.MarkConcrete(sp, pings)
}

// TestToRPingmeshCancelled: a pingmesh cancelled after n sources returns
// an errored Result and marks, in its one MarkConcrete call, exactly the
// pings of those n sources. Tracing charges no BDD op, and over a trace
// that reachability already covers neither does marking, so the space's
// watched context would never see the cancel: the test's own check
// between sources must.
func TestToRPingmeshCancelled(t *testing.T) {
	ft, err := topogen.BuildFatTree(6)
	if err != nil {
		t.Fatal(err)
	}
	net := ft.Net
	nt := len(ft.ToRs)
	samePing := func(a, b core.Ping) bool { return a.Packet == b.Packet && slices.Equal(a.Hops, b.Hops) }
	for _, covered := range []bool{true, false} {
		t.Run(fmt.Sprintf("covered=%v", covered), func(t *testing.T) {
			seed := func() *core.Trace {
				tr := core.NewTrace()
				if covered {
					ToRReachability{}.Run(net, tr)
				}
				return tr
			}
			full := &pingLog{Trace: seed()}
			if res := (ToRPingmesh{}).Run(net, full); !res.Pass() || full.calls != 1 || len(full.pings) != nt*(nt-1) {
				t.Fatalf("uncancelled: %+v in %d calls with %d pings, want a pass in one call with %d", res, full.calls, len(full.pings), nt*(nt-1))
			}
			for _, n := range []int{0, 1, nt / 3, nt - 1} {
				// Suite.Run checks the context once before the test, the
				// test once before each source.
				ctx := &checksLeft{context.Background(), 1 + n}
				cut := &pingLog{Trace: seed()}
				ops := net.Space.EngineStats().Ops
				res := Suite{ToRPingmesh{}}.Run(ctx, net, cut)
				if len(res) != 1 || !strings.HasPrefix(res[0].Err, "pingmesh aborted") {
					t.Fatalf("n=%d: cancelled pingmesh = %+v, want one result with the test's own abort", n, res)
				}
				if covered {
					if got := net.Space.EngineStats().Ops - ops; got != 0 {
						t.Errorf("n=%d: covered pingmesh charged %d BDD ops, want 0", n, got)
					}
				}
				// Each ToR hosts one subnet, so a source sends nt-1 pings.
				want := full.pings[:n*(nt-1)]
				if cut.calls != 1 || !slices.EqualFunc(cut.pings, want, samePing) {
					t.Fatalf("n=%d: marked %d pings in %d calls, want the first %d sources' %d in one",
						n, len(cut.pings), cut.calls, n, len(want))
				}
				ref := seed()
				for _, p := range want {
					single := net.Space.Singleton(p.Packet)
					for _, h := range p.Hops {
						ref.MarkPacket(h.Loc, single)
					}
				}
				if !cut.Trace.Equal(ref) {
					t.Fatalf("n=%d: the cancelled run's trace is not its pings' per-hop marks", n)
				}
			}
		})
	}
}

// TestSplitPartsShareSources: part k of ToRPingmesh pings only from
// sources whose floods part k of ToRReachability marked, so run after it
// on one trace it charges no BDD op, exactly as the whole pingmesh does
// after the whole reachability. Run after another reachability part, or
// alone, it builds the sets of the hops it misses. The parts together
// check what the whole test checks.
func TestSplitPartsShareSources(t *testing.T) {
	ft, err := topogen.BuildFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	ft.Net.ComputeMatchSets()
	// pingOps runs reach part r (none when r < 0) and then ping part p of
	// n on a fresh clone and trace, and returns the BDD ops the ping part
	// charged.
	pingOps := func(n, r, p int) (int64, Result, Result) {
		net := ft.Net.Clone()
		tr := core.NewTrace()
		reach := Result{}
		if r >= 0 {
			reach = ToRReachability{}.Split(n)[r].Run(net, tr)
		}
		before := net.Space.EngineStats().Ops
		ping := ToRPingmesh{}.Split(n)[p].Run(net, tr)
		return int64(net.Space.EngineStats().Ops - before), reach, ping
	}
	nt := len(ft.ToRs)
	for _, n := range []int{2, 3} {
		var reachChecks, pingChecks int
		for k := range n {
			ops, reach, ping := pingOps(n, k, k)
			if ops != 0 {
				t.Errorf("n=%d: pingmesh part %d after reachability part %d charged %d BDD ops, want 0", n, k, k, ops)
			}
			if !reach.Pass() || !ping.Pass() || reach.Checks == 0 || ping.Checks == 0 {
				t.Errorf("n=%d, part %d: reach %+v, ping %+v; want both passing with checks", n, k, reach, ping)
			}
			reachChecks += reach.Checks
			pingChecks += ping.Checks
			if ops, _, _ := pingOps(n, (k+1)%n, k); ops == 0 {
				t.Errorf("n=%d: pingmesh part %d after reachability part %d charged no op; the check cannot see a mismatched split", n, k, (k+1)%n)
			}
			if ops, _, _ := pingOps(n, -1, k); ops == 0 {
				t.Errorf("n=%d: pingmesh part %d alone charged no op; the check cannot see a lost reachability part", n, k)
			}
		}
		if want := nt * (nt - 1); reachChecks != want || pingChecks != want {
			t.Errorf("n=%d: parts check %d and %d, want %d each", n, reachChecks, pingChecks, want)
		}
	}
}

// TestSymbolicSubsumesConcrete verifies the compositional property at the
// test level: the pingmesh trace is contained in the reachability trace.
func TestSymbolicSubsumesConcrete(t *testing.T) {
	ft, err := topogen.BuildFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	trSym := core.NewTrace()
	ToRReachability{}.Run(ft.Net, trSym)
	trPing := core.NewTrace()
	ToRPingmesh{}.Run(ft.Net, trPing)

	cSym := core.NewCoverage(ft.Net, trSym)
	cPing := core.NewCoverage(ft.Net, trPing)
	for _, r := range ft.Net.Rules {
		sym := cSym.Covered(r.ID)
		ping := cPing.Covered(r.ID)
		if !sym.Contains(ping) {
			t.Fatalf("rule %d: concrete coverage not contained in symbolic", r.ID)
		}
	}
	// And strictly more rules are partially covered or equally many,
	// with symbolic fraction >= concrete.
	symRule := core.RuleCoverage(cSym, nil, Weighted())
	pingRule := core.RuleCoverage(cPing, nil, Weighted())
	if symRule < pingRule {
		t.Errorf("symbolic weighted rule coverage (%v) < concrete (%v)", symRule, pingRule)
	}
}

// Weighted avoids importing core.Weighted at every call site above.
func Weighted() core.AggKind { return core.Weighted }

func TestSuiteRunAccumulates(t *testing.T) {
	rg := buildRegional(t)
	tr := core.NewTrace()
	suite := Suite{DefaultRouteCheck{}, AggCanReachTorLoopback{}}
	results := suite.Run(context.Background(), rg.Net, tr)
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if !r.Pass() {
			t.Errorf("%s failed: %+v", r.Name, r.Failures)
		}
	}
	st := tr.Stats()
	if st.MarkedRules == 0 || st.Locations == 0 {
		t.Error("suite should mark both rules and packets")
	}
}

func TestPingTest(t *testing.T) {
	ex, err := topogen.BuildExample(topogen.ExampleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	dst := ex.Leaves[1]
	pkt := pktTo(ex.LeafPrefix[dst].Addr().Next())
	res := PingTest{
		From: ex.Leaves[0], Packet: pkt,
		WantEnd: dataplane.TraceEgressed, WantDevice: dst,
	}.Run(ex.Net, core.NewTrace())
	if !res.Pass() {
		t.Fatalf("failures: %+v", res.Failures)
	}
	// Wrong expectation fails.
	res = PingTest{
		From: ex.Leaves[0], Packet: pkt,
		WantEnd: dataplane.TraceDropped, WantDevice: -1,
	}.Run(ex.Net, core.NewTrace())
	if res.Pass() {
		t.Fatal("mismatched expectation should fail")
	}
}

func pktTo(dst netip.Addr) hdr.Packet {
	return hdr.Packet{Dst: dst, Src: netip.MustParseAddr("10.0.0.1"), Proto: 1}
}

func TestReachabilityTest(t *testing.T) {
	ex, err := topogen.BuildExample(topogen.ExampleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	n := ex.Net
	dst := ex.Leaves[1]
	pkts := n.Space.DstPrefix(ex.LeafPrefix[dst])
	res := ReachabilityTest{
		From: ex.Leaves[0], Pkts: pkts,
		WantEgress: []netmodel.IfaceID{ex.LeafIface[dst]},
		Waypoint:   -1,
	}.Run(n, core.NewTrace())
	if !res.Pass() {
		t.Fatalf("failures: %+v", res.Failures)
	}
	// Waypoint assertion: a single spine does NOT see all packets (ECMP
	// splits symbolically means both spines see all packets actually —
	// symbolic floods traverse both). So the waypoint check passes for a
	// spine.
	res = ReachabilityTest{
		From: ex.Leaves[0], Pkts: pkts,
		WantEgress: []netmodel.IfaceID{ex.LeafIface[dst]},
		Waypoint:   ex.Spines[0],
	}.Run(n, core.NewTrace())
	if !res.Pass() {
		t.Fatalf("waypoint failures: %+v", res.Failures)
	}
	// A border is not on the path: waypoint check fails.
	res = ReachabilityTest{
		From: ex.Leaves[0], Pkts: pkts,
		WantEgress: []netmodel.IfaceID{ex.LeafIface[dst]},
		Waypoint:   ex.Borders[0],
	}.Run(n, core.NewTrace())
	if res.Pass() {
		t.Fatal("border waypoint should fail")
	}
}

func TestACLDenyCheck(t *testing.T) {
	n := netmodel.New()
	d := n.AddDevice("fw", netmodel.RoleBorder, 1)
	up := n.AddIface(d, "up")
	deny := netmodel.MatchAll()
	deny.DstPortLo, deny.DstPortHi = 23, 23
	n.AddACLRule(d, deny, true)
	n.AddACLRule(d, netmodel.MatchAll(), false)
	n.AddFIBRule(d, netmodel.MatchDst(netip.MustParsePrefix("0.0.0.0/0")),
		netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{up}}, netmodel.OriginDefault)
	n.ComputeMatchSets()

	res := ACLDenyCheck{Device: d, Match: n.Space.DstPort(23)}.Run(n, core.NewTrace())
	if !res.Pass() {
		t.Fatalf("port-23 deny should pass: %+v", res.Failures)
	}
	res = ACLDenyCheck{Device: d, Match: n.Space.DstPort(80)}.Run(n, core.NewTrace())
	if res.Pass() {
		t.Fatal("port-80 traffic is forwarded; deny check should fail")
	}
}

func TestKindsAndNames(t *testing.T) {
	tests := []Test{
		DefaultRouteCheck{}, ConnectedRouteCheck{}, InternalRouteCheck{},
		AggCanReachTorLoopback{}, ToRContract{}, ToRReachability{}, ToRPingmesh{},
		PingTest{}, ReachabilityTest{}, ACLDenyCheck{},
	}
	wantKinds := []Kind{
		StateInspection, StateInspection, LocalSymbolic,
		LocalSymbolic, LocalSymbolic, E2ESymbolic, E2EConcrete,
		E2EConcrete, E2ESymbolic, LocalSymbolic,
	}
	for i, tc := range tests {
		if tc.Name() == "" {
			t.Errorf("test %d has no name", i)
		}
		if tc.Kind() != wantKinds[i] {
			t.Errorf("%s kind = %v, want %v", tc.Name(), tc.Kind(), wantKinds[i])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestBuiltinSuite(t *testing.T) {
	suite, err := BuiltinSuite("default,connected,internal,agg,contract,reach,pingmesh,host")
	if err != nil || len(suite) != 8 {
		t.Fatalf("suite = %d, err = %v", len(suite), err)
	}
	if _, err := BuiltinSuite("bogus"); err == nil {
		t.Error("unknown name should error")
	}
	if _, err := BuiltinSuite(""); err == nil {
		t.Error("empty suite should error")
	}
	if _, err := BuiltinSuite("wan"); err == nil {
		t.Error("wan is not name-addressable (needs a spec)")
	}
	// Whitespace and empties are tolerated.
	suite, err = BuiltinSuite(" default , ,connected ")
	if err != nil || len(suite) != 2 {
		t.Fatalf("tolerant parse: %d, %v", len(suite), err)
	}
}

func TestCustomNames(t *testing.T) {
	// Generic tests default their names and honor overrides.
	if (PingTest{}).Name() != "PingTest" || (PingTest{TestName: "x"}).Name() != "x" {
		t.Error("PingTest naming")
	}
	if (ReachabilityTest{}).Name() != "ReachabilityTest" || (ReachabilityTest{TestName: "y"}).Name() != "y" {
		t.Error("ReachabilityTest naming")
	}
	if (ACLDenyCheck{}).Name() != "ACLDenyCheck" || (ACLDenyCheck{TestName: "z"}).Name() != "z" {
		t.Error("ACLDenyCheck naming")
	}
}

func TestReachabilityTestFailurePaths(t *testing.T) {
	ex, err := topogen.BuildExample(topogen.ExampleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	n := ex.Net
	dst := ex.Leaves[1]
	pkts := n.Space.DstPrefix(ex.LeafPrefix[dst])
	// Wrong egress interface: the WAN iface never sees leaf-bound traffic.
	b1 := ex.Borders[0]
	res := ReachabilityTest{
		From: ex.Leaves[0], Pkts: pkts,
		WantEgress: []netmodel.IfaceID{ex.WANIface[b1]},
		Waypoint:   -1,
	}.Run(n, core.NewTrace())
	if res.Pass() {
		t.Error("wrong egress expectation should fail")
	}
}

func TestShortestPaths(t *testing.T) {
	ex, err := topogen.BuildExample(topogen.ExampleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	paths := newShortestPaths(ex.Net)
	for round := 0; round < 2; round++ { // the buffers are reused
		d := paths.from(ex.Leaves[0])
		if d[ex.Leaves[0]] != 0 {
			t.Error("origin distance != 0")
		}
		for _, s := range ex.Spines {
			if d[s] != 1 {
				t.Errorf("spine dist = %d, want 1", d[s])
			}
		}
		for _, b := range ex.Borders {
			if d[b] != 2 {
				t.Errorf("border dist = %d, want 2", d[b])
			}
		}
		for _, l := range ex.Leaves[1:] {
			if d[l] != 2 {
				t.Errorf("other leaf dist = %d, want 2", d[l])
			}
		}
		if got := paths.closer(ex.Leaves[1]); fmt.Sprint(got) != fmt.Sprint(ex.Spines) {
			t.Errorf("next hops of another leaf = %v, want the spines %v", got, ex.Spines)
		}
		// Two origins: every spine is one hop from the nearest leaf.
		d = paths.from(ex.Leaves[0], ex.Borders[0])
		for _, s := range ex.Spines {
			if d[s] != 1 {
				t.Errorf("spine dist from leaf and border = %d, want 1", d[s])
			}
		}
	}
}

// TestNextHopFailureText pins what the next-hop tests print on a faulted
// fat-tree: a removed route, a null-routed one and one forwarding out a
// single wrong interface, for the shortest-path contracts and for
// DefaultRouteCheck.
func TestNextHopFailureText(t *testing.T) {
	ft, err := topogen.BuildFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	net := ft.Net
	agg, tor := ft.Aggs[0], ft.ToRs[len(ft.ToRs)-1]
	prefix := func(i int) netip.Prefix { return ft.HostPrefix[ft.ToRs[i]] }
	rule := func(dev netmodel.DeviceID, p netip.Prefix) *netmodel.Rule {
		t.Helper()
		r, ok := net.FIBRuleFor(dev, p)
		if !ok {
			t.Fatalf("%s has no route for %v", net.Device(dev).Name, p)
		}
		return r
	}
	// An interface of dev toward a device of the given role.
	ifaceTo := func(dev netmodel.DeviceID, role netmodel.Role) (netmodel.IfaceID, netmodel.DeviceID) {
		for _, ifid := range net.Device(dev).Ifaces {
			if peer := net.Iface(ifid).Peer; peer != netmodel.NoIface && net.Device(net.Iface(peer).Device).Role == role {
				return ifid, net.Iface(peer).Device
			}
		}
		t.Fatalf("%s has no %v neighbor", net.Device(dev).Name, role)
		return 0, 0
	}

	mut := net.BeginMutation()
	if err := mut.Remove(rule(agg, prefix(len(ft.ToRs)-1)).ID); err != nil {
		t.Fatal(err)
	}
	if _, err := mut.Commit(); err != nil {
		t.Fatal(err)
	}
	net.SetAction(rule(agg, prefix(0)).ID, netmodel.Action{Kind: netmodel.ActDrop})
	up, core0 := ifaceTo(agg, netmodel.RoleCore)
	net.SetAction(rule(agg, prefix(1)).ID, netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{up}})
	up, agg0 := ifaceTo(tor, netmodel.RoleAgg)
	net.SetAction(rule(tor, defaultRoutePrefix(net)).ID, netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{up}})

	want := []Failure{
		{agg, fmt.Sprintf("route for %v does not forward", prefix(0))},
		{agg, fmt.Sprintf("route for %v uses next hops [%d], want full shortest-path set", prefix(1), core0)},
		{agg, fmt.Sprintf("no route for %v", prefix(len(ft.ToRs)-1))},
	}
	if got := (ToRContract{}).Run(net, core.Nop{}).Failures; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ToRContract failures:\n%v\nwant:\n%v", got, want)
	}
	want = []Failure{{tor, fmt.Sprintf("default next hops [%d] != northbound neighbors", agg0)}}
	if got := (DefaultRouteCheck{}).Run(net, core.Nop{}).Failures; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("DefaultRouteCheck failures:\n%v\nwant:\n%v", got, want)
	}
	net.SetAction(rule(tor, defaultRoutePrefix(net)).ID, netmodel.Action{Kind: netmodel.ActDrop})
	want = []Failure{{tor, "default route does not forward (null-routed?)"}}
	if got := (DefaultRouteCheck{}).Run(net, core.Nop{}).Failures; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("DefaultRouteCheck failures:\n%v\nwant:\n%v", got, want)
	}
}

// TestPingmeshGrowsSpaceNoMoreThanReach: nodes are never freed, so what a
// run makes stays in the space for good. On a fresh default regional
// network a lone pingmesh, which marks one packet per ToR pair, must
// make no more nodes than a lone reachability run, which marks every
// packet between the same pairs.
func TestPingmeshGrowsSpaceNoMoreThanReach(t *testing.T) {
	made := func(test Test) int {
		net := buildRegional(t).Net
		before := net.Space.EngineStats().Nodes
		if res := test.Run(net, core.NewTrace()); !res.Pass() {
			t.Fatalf("%s: %+v", test.Name(), res.Failures[:min(5, len(res.Failures))])
		}
		return net.Space.EngineStats().Nodes - before
	}
	ping, reach := made(ToRPingmesh{}), made(ToRReachability{})
	t.Logf("pingmesh made %d nodes, reachability %d", ping, reach)
	if ping > reach {
		t.Errorf("pingmesh made %d nodes, more than reachability's %d", ping, reach)
	}
}
