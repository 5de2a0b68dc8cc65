package core

import (
	"context"
	"math"
	"math/rand"
	"net/netip"
	"sync"
	"testing"

	"yardstick/internal/dataplane"
	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
	"yardstick/internal/topogen"
)

func pfx(t testing.TB, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// chain builds d1 → d2: d1 forwards 10/8 to d2, d2 delivers 10.0/16 and
// drops the rest of 10/8; returns ids.
type chainNet struct {
	n        *netmodel.Network
	d1, d2   netmodel.DeviceID
	r1, r2   netmodel.RuleID // d1's 10/8 forward, d2's 10.0/16 deliver
	rDrop    netmodel.RuleID // d2's drop
	loc1Peer dataplane.Loc   // location at d2 entered from d1
}

func buildChain(t testing.TB) chainNet {
	t.Helper()
	n := netmodel.New()
	d1 := n.AddDevice("d1", netmodel.RoleLeaf, 1)
	d2 := n.AddDevice("d2", netmodel.RoleSpine, 2)
	i1, i2 := n.Connect(d1, d2, pfx(t, "10.255.0.0/31"))
	r1 := n.AddFIBRule(d1, netmodel.MatchDst(pfx(t, "10.0.0.0/8")),
		netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{i1}}, netmodel.OriginInternal)
	r2 := n.AddFIBRule(d2, netmodel.MatchDst(pfx(t, "10.0.0.0/16")),
		netmodel.Action{Kind: netmodel.ActDeliver}, netmodel.OriginInternal)
	rDrop := n.AddFIBRule(d2, netmodel.MatchDst(pfx(t, "10.0.0.0/8")),
		netmodel.Action{Kind: netmodel.ActDrop}, netmodel.OriginStatic)
	n.ComputeMatchSets()
	return chainNet{n: n, d1: d1, d2: d2, r1: r1, r2: r2, rDrop: rDrop,
		loc1Peer: dataplane.Loc{Device: d2, Iface: i2}}
}

func TestAlgorithm1MarkRule(t *testing.T) {
	cn := buildChain(t)
	tr := NewTrace()
	tr.MarkRule(cn.r1)
	c := NewCoverage(cn.n, tr)
	if !c.Covered(cn.r1).Equal(cn.n.Rule(cn.r1).MatchSet()) {
		t.Error("marked rule should be covered over its full match set")
	}
	if !c.Covered(cn.r2).IsEmpty() {
		t.Error("unmarked rule with no packets should be uncovered")
	}
}

func TestAlgorithm1MarkPacket(t *testing.T) {
	cn := buildChain(t)
	sp := cn.n.Space
	tr := NewTrace()
	sub := sp.DstPrefix(pfx(t, "10.0.1.0/24"))
	tr.MarkPacket(dataplane.Injected(cn.d1), sub)
	c := NewCoverage(cn.n, tr)
	// T[r1] = P_T ∩ M[r1] = the /24.
	if !c.Covered(cn.r1).Equal(sub) {
		t.Error("covered set should be the intersection with the trace")
	}
	// d2 saw nothing (test marked only d1).
	if !c.Covered(cn.r2).IsEmpty() {
		t.Error("rule on unmarked device should be uncovered")
	}
}

func TestTraceMergeOrderIndependent(t *testing.T) {
	cn := buildChain(t)
	sp := cn.n.Space
	a := sp.DstPrefix(pfx(t, "10.1.0.0/16"))
	b := sp.DstPrefix(pfx(t, "10.2.0.0/16"))
	loc := dataplane.Injected(cn.d1)

	t1 := NewTrace()
	t1.MarkPacket(loc, a)
	t1.MarkPacket(loc, b)
	t2 := NewTrace()
	t2.MarkPacket(loc, b)
	t2.MarkPacket(loc, a)
	t2.MarkPacket(loc, a) // idempotent
	if !t1.PacketsAt(sp, loc).Equal(t2.PacketsAt(sp, loc)) {
		t.Error("trace should be order-independent and idempotent")
	}

	t3 := NewTrace()
	t3.MarkPacket(loc, a)
	t4 := NewTrace()
	t4.MarkPacket(loc, b)
	t4.MarkRule(cn.r2)
	t3.Merge(t4)
	if !t3.PacketsAt(sp, loc).Equal(a.Union(b)) {
		t.Error("merge lost packets")
	}
	if !t3.RuleMarked(cn.r2) {
		t.Error("merge lost rules")
	}
	if st := t3.Stats(); st.Locations != 1 || st.MarkedRules != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRuleCoverageFraction(t *testing.T) {
	cn := buildChain(t)
	sp := cn.n.Space
	tr := NewTrace()
	// Cover half of 10/8 (a /9).
	tr.MarkPacket(dataplane.Injected(cn.d1), sp.DstPrefix(pfx(t, "10.0.0.0/9")))
	c := NewCoverage(cn.n, tr)
	got := ComponentCoverage(c, RuleSpec(cn.n, cn.r1))
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("rule coverage = %v, want 0.5", got)
	}
}

func TestDeviceCoverageWeighted(t *testing.T) {
	cn := buildChain(t)
	sp := cn.n.Space
	tr := NewTrace()
	// On d2: cover r2 (10.0/16) fully via packets; rDrop and connected
	// route uncovered. Device coverage (weighted by match-set size) =
	// |10.0/16| / (|10.0/16| + |10/8 minus /16| + |/31|).
	tr.MarkPacket(cn.loc1Peer, sp.DstPrefix(pfx(t, "10.0.0.0/16")))
	c := NewCoverage(cn.n, tr)
	got := ComponentCoverage(c, DeviceSpec(cn.n, cn.d2))
	m16 := sp.DstPrefix(pfx(t, "10.0.0.0/16")).Fraction()
	m8rest := cn.n.Rule(cn.rDrop).MatchSet().Fraction()
	m31 := math.Pow(2, -31)
	want := m16 / (m16 + m8rest + m31)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("device coverage = %v, want %v", got, want)
	}
}

func TestPathMeasureFullAndDisjoint(t *testing.T) {
	cn := buildChain(t)
	sp := cn.n.Space
	path := GuardedString{Rules: []netmodel.RuleID{cn.r1, cn.r2}}

	// End-to-end coverage with the same packets at both hops: the path's
	// guard is 10.0/16 (r2's match), and it is fully covered even though
	// r1's match set is much wider.
	tr := NewTrace()
	tr.MarkPacket(dataplane.Injected(cn.d1), sp.DstPrefix(pfx(t, "10.0.0.0/16")))
	tr.MarkPacket(cn.loc1Peer, sp.DstPrefix(pfx(t, "10.0.0.0/16")))
	c := NewCoverage(cn.n, tr)
	if got := PathMeasure(c, path); math.Abs(got-1) > 1e-12 {
		t.Errorf("fully-covered path = %v, want 1", got)
	}

	// Disjoint packets at the two hops: no packet crosses the whole
	// path, so coverage is zero (§4.3.2).
	tr2 := NewTrace()
	tr2.MarkPacket(dataplane.Injected(cn.d1), sp.DstPrefix(pfx(t, "10.0.0.0/17")))
	tr2.MarkPacket(cn.loc1Peer, sp.DstPrefix(pfx(t, "10.0.128.0/17")))
	c2 := NewCoverage(cn.n, tr2)
	if got := PathMeasure(c2, path); got != 0 {
		t.Errorf("disjoint-hop path coverage = %v, want 0", got)
	}

	// Half the guard end-to-end = 0.5.
	tr3 := NewTrace()
	tr3.MarkPacket(dataplane.Injected(cn.d1), sp.DstPrefix(pfx(t, "10.0.0.0/17")))
	tr3.MarkPacket(cn.loc1Peer, sp.DstPrefix(pfx(t, "10.0.0.0/17")))
	c3 := NewCoverage(cn.n, tr3)
	if got := PathMeasure(c3, path); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("half-covered path = %v, want 0.5", got)
	}
}

func TestPathMeasureInvalidPath(t *testing.T) {
	cn := buildChain(t)
	// r2 then r1 is not a real path: guards don't survive — r1's match
	// excludes nothing of r2's, but check a truly empty composition:
	// restrict the guard away from both.
	g := GuardedString{
		Guard: cn.n.Space.DstPrefix(pfx(t, "192.168.0.0/16")),
		Rules: []netmodel.RuleID{cn.r1, cn.r2},
	}
	tr := NewTrace()
	c := NewCoverage(cn.n, tr)
	if got := PathMeasure(c, g); got != 0 {
		t.Errorf("empty-guard path = %v, want 0", got)
	}
}

func TestPathMeasureWithTransformUsesMinRatio(t *testing.T) {
	// d1 rewrites dst to a VIP and forwards to d2, which delivers the
	// VIP /32. The many-to-one collapse makes the final ratio misleading;
	// the min per-hop ratio reflects the barely-covered first hop.
	n := netmodel.New()
	d1 := n.AddDevice("nat", netmodel.RoleBorder, 1)
	d2 := n.AddDevice("srv", netmodel.RoleLeaf, 2)
	i1, i2 := n.Connect(d1, d2, netip.MustParsePrefix("10.255.0.0/31"))
	vip := netip.MustParseAddr("192.0.2.10")
	r1 := n.AddFIBRule(d1, netmodel.MatchDst(netip.MustParsePrefix("10.0.0.0/8")),
		netmodel.Action{
			Kind:      netmodel.ActForward,
			OutIfaces: []netmodel.IfaceID{i1},
			Transform: &netmodel.Transform{RewriteDst: true, Addr: vip},
		}, netmodel.OriginStatic)
	r2 := n.AddFIBRule(d2, netmodel.MatchDst(netip.PrefixFrom(vip, 32)),
		netmodel.Action{Kind: netmodel.ActDeliver}, netmodel.OriginStatic)
	n.ComputeMatchSets()

	sp := n.Space
	tr := NewTrace()
	// Cover only half of the pre-NAT space at hop 1, everything at hop 2.
	tr.MarkPacket(dataplane.Injected(d1), sp.DstPrefix(netip.MustParsePrefix("10.0.0.0/9")))
	tr.MarkPacket(dataplane.Loc{Device: d2, Iface: i2}, sp.Full())
	c := NewCoverage(n, tr)
	got := PathMeasure(c, GuardedString{Rules: []netmodel.RuleID{r1, r2}})
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("transform path coverage = %v, want 0.5 (min hop ratio)", got)
	}
}

func TestCombinators(t *testing.T) {
	vals := []float64{0.2, 0.4, 1.0}
	w := []float64{1, 1, 2}
	if got := CombineMean(vals, nil); math.Abs(got-(1.6/3)) > 1e-12 {
		t.Errorf("mean = %v", got)
	}
	if got := CombineWeightedMean(vals, w); math.Abs(got-(0.2+0.4+2.0)/4) > 1e-12 {
		t.Errorf("weighted mean = %v", got)
	}
	if CombineMin(vals, nil) != 0.2 || CombineMax(vals, nil) != 1.0 {
		t.Error("min/max wrong")
	}
	if CombineOnly([]float64{0.7}, nil) != 0.7 {
		t.Error("only wrong")
	}
	if CombineWeightedMean(vals, nil) != CombineMean(vals, nil) {
		t.Error("weighted mean with nil weights should degrade to mean")
	}
	if CombineWeightedMean([]float64{1}, []float64{0}) != 0 {
		t.Error("all-zero weights should give 0")
	}
}

func TestAccumAggregators(t *testing.T) {
	add := func(kind AggKind) *Accum {
		a := NewAccum(kind)
		a.Add(0, 1)
		a.Add(0.5, 1)
		a.Add(1, 2)
		return a
	}
	if got := add(Simple).Value(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("simple = %v", got)
	}
	if got := add(Weighted).Value(); math.Abs(got-(0.5+2)/4) > 1e-12 {
		t.Errorf("weighted = %v", got)
	}
	if got := add(Fractional).Value(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("fractional = %v", got)
	}
	if NewAccum(Simple).Value() != 0 {
		t.Error("empty accumulator should be 0")
	}
	for _, k := range []AggKind{Simple, Weighted, Fractional} {
		if k.String() == "unknown" {
			t.Error("aggregator must have a name")
		}
	}
}

func TestInterfaceSpecIncludesConnectedRoute(t *testing.T) {
	cn := buildChain(t)
	// d1's link interface: deps are r1 (forwards out it) and the /31
	// connected route. Inspecting the connected route alone gives the
	// interface non-zero coverage (the ConnectedRouteCheck effect).
	ifid := cn.n.Device(cn.d1).Ifaces[0]
	var connected netmodel.RuleID = -1
	for _, rid := range cn.n.Device(cn.d1).FIB {
		if cn.n.Rule(rid).Origin == netmodel.OriginConnected {
			connected = rid
		}
	}
	if connected == -1 {
		// The chain fixture has no connected rules (no bgp.Run); add one
		// manually via a fresh network instead.
		t.Skip("fixture has no connected route")
	}
	tr := NewTrace()
	tr.MarkRule(connected)
	c := NewCoverage(cn.n, tr)
	if got := ComponentCoverage(c, OutIfaceSpec(cn.n, ifid)); got <= 0 {
		t.Errorf("interface coverage = %v, want > 0", got)
	}
}

func TestMetricsOnExampleNetwork(t *testing.T) {
	ex, err := topogen.BuildExample(topogen.ExampleOpts{BugNullRoute: true})
	if err != nil {
		t.Fatal(err)
	}
	n := ex.Net
	tr := NewTrace()

	// The §2 test suite: (1) leaf-to-leaf, (2) leaf-to-WAN with public
	// destinations, (3) border-to-leaf — all behavioral floods marking
	// each hop.
	mark := func(loc dataplane.Loc, pkts hdr.Set) { tr.MarkPacket(loc, pkts) }
	public := n.Space.DstPrefix(pfx(t, "93.0.0.0/8"))
	for _, l := range ex.Leaves {
		for _, l2 := range ex.Leaves {
			if l == l2 {
				continue
			}
			if _, err := dataplane.Reach(n, dataplane.Injected(l), n.Space.DstPrefix(ex.LeafPrefix[l2]), dataplane.ReachOpts{OnHop: mark}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := dataplane.Reach(n, dataplane.Injected(l), public, dataplane.ReachOpts{OnHop: mark}); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range ex.Borders {
		for _, l := range ex.Leaves {
			if _, err := dataplane.Reach(n, dataplane.Injected(b), n.Space.DstPrefix(ex.LeafPrefix[l]), dataplane.ReachOpts{OnHop: mark}); err != nil {
				t.Fatal(err)
			}
		}
	}
	c := NewCoverage(n, tr)

	// Exactly the paper's observation: device coverage is 100% (B2 is
	// traversed by the border-to-leaf test) yet B2's null-routed default
	// rule is never exercised — only rule coverage flags the gap.
	b2, _ := n.DeviceByName("b2")
	b1, _ := n.DeviceByName("b1")
	if got := DeviceCoverage(c, nil, Fractional); got != 1 {
		t.Errorf("fractional device coverage = %v, want 1", got)
	}
	unc := UncoveredByOrigin(c, RulesOfDevices(n, []netmodel.DeviceID{b2.ID}))
	if unc[netmodel.OriginDefault] != 1 {
		t.Errorf("uncovered by origin at B2 = %v, want one default", unc)
	}
	// B1's default, in contrast, is covered by the leaf-to-WAN test, so
	// B2's rule coverage is lower than its symmetric counterpart's.
	b1Rule := RuleCoverage(c, RulesOfDevices(n, []netmodel.DeviceID{b1.ID}), Fractional)
	b2Rule := RuleCoverage(c, RulesOfDevices(n, []netmodel.DeviceID{b2.ID}), Fractional)
	if b2Rule >= b1Rule {
		t.Errorf("B2 rule coverage (%v) should be below B1's (%v)", b2Rule, b1Rule)
	}
	// A DefaultRouteCheck-style state inspection covers each healthy
	// default route fully; because the default matches the vast majority
	// of the space, weighted rule coverage then dwarfs fractional rule
	// coverage (the Figure 6a observation).
	for _, r := range n.Rules {
		if r.Origin == netmodel.OriginDefault && r.Action.Kind == netmodel.ActForward {
			tr.MarkRule(r.ID)
		}
	}
	c2 := NewCoverage(n, tr)
	frac := RuleCoverage(c2, nil, Fractional)
	weighted := RuleCoverage(c2, nil, Weighted)
	// 6 of 7 devices have their (dominant) default fully covered; B2's
	// null-routed default stays dark.
	if weighted < 0.8 {
		t.Errorf("weighted rule coverage = %v, want > 0.8", weighted)
	}
	if weighted <= frac {
		t.Errorf("weighted (%v) should exceed fractional (%v) rule coverage", weighted, frac)
	}
}

// TestCompositionality verifies §3.2: a symbolic test's coverage equals
// the union of concrete tests over the same packets, and a state
// inspection equals a symbolic test over the rule's full match set.
func TestCompositionality(t *testing.T) {
	cn := buildChain(t)
	sp := cn.n.Space
	loc := dataplane.Injected(cn.d1)

	// Symbolic: a small set of 4 concrete packets (vary last 2 dst bits).
	base := hdr.Packet{Dst: netip.MustParseAddr("10.1.1.0"), Src: netip.MustParseAddr("172.16.0.1"), Proto: 6, DstPort: 80, SrcPort: 1234}
	symbolic := sp.Empty()
	concrete := NewTrace()
	for i := 0; i < 4; i++ {
		p := base
		b := p.Dst.As4()
		b[3] = byte(i)
		p.Dst = netip.AddrFrom4(b)
		symbolic = symbolic.Union(sp.Singleton(p))
		concrete.MarkPacket(loc, sp.Singleton(p))
	}
	symTrace := NewTrace()
	symTrace.MarkPacket(loc, symbolic)

	cSym := NewCoverage(cn.n, symTrace)
	cCon := NewCoverage(cn.n, concrete)
	for _, rid := range cn.n.DeviceRules(cn.d1) {
		if !cSym.Covered(rid).Equal(cCon.Covered(rid)) {
			t.Errorf("rule %d: symbolic and concrete coverage differ", rid)
		}
	}

	// State inspection of r1 == symbolic test covering M[r1].
	insp := NewTrace()
	insp.MarkRule(cn.r1)
	symFull := NewTrace()
	symFull.MarkPacket(loc, cn.n.Rule(cn.r1).MatchSet())
	cInsp := NewCoverage(cn.n, insp)
	cFull := NewCoverage(cn.n, symFull)
	if !cInsp.Covered(cn.r1).Equal(cFull.Covered(cn.r1)) {
		t.Error("state inspection != equivalent symbolic test")
	}
}

// TestMonotonicityAndBoundedness is the §3.2 property test: randomly
// grown traces never decrease any metric, and all metrics stay in [0,1].
func TestMonotonicityAndBoundedness(t *testing.T) {
	ex, err := topogen.BuildExample(topogen.ExampleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	n := ex.Net
	rng := rand.New(rand.NewSource(77))
	tr := NewTrace()

	var prevRuleF, prevRuleW, prevDev, prevIf float64
	for step := 0; step < 25; step++ {
		// Random new "test": either inspect a random rule or flood a
		// random prefix from a random device.
		if rng.Intn(3) == 0 {
			tr.MarkRule(netmodel.RuleID(rng.Intn(len(n.Rules))))
		} else {
			dev := netmodel.DeviceID(rng.Intn(len(n.Devices)))
			addr := netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), 0, 0})
			p := netip.PrefixFrom(addr, rng.Intn(17)+8).Masked()
			_, err := dataplane.Reach(n, dataplane.Injected(dev), n.Space.DstPrefix(p), dataplane.ReachOpts{
				OnHop: func(loc dataplane.Loc, pkts hdr.Set) { tr.MarkPacket(loc, pkts) },
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		c := NewCoverage(n, tr)
		ruleF := RuleCoverage(c, nil, Fractional)
		ruleW := RuleCoverage(c, nil, Weighted)
		dev := DeviceCoverage(c, nil, Simple)
		ifc := InterfaceCoverage(c, nil, Fractional)
		for name, pair := range map[string][2]float64{
			"rule-fractional": {prevRuleF, ruleF},
			"rule-weighted":   {prevRuleW, ruleW},
			"device-simple":   {prevDev, dev},
			"iface-frac":      {prevIf, ifc},
		} {
			if pair[1] < pair[0]-1e-12 {
				t.Fatalf("step %d: %s decreased from %v to %v", step, name, pair[0], pair[1])
			}
			if pair[1] < 0 || pair[1] > 1 {
				t.Fatalf("step %d: %s = %v out of [0,1]", step, name, pair[1])
			}
		}
		prevRuleF, prevRuleW, prevDev, prevIf = ruleF, ruleW, dev, ifc
	}
	if prevRuleF == 0 {
		t.Error("random tests should have covered some rules")
	}
}

func TestPathCoverageStreaming(t *testing.T) {
	ex, err := topogen.BuildExample(topogen.ExampleOpts{Leaves: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := ex.Net

	// Empty trace: path coverage 0, but paths exist.
	c0 := NewCoverage(n, NewTrace())
	res := PathCoverage(context.Background(), c0, nil, dataplane.EnumOpts{}, Fractional)
	if !res.Complete || res.Paths == 0 {
		t.Fatalf("path enumeration: %+v", res)
	}
	if res.Value != 0 {
		t.Errorf("empty-trace path coverage = %v", res.Value)
	}

	// Full behavioral flood from every edge: every non-loop path should
	// be covered; fractional path coverage becomes high.
	tr := NewTrace()
	for _, st := range dataplane.EdgeStarts(n) {
		_, err := dataplane.Reach(n, st.Loc, st.Pkts, dataplane.ReachOpts{
			OnHop: func(loc dataplane.Loc, pkts hdr.Set) { tr.MarkPacket(loc, pkts) },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	c := NewCoverage(n, tr)
	res2 := PathCoverage(context.Background(), c, nil, dataplane.EnumOpts{}, Fractional)
	if res2.Value <= res.Value {
		t.Errorf("path coverage did not improve: %v", res2.Value)
	}
	if res2.Value < 0.9 {
		t.Errorf("full flood should cover nearly all paths, got %v", res2.Value)
	}
}

func TestFlowCoverage(t *testing.T) {
	ex, err := topogen.BuildExample(topogen.ExampleOpts{Leaves: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := ex.Net
	src, dst := ex.Leaves[0], ex.Leaves[1]
	flow := n.Space.DstPrefix(ex.LeafPrefix[dst])

	// Untested flow = 0.
	c0 := NewCoverage(n, NewTrace())
	if got := FlowCoverage(c0, dataplane.Injected(src), flow); got != 0 {
		t.Errorf("untested flow coverage = %v", got)
	}

	// Flood exactly the flow: fully covered end-to-end.
	tr := NewTrace()
	_, err = dataplane.Reach(n, dataplane.Injected(src), flow, dataplane.ReachOpts{
		OnHop: func(loc dataplane.Loc, pkts hdr.Set) { tr.MarkPacket(loc, pkts) },
	})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoverage(n, tr)
	got := FlowCoverage(c, dataplane.Injected(src), flow)
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("fully tested flow coverage = %v, want 1", got)
	}

	// Test only half the flow's packets: coverage ≈ 0.5.
	half := flow.Intersect(n.Space.DstPrefix(netip.PrefixFrom(ex.LeafPrefix[dst].Addr(), 25)))
	tr2 := NewTrace()
	_, err = dataplane.Reach(n, dataplane.Injected(src), half, dataplane.ReachOpts{
		OnHop: func(loc dataplane.Loc, pkts hdr.Set) { tr2.MarkPacket(loc, pkts) },
	})
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCoverage(n, tr2)
	got2 := FlowCoverage(c2, dataplane.Injected(src), flow)
	if math.Abs(got2-0.5) > 1e-9 {
		t.Errorf("half tested flow coverage = %v, want 0.5", got2)
	}
}

func TestUncoveredRules(t *testing.T) {
	cn := buildChain(t)
	tr := NewTrace()
	tr.MarkRule(cn.r1)
	c := NewCoverage(cn.n, tr)
	unc := UncoveredRules(c, nil)
	for _, rid := range unc {
		if rid == cn.r1 {
			t.Error("marked rule reported uncovered")
		}
	}
	if len(unc) == 0 {
		t.Error("unmarked rules should be reported")
	}
}

func TestDevicesByRoleAndFilters(t *testing.T) {
	ex, err := topogen.BuildExample(topogen.ExampleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	n := ex.Net
	if got := DevicesByRole(n, netmodel.RoleBorder); len(got) != 2 {
		t.Errorf("borders = %d", len(got))
	}
	leaves := DevicesByRole(n, netmodel.RoleLeaf)
	if len(leaves) != 3 {
		t.Errorf("leaves = %d", len(leaves))
	}
	ifs := IfacesOfDevices(n, leaves)
	// Each leaf: 2 spine links + 1 host iface.
	if len(ifs) != 9 {
		t.Errorf("leaf ifaces = %d, want 9", len(ifs))
	}
}

func TestNopTracker(t *testing.T) {
	var tr Tracker = Nop{}
	cn := buildChain(t)
	tr.MarkRule(cn.r1)
	tr.MarkPacket(dataplane.Injected(cn.d1), cn.n.Space.Full())
	// Nothing to assert beyond "does not panic and satisfies Tracker".
}

func TestComponentCoverageEmptySpec(t *testing.T) {
	cn := buildChain(t)
	c := NewCoverage(cn.n, NewTrace())
	s := Spec{Name: "empty", Measure: FractionMeasure, Combine: CombineMean}
	if got := ComponentCoverage(c, s); got != 0 {
		t.Errorf("empty spec coverage = %v, want 0", got)
	}
}

func TestInIfaceSpec(t *testing.T) {
	cn := buildChain(t)
	sp := cn.n.Space
	// Packets arrive at d2 via the link from d1.
	tr := NewTrace()
	tr.MarkPacket(cn.loc1Peer, sp.DstPrefix(pfx(t, "10.0.0.0/16")))
	c := NewCoverage(cn.n, tr)
	spec := InIfaceSpec(cn.n, cn.loc1Peer.Iface)
	if got := ComponentCoverage(c, spec); got <= 0 {
		t.Errorf("in-iface coverage = %v, want > 0", got)
	}
	// A different (injected) location does not count toward this iface.
	tr2 := NewTrace()
	tr2.MarkPacket(dataplane.Injected(cn.d2), sp.DstPrefix(pfx(t, "10.0.0.0/16")))
	c2 := NewCoverage(cn.n, tr2)
	if got := ComponentCoverage(c2, spec); got != 0 {
		t.Errorf("in-iface coverage from other location = %v, want 0", got)
	}
}

func TestInIfaceCoverageAggregate(t *testing.T) {
	cn := buildChain(t)
	sp := cn.n.Space
	tr := NewTrace()
	tr.MarkPacket(cn.loc1Peer, sp.Full())
	c := NewCoverage(cn.n, tr)
	// d2's ingress interface sees everything: its incoming coverage is 1.
	got := InIfaceCoverage(c, []netmodel.IfaceID{cn.loc1Peer.Iface}, Weighted)
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("in-iface coverage = %v, want 1", got)
	}
	// d1's ingress interface (peer side) saw nothing.
	peer := cn.n.Iface(cn.loc1Peer.Iface).Peer
	if got := InIfaceCoverage(c, []netmodel.IfaceID{peer}, Fractional); got != 0 {
		t.Errorf("unvisited in-iface coverage = %v, want 0", got)
	}
	// All-interface aggregate is bounded.
	if v := InIfaceCoverage(c, nil, Simple); v < 0 || v > 1 {
		t.Errorf("aggregate out of range: %v", v)
	}
}

func TestCoFlowCoverage(t *testing.T) {
	cn := buildChain(t)
	sp := cn.n.Space
	flowA := Flow{Start: dataplane.Injected(cn.d1), Pkts: sp.DstPrefix(pfx(t, "10.0.0.0/16"))}
	flowB := Flow{Start: dataplane.Injected(cn.d1), Pkts: sp.DstPrefix(pfx(t, "10.1.0.0/16"))}

	// Test only flow A end-to-end.
	tr := NewTrace()
	tr.MarkPacket(dataplane.Injected(cn.d1), flowA.Pkts)
	tr.MarkPacket(cn.loc1Peer, flowA.Pkts)
	c := NewCoverage(cn.n, tr)

	a := CoFlowCoverage(c, []Flow{flowA})
	b := CoFlowCoverage(c, []Flow{flowB})
	both := CoFlowCoverage(c, []Flow{flowA, flowB})
	if math.Abs(a-1) > 1e-9 {
		t.Errorf("tested flow coverage = %v, want 1", a)
	}
	if b != 0 {
		t.Errorf("untested flow coverage = %v, want 0", b)
	}
	if both <= 0 || both >= 1 {
		t.Errorf("coflow coverage = %v, want strictly between", both)
	}
	if CoFlowCoverage(c, nil) != 0 {
		t.Error("empty coflow should be 0")
	}
}

// TestConcurrentMarking exercises the tracker's mutex: rule marking is
// goroutine-safe (packet marking shares the BDD manager and must not run
// concurrently with other manager users, so it stays single-threaded
// here).
func TestConcurrentMarking(t *testing.T) {
	cn := buildChain(t)
	tr := NewTrace()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.MarkRule(netmodel.RuleID(i % len(cn.n.Rules)))
			}
		}(w)
	}
	wg.Wait()
	if st := tr.Stats(); st.MarkedRules != len(cn.n.Rules) {
		t.Errorf("marked rules = %d, want %d", st.MarkedRules, len(cn.n.Rules))
	}
}

// TestSuitePermutationEquivalence: the same tests in any order produce
// identical covered sets (§3.2 compositionality implies order cannot
// matter).
func TestSuitePermutationEquivalence(t *testing.T) {
	cn := buildChain(t)
	sp := cn.n.Space
	marks := []struct {
		loc dataplane.Loc
		set hdr.Set
	}{
		{dataplane.Injected(cn.d1), sp.DstPrefix(pfx(t, "10.0.0.0/9"))},
		{cn.loc1Peer, sp.DstPrefix(pfx(t, "10.0.0.0/16"))},
		{dataplane.Injected(cn.d1), sp.DstPrefix(pfx(t, "10.64.0.0/10"))},
		{cn.loc1Peer, sp.Proto(6)},
	}
	apply := func(order []int) *Coverage {
		tr := NewTrace()
		for _, i := range order {
			tr.MarkPacket(marks[i].loc, marks[i].set)
		}
		tr.MarkRule(cn.rDrop)
		return NewCoverage(cn.n, tr)
	}
	c1 := apply([]int{0, 1, 2, 3})
	c2 := apply([]int{3, 1, 0, 2})
	for _, r := range cn.n.Rules {
		if !c1.Covered(r.ID).Equal(c2.Covered(r.ID)) {
			t.Fatalf("rule %d covered set depends on mark order", r.ID)
		}
	}
}

// TestPropertySplitInvariance is the metamorphic form of §3.2
// compositionality: splitting any behavioral mark into arbitrary
// fragments (here: random prefix partitions) yields exactly the same
// covered sets as marking the whole.
func TestPropertySplitInvariance(t *testing.T) {
	cn := buildChain(t)
	sp := cn.n.Space
	rng := rand.New(rand.NewSource(2024))
	loc := dataplane.Injected(cn.d1)

	for trial := 0; trial < 20; trial++ {
		// A random "whole" set.
		whole := sp.Empty()
		for i := rng.Intn(4) + 1; i > 0; i-- {
			bits := rng.Intn(20) + 4
			addr := netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), 0, 0})
			whole = whole.Union(sp.DstPrefix(netip.PrefixFrom(addr, bits).Masked()))
		}
		// Split it along a random pivot prefix (possibly overlapping).
		pivot := sp.DstPrefix(netip.PrefixFrom(
			netip.AddrFrom4([4]byte{byte(rng.Intn(256)), 0, 0, 0}), rng.Intn(9)).Masked())
		partA := whole.Intersect(pivot)
		partB := whole.Diff(pivot)
		overlap := whole.Intersect(sp.DstPrefix(netip.MustParsePrefix("10.0.0.0/8")))

		one := NewTrace()
		one.MarkPacket(loc, whole)
		many := NewTrace()
		many.MarkPacket(loc, partA)
		many.MarkPacket(loc, partB)
		many.MarkPacket(loc, overlap) // redundant re-marking must not matter

		c1 := NewCoverage(cn.n, one)
		c2 := NewCoverage(cn.n, many)
		for _, r := range cn.n.Rules {
			if !c1.Covered(r.ID).Equal(c2.Covered(r.ID)) {
				t.Fatalf("trial %d: split marking changed covered set of rule %d", trial, r.ID)
			}
		}
	}
}

func TestAggregateSpecs(t *testing.T) {
	cn := buildChain(t)
	tr := NewTrace()
	tr.MarkRule(cn.r1)
	c := NewCoverage(cn.n, tr)

	specs := []Spec{
		RuleSpec(cn.n, cn.r1), // covered: 1
		RuleSpec(cn.n, cn.r2), // uncovered: 0
	}
	if got := AggregateSpecs(c, specs, Simple); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("simple aggregate = %v, want 0.5", got)
	}
	if got := AggregateSpecs(c, specs, Fractional); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("fractional aggregate = %v, want 0.5", got)
	}
	// Weighted over devices: d1 and d2 handle nearly the same packet
	// space (both ≈ 10/8 plus a /31), so the aggregate sits at ~0.5 —
	// d1 fully covered, d2 dark.
	got := AggregateSpecs(c, []Spec{DeviceSpec(cn.n, cn.d1), DeviceSpec(cn.n, cn.d2)}, Weighted)
	if math.Abs(got-0.5) > 0.01 {
		t.Errorf("weighted aggregate = %v, want ~0.5", got)
	}
	if AggregateSpecs(c, nil, Simple) != 0 {
		t.Error("empty collection should aggregate to 0")
	}
}
