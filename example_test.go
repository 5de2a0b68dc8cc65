package yardstick_test

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"

	"yardstick"
)

// Example shows the full Yardstick workflow: generate a network, run a
// test suite that reports coverage, and compute metrics from the trace.
func Example() {
	rg, err := yardstick.BuildRegional(yardstick.RegionalOpts{})
	if err != nil {
		panic(err)
	}
	trace := yardstick.NewTrace()
	suite := yardstick.Suite{
		yardstick.DefaultRouteCheck{},
		yardstick.InternalRouteCheck{},
		yardstick.ConnectedRouteCheck{},
	}
	for _, res := range suite.Run(context.Background(), rg.Net, trace) {
		fmt.Printf("%s: pass=%v\n", res.Name, res.Pass())
	}
	cov := yardstick.NewCoverage(rg.Net, trace)
	fmt.Printf("rule coverage: %.1f%%\n", 100*yardstick.RuleCoverage(cov, nil, yardstick.Fractional))
	// Output:
	// DefaultRouteCheck: pass=true
	// InternalRouteCheck: pass=true
	// ConnectedRouteCheck: pass=true
	// rule coverage: 89.3%
}

// ExampleRuleCoverage shows Algorithm 1 at the smallest scale: a state
// inspection covers a rule's full match set, a behavioral test covers the
// packets it used.
func ExampleRuleCoverage() {
	net := yardstick.NewNetwork()
	r1 := net.AddDevice("r1", yardstick.RoleLeaf, 65001)
	up := net.AddEdgeIface(r1, "up", netip.Prefix{})
	net.AddFIBRule(r1,
		func() yardstick.Match {
			m := yardstick.MatchAll()
			m.DstPrefix = netip.MustParsePrefix("10.0.0.0/8")
			return m
		}(),
		yardstick.Action{Kind: yardstick.ActForward, OutIfaces: []yardstick.IfaceID{up}},
		yardstick.OriginInternal)
	net.ComputeMatchSets()

	// A behavioral test that exercised half of 10/8.
	trace := yardstick.NewTrace()
	trace.MarkPacket(yardstick.Injected(r1), net.Space.DstPrefix(netip.MustParsePrefix("10.0.0.0/9")))
	cov := yardstick.NewCoverage(net, trace)
	fmt.Printf("behavioral: %.0f%%\n", 100*yardstick.RuleCoverage(cov, nil, yardstick.Simple))

	// A state inspection covers the whole rule.
	trace2 := yardstick.NewTrace()
	trace2.MarkRule(0)
	cov2 := yardstick.NewCoverage(net, trace2)
	fmt.Printf("inspection: %.0f%%\n", 100*yardstick.RuleCoverage(cov2, nil, yardstick.Simple))
	// Output:
	// behavioral: 50%
	// inspection: 100%
}

// ExampleTraceroute follows one concrete packet through the Figure 1
// network.
func ExampleTraceroute() {
	ex, err := yardstick.BuildExample(yardstick.ExampleOpts{})
	if err != nil {
		panic(err)
	}
	tr := yardstick.Traceroute(ex.Net, yardstick.Injected(ex.Leaves[0]), yardstick.Packet{
		Dst:   netip.MustParseAddr("10.0.1.7"), // leaf 2's subnet
		Src:   netip.MustParseAddr("10.0.0.9"),
		Proto: 1,
	})
	for _, hop := range tr.Hops {
		fmt.Println(ex.Net.Device(hop.Loc.Device).Name)
	}
	fmt.Println(tr.End)
	// Output:
	// l1
	// s2
	// l2
	// egressed
}

// ExampleRankCandidates reproduces the case study's test development
// loop: rank candidate tests by the coverage they would add.
func ExampleRankCandidates() {
	rg, err := yardstick.BuildRegional(yardstick.RegionalOpts{})
	if err != nil {
		panic(err)
	}
	base := yardstick.NewTrace()
	yardstick.Suite{yardstick.DefaultRouteCheck{}, yardstick.AggCanReachTorLoopback{}}.Run(context.Background(), rg.Net, base)

	ranked := yardstick.RankCandidates(context.Background(), rg.Net, base, []yardstick.Test{
		yardstick.ConnectedRouteCheck{},
		yardstick.InternalRouteCheck{},
	}, yardstick.Fractional)
	for _, r := range ranked {
		fmt.Printf("%s +%.1f%%\n", r.Test.Name(), 100*r.Gain)
	}
	// Output:
	// InternalRouteCheck +73.9%
	// ConnectedRouteCheck +8.4%
}

// ExampleTracker shows how a testing tool integrates (§5.1): it reports
// what it exercised through the two tracking calls — MarkPacket for the
// located packets of a behavioral test, MarkRule for a state inspection —
// and coverage is computed later, off the testing path.
func ExampleTracker() {
	ex, err := yardstick.BuildExample(yardstick.ExampleOpts{})
	if err != nil {
		panic(err)
	}
	net := ex.Net
	// A traceroute-based prober reports the packet at every hop.
	probe := func(t yardstick.Tracker) {
		pkt := yardstick.Packet{Dst: netip.MustParseAddr("10.0.1.7"), Src: netip.MustParseAddr("10.0.0.9"), Proto: 1}
		for _, hop := range yardstick.Traceroute(net, yardstick.Injected(ex.Leaves[0]), pkt).Hops {
			t.MarkPacket(hop.Loc, net.Space.Singleton(pkt))
		}
	}
	// A configuration audit inspects every rule of border b1.
	audit := func(t yardstick.Tracker) {
		for _, rid := range net.DeviceRules(ex.Borders[0]) {
			t.MarkRule(rid)
		}
	}
	trace := yardstick.NewTrace()
	probe(trace)
	audit(trace)
	cov := yardstick.NewCoverage(net, trace)
	fmt.Printf("devices touched: %.0f%%\n", 100*yardstick.DeviceCoverage(cov, nil, yardstick.Fractional))
	fmt.Printf("b1 covered: %.0f%%\n", 100*yardstick.DeviceCoverage(cov, ex.Borders[:1], yardstick.Simple))
	// Output:
	// devices touched: 57%
	// b1 covered: 100%
}

// ExampleComponentCoverage evaluates the §4.3.2 component specifications
// directly: every built-in metric is Equation 1 applied to one of these
// (G, µ, κ) triples.
func ExampleComponentCoverage() {
	ex, err := yardstick.BuildExample(yardstick.ExampleOpts{Leaves: 2})
	if err != nil {
		panic(err)
	}
	net := ex.Net
	src, dst := ex.Leaves[0], ex.Leaves[1]
	flow := net.Space.DstPrefix(ex.LeafPrefix[dst])
	trace := yardstick.NewTrace()
	yardstick.ReachabilityTest{From: src, Pkts: flow, WantEgress: []yardstick.IfaceID{ex.LeafIface[dst]}, Waypoint: -1}.Run(net, trace)
	cov := yardstick.NewCoverage(net, trace)

	host := ex.LeafIface[dst]
	delivering := net.RulesForwardingTo(host)[0]
	for _, spec := range []yardstick.Spec{
		yardstick.RuleSpec(net, delivering),
		yardstick.DeviceSpec(net, dst),
		yardstick.OutIfaceSpec(net, host),
		yardstick.InIfaceSpec(net, host),
		yardstick.FlowSpec(net, yardstick.Injected(src), flow),
	} {
		fmt.Printf("%-18s %d guarded strings, coverage %.2g\n", spec.Name, len(spec.G), yardstick.ComponentCoverage(cov, spec))
	}
	// Output:
	// rule:l2            1 guarded strings, coverage 1
	// device:l2          11 guarded strings, coverage 6e-08
	// iface:l2/host0     1 guarded strings, coverage 1
	// in-iface:l2/host0  11 guarded strings, coverage 0
	// flow:l1            2 guarded strings, coverage 1
}

// ExampleSpec builds custom specifications (§4.3.1): the same guarded
// strings under a user-written measure and each stock combinator, then
// every path of the universe measured end to end by Equation 3.
func ExampleSpec() {
	ex, err := yardstick.BuildExample(yardstick.ExampleOpts{Leaves: 2})
	if err != nil {
		panic(err)
	}
	net := ex.Net
	src, dst := ex.Leaves[0], ex.Leaves[1]
	trace := yardstick.NewTrace()
	yardstick.PingTest{
		From:    src,
		Packet:  yardstick.Packet{Dst: ex.LeafPrefix[dst].Addr().Next(), Src: netip.MustParseAddr("10.0.0.9"), Proto: 1},
		WantEnd: yardstick.TraceEgressed, WantDevice: dst,
	}.Run(net, trace)
	cov := yardstick.NewCoverage(net, trace)

	// The source leaf's rules, one guarded string each, weighted 1, 2, 3, …
	spec := yardstick.Spec{Name: "leaf"}
	for i, rid := range net.DeviceRules(src) {
		spec.G = append(spec.G, yardstick.GuardedString{Rules: []yardstick.RuleID{rid}})
		spec.Weights = append(spec.Weights, float64(i+1))
	}
	// µ: a rule counts as tested once any packet has exercised it.
	var touched yardstick.Measure = func(c *yardstick.Coverage, g yardstick.GuardedString) float64 {
		if yardstick.FractionMeasure(c, g) > 0 {
			return 1
		}
		return 0
	}
	spec.Measure = touched
	for _, k := range []struct {
		name    string
		combine yardstick.Combinator
	}{
		{"min", yardstick.CombineMin},
		{"mean", yardstick.CombineMean},
		{"weighted mean", yardstick.CombineWeightedMean},
		{"max", yardstick.CombineMax},
	} {
		spec.Combine = k.combine
		fmt.Printf("%-14s %.3f\n", k.name, yardstick.ComponentCoverage(cov, spec))
	}

	// Each path of the universe as a single guarded string: PathMeasure
	// pushes the guard through the path's rules (Equation 3), CombineOnly
	// takes the one value.
	paths, tested := 0, 0
	yardstick.EnumeratePaths(context.Background(), net, yardstick.EdgeStarts(net), yardstick.EnumOpts{}, func(p yardstick.Path) bool {
		path := yardstick.Spec{
			G:       []yardstick.GuardedString{{Guard: p.Guard, Rules: p.Rules}},
			Measure: yardstick.PathMeasure,
			Combine: yardstick.CombineOnly,
		}
		paths++
		if yardstick.ComponentCoverage(cov, path) > 0 {
			tested++
		}
		return true
	})
	fmt.Printf("paths tested   %d of %d\n", tested, paths)
	// Output:
	// min            0.000
	// mean           0.091
	// weighted mean  0.152
	// max            1.000
	// paths tested   2 of 88
}

// ExampleCoFlowCoverage measures an application's set of flows (§4.3.2):
// one flow tested end to end, its reverse untested, weighted by the
// packet space each path carries.
func ExampleCoFlowCoverage() {
	ex, err := yardstick.BuildExample(yardstick.ExampleOpts{Leaves: 2})
	if err != nil {
		panic(err)
	}
	net := ex.Net
	a, b := ex.Leaves[0], ex.Leaves[1]
	toB := net.Space.DstPrefix(ex.LeafPrefix[b])
	toA := net.Space.DstPrefix(ex.LeafPrefix[a])
	trace := yardstick.NewTrace()
	yardstick.ReachabilityTest{From: a, Pkts: toB, WantEgress: []yardstick.IfaceID{ex.LeafIface[b]}, Waypoint: -1}.Run(net, trace)
	cov := yardstick.NewCoverage(net, trace)

	fmt.Printf("a->b: %.2f\n", yardstick.FlowCoverage(cov, yardstick.Injected(a), toB))
	fmt.Printf("b->a: %.2f\n", yardstick.FlowCoverage(cov, yardstick.Injected(b), toA))
	fmt.Printf("both: %.2f\n", yardstick.CoFlowCoverage(cov, []yardstick.Flow{
		{Start: yardstick.Injected(a), Pkts: toB},
		{Start: yardstick.Injected(b), Pkts: toA},
	}))
	// Output:
	// a->b: 1.00
	// b->a: 0.00
	// both: 0.50
}

// ExampleInIfaceCoverage contrasts the two interface metrics under one
// behavioral test: packets cover an outgoing interface through the rules
// that forward to it, and an incoming one only where the trace located
// them arriving on it (§4.3.2).
func ExampleInIfaceCoverage() {
	ex, err := yardstick.BuildExample(yardstick.ExampleOpts{})
	if err != nil {
		panic(err)
	}
	trace := yardstick.NewTrace()
	yardstick.ReachabilityTest{
		From: ex.Leaves[0], Pkts: ex.Net.Space.DstPrefix(ex.DCSuperblock), Waypoint: -1,
	}.Run(ex.Net, trace)
	cov := yardstick.NewCoverage(ex.Net, trace)
	fmt.Printf("outgoing: %.0f%%\n", 100*yardstick.InterfaceCoverage(cov, nil, yardstick.Fractional))
	fmt.Printf("incoming: %.0f%%\n", 100*yardstick.InIfaceCoverage(cov, nil, yardstick.Fractional))
	// Output:
	// outgoing: 60%
	// incoming: 40%
}

// ExampleDecodeNetworkJSON loads a network from its JSON form; the
// decoded network has its match sets and runs suites like a built one.
func ExampleDecodeNetworkJSON() {
	ft, err := yardstick.BuildFatTree(4)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := ft.Net.EncodeJSON(&buf); err != nil {
		panic(err)
	}
	net, err := yardstick.DecodeNetworkJSON(&buf)
	if err != nil {
		panic(err)
	}
	fmt.Println("same shape:", net.Stats() == ft.Net.Stats())
	suite, err := yardstick.BuiltinSuite("contract")
	if err != nil {
		panic(err)
	}
	for _, n := range []*yardstick.Network{ft.Net, net} {
		trace := yardstick.NewTrace()
		for _, res := range suite.Run(context.Background(), n, trace) {
			fmt.Printf("%s: pass=%v, ", res.Name, res.Pass())
		}
		fmt.Printf("rule coverage %.1f%%\n", 100*yardstick.RuleCoverage(yardstick.NewCoverage(n, trace), nil, yardstick.Fractional))
	}
	// Output:
	// same shape: true
	// ToRContract: pass=true, rule coverage 23.8%
	// ToRContract: pass=true, rule coverage 23.8%
}
