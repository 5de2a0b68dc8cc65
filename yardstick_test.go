package yardstick_test

import (
	"bytes"
	"context"
	"math"
	"net/netip"
	"testing"

	"yardstick"
)

// TestPublicAPIWorkflow exercises the whole documented workflow through
// the facade: generate, test, measure, drill down.
func TestPublicAPIWorkflow(t *testing.T) {
	rg, err := yardstick.BuildRegional(yardstick.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2, SpinesPerDC: 2, Hubs: 2, WANHubs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := yardstick.NewTrace()
	suite, err := yardstick.BuiltinSuite("default,internal,connected,pingmesh")
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range suite.Run(context.Background(), rg.Net, trace) {
		if !res.Pass() {
			t.Fatalf("%s failed: %+v", res.Name, res.Failures[0])
		}
	}
	cov := yardstick.NewCoverage(rg.Net, trace)

	rule := yardstick.RuleCoverage(cov, nil, yardstick.Fractional)
	dev := yardstick.DeviceCoverage(cov, nil, yardstick.Fractional)
	ifc := yardstick.InterfaceCoverage(cov, nil, yardstick.Fractional)
	if rule <= 0 || rule > 1 || dev != 1 || ifc <= 0 || ifc > 1 {
		t.Errorf("metrics out of expectation: rule=%v dev=%v if=%v", rule, dev, ifc)
	}

	// Role filters and report rendering.
	rows := yardstick.ReportByRole(cov, []yardstick.Role{yardstick.RoleToR, yardstick.RoleHub})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var buf bytes.Buffer
	yardstick.RenderTable(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty render")
	}

	// Gap drill-down: this suite leaves rules untested.
	if len(yardstick.ReportGaps(cov)) == 0 {
		t.Error("no gaps reported")
	}
}

func TestPublicAPIPathAndFlow(t *testing.T) {
	ex, err := yardstick.BuildExample(yardstick.ExampleOpts{Leaves: 2})
	if err != nil {
		t.Fatal(err)
	}
	net := ex.Net
	trace := yardstick.NewTrace()
	src, dst := ex.Leaves[0], ex.Leaves[1]
	flow := net.Space.DstPrefix(ex.LeafPrefix[dst])

	res := yardstick.ReachabilityTest{
		From: src, Pkts: flow,
		WantEgress: []yardstick.IfaceID{ex.LeafIface[dst]},
		Waypoint:   -1,
	}.Run(net, trace)
	if !res.Pass() {
		t.Fatal("reachability failed")
	}

	cov := yardstick.NewCoverage(net, trace)
	if got := yardstick.FlowCoverage(cov, yardstick.Injected(src), flow); math.Abs(got-1) > 1e-9 {
		t.Errorf("flow coverage = %v, want 1", got)
	}
	pc := yardstick.PathCoverage(context.Background(), cov, nil, yardstick.EnumOpts{}, yardstick.Fractional)
	if !pc.Complete || pc.Paths == 0 {
		t.Fatalf("path coverage: %+v", pc)
	}
}

func TestPublicAPICustomSpec(t *testing.T) {
	ex, err := yardstick.BuildExample(yardstick.ExampleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	net := ex.Net
	trace := yardstick.NewTrace()
	// Inspect every border rule.
	b1, _ := net.DeviceByName("b1")
	for _, rid := range net.DeviceRules(b1.ID) {
		trace.MarkRule(rid)
	}
	cov := yardstick.NewCoverage(net, trace)

	var g []yardstick.GuardedString
	for _, rid := range net.DeviceRules(b1.ID) {
		g = append(g, yardstick.GuardedString{Rules: []yardstick.RuleID{rid}})
	}
	spec := yardstick.Spec{
		Name:    "b1-min",
		G:       g,
		Measure: yardstick.FractionMeasure,
		Combine: yardstick.CombineMin,
	}
	if got := yardstick.ComponentCoverage(cov, spec); got != 1 {
		t.Errorf("fully inspected device min coverage = %v, want 1", got)
	}
}

func TestPublicAPIDataplane(t *testing.T) {
	ex, err := yardstick.BuildExample(yardstick.ExampleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	net := ex.Net
	// Symbolic flood.
	r, err := yardstick.Reach(net, yardstick.Injected(ex.Leaves[0]),
		net.Space.DstPrefix(ex.LeafPrefix[ex.Leaves[1]]), yardstick.ReachOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Egressed) == 0 {
		t.Error("no egress")
	}
	// Concrete traceroute.
	tr := yardstick.Traceroute(net, yardstick.Injected(ex.Leaves[0]), yardstick.Packet{
		Dst: ex.LeafPrefix[ex.Leaves[1]].Addr().Next(),
		Src: netip.MustParseAddr("10.0.0.1"),
	})
	if tr.End != yardstick.TraceEgressed {
		t.Errorf("trace end = %v", tr.End)
	}
}

func TestPublicAPIHandBuiltBGP(t *testing.T) {
	net := yardstick.NewNetwork()
	a := net.AddDevice("a", yardstick.RoleLeaf, 65001)
	b := net.AddDevice("b", yardstick.RoleSpine, 65002)
	net.Connect(a, b, netip.MustParsePrefix("10.255.0.0/31"))
	p := netip.MustParsePrefix("10.9.0.0/24")
	host := net.AddEdgeIface(a, "h", p)
	if _, err := yardstick.RunBGP(yardstick.BGPConfig{
		Net: net,
		Origins: []yardstick.Origination{
			{Device: a, Prefix: p, Origin: yardstick.OriginInternal, EdgeIface: host},
		},
	}); err != nil {
		t.Fatal(err)
	}
	net.ComputeMatchSets()
	r, err := yardstick.Reach(net, yardstick.Injected(b), net.Space.DstPrefix(p), yardstick.ReachOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Egressed[host]; got.Space() == nil || !got.Equal(net.Space.DstPrefix(p)) {
		t.Error("hand-built network does not forward")
	}
}
