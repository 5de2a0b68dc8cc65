package testkit

import (
	"context"
	"testing"

	"yardstick/internal/core"
	"yardstick/internal/netmodel"
	"yardstick/internal/topogen"
)

func TestWideAreaRouteCheckPasses(t *testing.T) {
	rg := buildRegional(t)
	tr := core.NewTrace()
	check := WideAreaRouteCheck{Prefixes: rg.WANPrefixes, WANDevices: rg.WANHubs}
	res := check.Run(rg.Net, tr)
	if !res.Pass() {
		t.Fatalf("failures: %+v", res.Failures[:min(5, len(res.Failures))])
	}
	// Checked on spines and non-WAN hubs: WAN hubs are origins.
	wantDevices := len(rg.Spines) + len(rg.Hubs) - len(rg.WANHubs)
	if want := wantDevices * len(rg.WANPrefixes); res.Checks != want {
		t.Errorf("checks = %d, want %d", res.Checks, want)
	}
	// Marks only eligible devices.
	for _, loc := range tr.Locations() {
		role := rg.Net.Device(loc.Device).Role
		if role != netmodel.RoleSpine && role != netmodel.RoleHub {
			t.Errorf("marked %v device", role)
		}
	}
}

func TestWideAreaRouteCheckEmptySpec(t *testing.T) {
	rg := buildRegional(t)
	res := WideAreaRouteCheck{}.Run(rg.Net, core.NewTrace())
	if res.Checks != 0 || !res.Pass() {
		t.Error("empty spec should be a no-op")
	}
}

func TestWideAreaRouteCheckDetectsMissingRoute(t *testing.T) {
	rg := buildRegional(t)
	// Null-route a spine's wide-area rule; the check must fail.
	var victim *netmodel.Rule
	for _, r := range rg.Net.Rules {
		if r.Origin == netmodel.OriginWideArea &&
			rg.Net.Device(r.Device).Role == netmodel.RoleSpine &&
			r.Action.Kind == netmodel.ActForward {
			victim = r
			break
		}
	}
	if victim == nil {
		t.Fatal("no spine wide-area rule")
	}
	saved := victim.Action
	rg.Net.SetAction(victim.ID, netmodel.Action{Kind: netmodel.ActDrop})
	res := WideAreaRouteCheck{Prefixes: rg.WANPrefixes, WANDevices: rg.WANHubs}.Run(rg.Net, core.NewTrace())
	rg.Net.SetAction(victim.ID, saved)
	if res.Pass() {
		t.Fatal("null-routed wide-area route not detected")
	}
}

func TestHostInterfaceCheckPasses(t *testing.T) {
	rg := buildRegional(t)
	tr := core.NewTrace()
	res := HostInterfaceCheck{}.Run(rg.Net, tr)
	if !res.Pass() {
		t.Fatalf("failures: %+v", res.Failures)
	}
	if res.Checks != len(rg.ToRs) {
		t.Errorf("checks = %d, want %d (one subnet per ToR)", res.Checks, len(rg.ToRs))
	}
	// It finally covers the host-facing interfaces.
	c := core.NewCoverage(rg.Net, tr)
	for _, tor := range rg.ToRs {
		spec := core.OutIfaceSpec(rg.Net, rg.HostIface[tor])
		if got := core.ComponentCoverage(c, spec); got <= 0 {
			t.Errorf("host iface on %s still uncovered", rg.Net.Device(tor).Name)
		}
	}
}

func TestHostInterfaceCheckDetectsMisrouting(t *testing.T) {
	rg := buildRegional(t)
	tor := rg.ToRs[0]
	var victim *netmodel.Rule
	for _, rid := range rg.Net.Device(tor).FIB {
		r := rg.Net.Rule(rid)
		if r.Origin == netmodel.OriginInternal && r.Match.DstPrefix == rg.HostPrefix[tor] {
			victim = r
			break
		}
	}
	if victim == nil {
		t.Fatal("no own-subnet rule")
	}
	saved := victim.Action
	// Point the subnet at an uplink instead of the host port.
	rg.Net.SetAction(victim.ID, netmodel.Action{Kind: netmodel.ActForward,
		OutIfaces: []netmodel.IfaceID{rg.Net.Device(tor).Ifaces[0]}})
	res := HostInterfaceCheck{}.Run(rg.Net, core.NewTrace())
	rg.Net.SetAction(victim.ID, saved)
	if res.Pass() {
		t.Fatal("misrouted host subnet not detected")
	}
}

// TestExtendedSuiteClosesGaps verifies that adding the two future-work
// tests on top of the §7.3 final suite eliminates the wide-area and
// host-interface gaps Figure 6d leaves open.
func TestExtendedSuiteClosesGaps(t *testing.T) {
	rg := buildRegional(t)
	final := Suite{
		DefaultRouteCheck{}, AggCanReachTorLoopback{},
		InternalRouteCheck{}, ConnectedRouteCheck{},
	}
	extended := append(Suite{
		WideAreaRouteCheck{Prefixes: rg.WANPrefixes, WANDevices: rg.WANHubs},
		HostInterfaceCheck{},
	}, final...)

	run := func(s Suite) *core.Coverage {
		tr := core.NewTrace()
		for _, res := range s.Run(context.Background(), rg.Net, tr) {
			if !res.Pass() {
				t.Fatalf("%s failed", res.Name)
			}
		}
		return core.NewCoverage(rg.Net, tr)
	}
	cFinal := run(final)
	cExt := run(extended)

	spines := core.DevicesByRole(rg.Net, netmodel.RoleSpine)
	finalSpine := core.RuleCoverage(cFinal, core.RulesOfDevices(rg.Net, spines), core.Fractional)
	extSpine := core.RuleCoverage(cExt, core.RulesOfDevices(rg.Net, spines), core.Fractional)
	if extSpine <= finalSpine {
		t.Errorf("wide-area check should raise spine rule coverage (%v -> %v)", finalSpine, extSpine)
	}
	// Only each spine's own-loopback delivery rule may remain dark.
	if extSpine < 0.98 {
		t.Errorf("extended suite spine rule coverage = %v, want ~1", extSpine)
	}

	tors := core.DevicesByRole(rg.Net, netmodel.RoleToR)
	finalIf := core.InterfaceCoverage(cFinal, core.IfacesOfDevices(rg.Net, tors), core.Fractional)
	extIf := core.InterfaceCoverage(cExt, core.IfacesOfDevices(rg.Net, tors), core.Fractional)
	if extIf <= finalIf {
		t.Errorf("host-interface check should raise ToR interface coverage (%v -> %v)", finalIf, extIf)
	}
	if extIf < 0.99 {
		t.Errorf("extended suite ToR interface coverage = %v, want ~1", extIf)
	}
}

// TestExtendedSuiteCatchesMoreFaultsSeed is a quick sanity check that the
// randomized mutation study in internal/faults has stable inputs here
// too: a null-routed wide-area rule is invisible to the final suite but
// caught by the extended one.
func TestExtendedSuiteCatchesMoreFaultsSeed(t *testing.T) {
	rg := buildRegional(t)
	wanHub := map[netmodel.DeviceID]bool{}
	for _, h := range rg.WANHubs {
		wanHub[h] = true
	}
	// Pick a *transit* wide-area rule (interconnect-only hub), not a WAN
	// hub's origination, which the check rightly treats as an origin.
	var victim *netmodel.Rule
	for _, r := range rg.Net.Rules {
		if r.Origin == netmodel.OriginWideArea &&
			rg.Net.Device(r.Device).Role == netmodel.RoleHub &&
			!wanHub[r.Device] &&
			r.Action.Kind == netmodel.ActForward {
			victim = r
			break
		}
	}
	if victim == nil {
		t.Fatal("no hub wide-area rule")
	}
	saved := victim.Action
	rg.Net.SetAction(victim.ID, netmodel.Action{Kind: netmodel.ActDrop})
	defer rg.Net.SetAction(victim.ID, saved)

	final := Suite{DefaultRouteCheck{}, AggCanReachTorLoopback{}, InternalRouteCheck{}, ConnectedRouteCheck{}}
	for _, res := range final.Run(context.Background(), rg.Net, core.Nop{}) {
		if !res.Pass() {
			t.Fatalf("final suite should be blind to the wide-area fault, but %s failed", res.Name)
		}
	}
	ext := WideAreaRouteCheck{Prefixes: rg.WANPrefixes, WANDevices: rg.WANHubs}
	if ext.Run(rg.Net, core.Nop{}).Pass() {
		t.Fatal("extended check should catch the wide-area fault")
	}
}

// TestSuiteOnIPv6Network runs the full case-study workflow on the IPv6
// twin of the regional network (the paper's network is dual-stack; each
// family is analyzed in its own space).
func TestSuiteOnIPv6Network(t *testing.T) {
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4, IPv6: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := core.NewTrace()
	suite := Suite{
		DefaultRouteCheck{},
		ConnectedRouteCheck{},
		InternalRouteCheck{},
		AggCanReachTorLoopback{},
		HostInterfaceCheck{},
		WideAreaRouteCheck{Prefixes: rg.WANPrefixes, WANDevices: rg.WANHubs},
		ToRPingmesh{},
		ToRReachability{},
	}
	for _, res := range suite.Run(context.Background(), rg.Net, trace) {
		if !res.Pass() {
			t.Fatalf("%s failed on IPv6: %+v", res.Name, res.Failures[:min(3, len(res.Failures))])
		}
		if res.Checks == 0 {
			t.Errorf("%s ran no checks on IPv6", res.Name)
		}
	}
	cov := core.NewCoverage(rg.Net, trace)
	rule := core.RuleCoverage(cov, nil, core.Fractional)
	if rule < 0.9 {
		t.Errorf("IPv6 rule coverage = %v, want high with the full suite", rule)
	}
	// Weighted coverage works in the 296-bit space too.
	if w := core.RuleCoverage(cov, nil, core.Weighted); w <= 0 || w > 1 {
		t.Errorf("IPv6 weighted coverage = %v", w)
	}
}
