package dataplane

import (
	"context"
	"net/netip"
	"testing"

	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
	"yardstick/internal/topogen"
)

func pfx(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestApplyDeviceSplitsByRule(t *testing.T) {
	n := netmodel.New()
	d := n.AddDevice("r", netmodel.RoleToR, 1)
	up := n.AddIface(d, "up")
	n.AddFIBRule(d, netmodel.MatchDst(pfx(t, "10.0.0.0/8")),
		netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{up}}, netmodel.OriginInternal)
	n.AddFIBRule(d, netmodel.MatchDst(pfx(t, "192.168.0.0/16")),
		netmodel.Action{Kind: netmodel.ActDrop}, netmodel.OriginStatic)
	n.ComputeMatchSets()

	full := n.Space.Full()
	res := ApplyDevice(n, d, full)
	if len(res.Hits) != 2 {
		t.Fatalf("hits = %d, want 2", len(res.Hits))
	}
	// NoRoute is everything outside the two prefixes.
	want := full.Diff(n.Space.DstPrefix(pfx(t, "10.0.0.0/8"))).Diff(n.Space.DstPrefix(pfx(t, "192.168.0.0/16")))
	if !res.NoRoute.Equal(want) {
		t.Error("NoRoute mismatch")
	}
	for _, h := range res.Hits {
		if h.Rule.Action.Kind == netmodel.ActForward {
			if len(h.Out) != 1 || h.Out[0].OutIface != up || !h.Out[0].External {
				t.Errorf("forward emission = %+v", h.Out)
			}
		} else if len(h.Out) != 0 {
			t.Error("drop rule should not emit")
		}
	}
}

func TestApplyDeviceACLBeforeFIB(t *testing.T) {
	n := netmodel.New()
	d := n.AddDevice("fw", netmodel.RoleBorder, 1)
	up := n.AddIface(d, "up")
	deny := netmodel.MatchAll()
	deny.DstPortLo, deny.DstPortHi = 23, 23
	n.AddACLRule(d, deny, true)
	n.AddACLRule(d, netmodel.MatchAll(), false)
	n.AddFIBRule(d, netmodel.MatchDst(pfx(t, "0.0.0.0/0")),
		netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{up}}, netmodel.OriginDefault)
	n.ComputeMatchSets()

	res := ApplyDevice(n, d, n.Space.Full())
	// Three hits: ACL deny (port 23), ACL permit (rest), FIB default.
	if len(res.Hits) != 3 {
		t.Fatalf("hits = %d, want 3", len(res.Hits))
	}
	var fibHit *RuleHit
	for i := range res.Hits {
		if res.Hits[i].Rule.Table == netmodel.TableFIB {
			fibHit = &res.Hits[i]
		}
	}
	if fibHit == nil {
		t.Fatal("no FIB hit")
	}
	// FIB sees only permitted (non-port-23) packets.
	if fibHit.Pkts.Overlaps(n.Space.DstPort(23)) {
		t.Error("denied packets leaked to the FIB")
	}
	if !fibHit.Pkts.Equal(n.Space.DstPort(23).Negate()) {
		t.Error("FIB hit should be everything except port 23")
	}
}

func TestApplyDeviceTransform(t *testing.T) {
	n := netmodel.New()
	d := n.AddDevice("nat", netmodel.RoleBorder, 1)
	up := n.AddIface(d, "up")
	vip := netip.MustParseAddr("192.0.2.10")
	n.AddFIBRule(d, netmodel.MatchDst(pfx(t, "10.0.0.0/8")),
		netmodel.Action{
			Kind:      netmodel.ActForward,
			OutIfaces: []netmodel.IfaceID{up},
			Transform: &netmodel.Transform{RewriteDst: true, Addr: vip},
		}, netmodel.OriginStatic)
	n.ComputeMatchSets()

	res := ApplyDevice(n, d, n.Space.Full())
	if len(res.Hits) != 1 {
		t.Fatalf("hits = %d", len(res.Hits))
	}
	out := res.Hits[0].Out[0].Pkts
	if !n.Space.DstIP(vip).Contains(out) {
		t.Error("transform did not rewrite destination")
	}
}

func TestReachExampleLeafToWAN(t *testing.T) {
	ex, err := topogen.BuildExample(topogen.ExampleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	n := ex.Net
	leaf := ex.Leaves[0]
	// Packets to destinations outside the DC should egress via both
	// borders' WAN interfaces.
	outside := n.Space.DstPrefix(pfx(t, "93.184.216.0/24"))
	r, err := Reach(n, Injected(leaf), outside, ReachOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range ex.Borders {
		wan := ex.WANIface[b]
		got := r.Egressed[wan]
		if got.Space() == nil || !got.Equal(outside) {
			t.Errorf("WAN iface of border %d egressed %v packets", b, got)
		}
	}
	// Every spine and border saw the packets.
	for _, dev := range append(append([]netmodel.DeviceID{}, ex.Spines...), ex.Borders...) {
		if r.AtDevice(n, dev).IsEmpty() {
			t.Errorf("device %s untouched", n.Device(dev).Name)
		}
	}
}

func TestReachExampleLeafToLeaf(t *testing.T) {
	ex, err := topogen.BuildExample(topogen.ExampleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	n := ex.Net
	src, dst := ex.Leaves[0], ex.Leaves[1]
	pkts := n.Space.DstPrefix(ex.LeafPrefix[dst])
	r, err := Reach(n, Injected(src), pkts, ReachOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// All packets arrive at dst and leave via its host interface.
	got := r.Egressed[ex.LeafIface[dst]]
	if got.Space() == nil || !got.Equal(pkts) {
		t.Error("leaf-to-leaf packets did not reach the destination subnet")
	}
	// Borders are not involved (destination is internal and spines have
	// the specific route).
	for _, b := range ex.Borders {
		if !r.AtDevice(n, b).IsEmpty() {
			t.Errorf("border %d should not see leaf-to-leaf traffic", b)
		}
	}
}

func TestReachBugBlackholesAtB2(t *testing.T) {
	ex, err := topogen.BuildExample(topogen.ExampleOpts{BugNullRoute: true})
	if err != nil {
		t.Fatal(err)
	}
	n := ex.Net
	leaf := ex.Leaves[0]
	outside := n.Space.DstPrefix(pfx(t, "93.184.216.0/24"))
	r, err := Reach(n, Injected(leaf), outside, ReachOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := n.DeviceByName("b2")
	b1, _ := n.DeviceByName("b1")
	// With the bug, spines route the default only via B1; B2 sees nothing
	// and its null route never drops live traffic (the latent bug).
	if !r.AtDevice(n, b2.ID).IsEmpty() {
		t.Error("b2 should not receive the traffic (spines prefer b1)")
	}
	if got := r.Egressed[ex.WANIface[b1.ID]]; got.Space() == nil || !got.Equal(outside) {
		t.Error("traffic should egress via b1")
	}
}

func TestReachOnHopFeed(t *testing.T) {
	ex, err := topogen.BuildExample(topogen.ExampleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	n := ex.Net
	hops := 0
	pkts := n.Space.DstPrefix(ex.LeafPrefix[ex.Leaves[1]])
	_, err = Reach(n, Injected(ex.Leaves[0]), pkts, ReachOpts{
		OnHop: func(loc Loc, s hdr.Set) {
			hops++
			if s.IsEmpty() {
				t.Error("OnHop with empty set")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Injection at leaf0, two spines, destination leaf: 4 locations
	// (spine arrivals counted per ingress interface).
	if hops < 4 {
		t.Errorf("OnHop fired %d times, want >= 4", hops)
	}
}

func TestTracerouteDelivered(t *testing.T) {
	ex, err := topogen.BuildExample(topogen.ExampleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	n := ex.Net
	src, dst := ex.Leaves[0], ex.Leaves[2]
	pkt := hdr.Packet{
		Dst:   ex.LeafPrefix[dst].Addr().Next(), // some host in the subnet
		Src:   ex.LeafPrefix[src].Addr().Next(),
		Proto: 1,
	}
	tr := Traceroute(n, Injected(src), pkt)
	if tr.End != TraceEgressed {
		t.Fatalf("end = %v, want egressed (host subnet edge)", tr.End)
	}
	// leaf → spine → leaf = 3 hops.
	if len(tr.Hops) != 3 {
		t.Fatalf("hops = %d, want 3", len(tr.Hops))
	}
	if tr.Hops[0].Loc.Device != src {
		t.Error("trace should start at src")
	}
	if last := tr.Hops[len(tr.Hops)-1]; last.Loc.Device != dst {
		t.Errorf("trace should end at %s, got %s", n.Device(dst).Name, n.Device(last.Loc.Device).Name)
	}
}

func TestTracerouteECMPDeterministic(t *testing.T) {
	ex, err := topogen.BuildExample(topogen.ExampleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	n := ex.Net
	pkt := hdr.Packet{
		Dst:   netip.MustParseAddr("93.184.216.34"),
		Src:   ex.LeafPrefix[ex.Leaves[0]].Addr().Next(),
		Proto: 6, DstPort: 443, SrcPort: 10000,
	}
	tr1 := Traceroute(n, Injected(ex.Leaves[0]), pkt)
	tr2 := Traceroute(n, Injected(ex.Leaves[0]), pkt)
	if len(tr1.Hops) != len(tr2.Hops) {
		t.Fatal("nondeterministic traceroute")
	}
	for i := range tr1.Hops {
		if tr1.Hops[i] != tr2.Hops[i] {
			t.Fatal("nondeterministic hop")
		}
	}
	if tr1.End != TraceEgressed {
		t.Errorf("end = %v", tr1.End)
	}
}

func TestTracerouteNoRoute(t *testing.T) {
	// Fat-tree cores have no default; an unknown destination injected at
	// a ToR climbs to a core and dies there.
	ft, err := topogen.BuildFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	pkt := hdr.Packet{
		Dst:   netip.MustParseAddr("203.0.113.9"),
		Src:   netip.MustParseAddr("10.0.0.1"),
		Proto: 17, DstPort: 53,
	}
	tr := Traceroute(ft.Net, Injected(ft.ToRs[0]), pkt)
	if tr.End != TraceNoRoute {
		t.Fatalf("end = %v, want no-route", tr.End)
	}
	// ToR → agg → core: two forwarding hops recorded.
	if len(tr.Hops) != 2 {
		t.Errorf("hops = %d, want 2", len(tr.Hops))
	}
}

func TestTracerouteACLDeny(t *testing.T) {
	n := netmodel.New()
	d := n.AddDevice("fw", netmodel.RoleBorder, 1)
	up := n.AddIface(d, "up")
	deny := netmodel.MatchAll()
	deny.DstPortLo, deny.DstPortHi = 23, 23
	n.AddACLRule(d, deny, true)
	n.AddACLRule(d, netmodel.MatchAll(), false)
	n.AddFIBRule(d, netmodel.MatchDst(pfx(t, "0.0.0.0/0")),
		netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{up}}, netmodel.OriginDefault)
	n.ComputeMatchSets()
	pkt := hdr.Packet{Dst: netip.MustParseAddr("1.2.3.4"), Src: netip.MustParseAddr("5.6.7.8"), Proto: 6, DstPort: 23}
	tr := Traceroute(n, Injected(d), pkt)
	if tr.End != TraceDenied {
		t.Fatalf("end = %v, want acl-denied", tr.End)
	}
	pkt.DstPort = 80
	tr = Traceroute(n, Injected(d), pkt)
	if tr.End != TraceEgressed {
		t.Fatalf("end = %v, want egressed", tr.End)
	}
}

func TestEnumeratePathsSmall(t *testing.T) {
	// Single device, two rules, injected full space: each rule is a
	// one-hop path, plus a no-route path.
	n := netmodel.New()
	d := n.AddDevice("r", netmodel.RoleToR, 1)
	host := n.AddEdgeIface(d, "host", pfx(t, "10.0.0.0/24"))
	n.AddFIBRule(d, netmodel.MatchDst(pfx(t, "10.0.0.0/24")),
		netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{host}}, netmodel.OriginInternal)
	n.AddFIBRule(d, netmodel.MatchDst(pfx(t, "192.168.0.0/16")),
		netmodel.Action{Kind: netmodel.ActDrop}, netmodel.OriginStatic)
	n.ComputeMatchSets()

	starts := []Start{{Loc: Injected(d), Pkts: n.Space.Full()}}
	var paths []Path
	count, complete := EnumeratePaths(context.Background(), n, starts, EnumOpts{}, func(p Path) bool {
		paths = append(paths, p)
		return true
	})
	if !complete || count != 3 {
		t.Fatalf("count = %d complete = %v, want 3 true", count, complete)
	}
	ends := map[PathEnd]int{}
	for _, p := range paths {
		ends[p.End]++
	}
	if ends[PathEgressed] != 1 || ends[PathDropped] != 1 || ends[PathNoRoute] != 1 {
		t.Errorf("ends = %v", ends)
	}
}

func TestEnumeratePathsExampleGuards(t *testing.T) {
	ex, err := topogen.BuildExample(topogen.ExampleOpts{Leaves: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := ex.Net
	// Inject only the other leaf's prefix at leaf0: every non-loop path
	// should be leaf0 → spine → leaf1 → host (3 rules), ECMP over 2
	// spines.
	dst := ex.Leaves[1]
	pkts := n.Space.DstPrefix(ex.LeafPrefix[dst])
	starts := []Start{{Loc: Injected(ex.Leaves[0]), Pkts: pkts}}
	got := 0
	EnumeratePaths(context.Background(), n, starts, EnumOpts{}, func(p Path) bool {
		if p.End == PathEgressed {
			got++
			if len(p.Rules) != 3 {
				t.Errorf("path rule count = %d, want 3", len(p.Rules))
			}
			if !p.Guard.Equal(pkts) {
				t.Error("path guard should be the full injected prefix")
			}
		}
		return true
	})
	if got != 2 {
		t.Errorf("egress paths = %d, want 2 (one per spine)", got)
	}
}

func TestEnumeratePathsMaxPaths(t *testing.T) {
	ex, err := topogen.BuildExample(topogen.ExampleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	count, complete := EnumeratePaths(context.Background(), ex.Net, EdgeStarts(ex.Net), EnumOpts{MaxPaths: 5}, func(p Path) bool {
		return true
	})
	if complete || count != 5 {
		t.Errorf("count = %d complete = %v, want 5 false", count, complete)
	}
}

func TestEdgeStarts(t *testing.T) {
	ex, err := topogen.BuildExample(topogen.ExampleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	starts := EdgeStarts(ex.Net)
	// 3 host ifaces + 2 WAN ifaces.
	if len(starts) != 5 {
		t.Errorf("starts = %d, want 5", len(starts))
	}
}

func TestReachLoopGuard(t *testing.T) {
	// Two devices defaulting to each other: symbolic reach terminates
	// because arrival sets saturate.
	n := netmodel.New()
	a := n.AddDevice("a", netmodel.RoleLeaf, 1)
	b := n.AddDevice("b", netmodel.RoleLeaf, 2)
	ia, ib := n.Connect(a, b, pfx(t, "10.255.0.0/31"))
	n.AddFIBRule(a, netmodel.MatchDst(pfx(t, "0.0.0.0/0")),
		netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{ia}}, netmodel.OriginDefault)
	n.AddFIBRule(b, netmodel.MatchDst(pfx(t, "0.0.0.0/0")),
		netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{ib}}, netmodel.OriginDefault)
	n.ComputeMatchSets()
	r, err := Reach(n, Injected(a), n.Space.Full(), ReachOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if r.AtDevice(n, b).IsEmpty() {
		t.Error("b should see the packets")
	}
	// And path enumeration flags the loop.
	loops := 0
	EnumeratePaths(context.Background(), n, []Start{{Loc: Injected(a), Pkts: n.Space.Full()}}, EnumOpts{}, func(p Path) bool {
		if p.End == PathLoop {
			loops++
		}
		return true
	})
	if loops == 0 {
		t.Error("path enumeration should report a loop")
	}
}

func TestReachRegionalCrossDC(t *testing.T) {
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{})
	if err != nil {
		t.Fatal(err)
	}
	n := rg.Net
	// Find ToRs in different DCs.
	var src, dst netmodel.DeviceID = -1, -1
	for _, tor := range rg.ToRs {
		if rg.DCOf[tor] == 0 && src == -1 {
			src = tor
		}
		if rg.DCOf[tor] == 1 && dst == -1 {
			dst = tor
		}
	}
	pkts := n.Space.DstPrefix(rg.HostPrefix[dst])
	r, err := Reach(n, Injected(src), pkts, ReachOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// All packets make it to the destination host port.
	got := r.Egressed[rg.HostIface[dst]]
	if got.Space() == nil || !got.Equal(pkts) {
		t.Fatal("cross-DC traffic did not fully arrive")
	}
	// The traffic transits spines in both DCs and at least one hub.
	spineDCs := map[int]bool{}
	for _, sp := range rg.Spines {
		if !r.AtDevice(n, sp).IsEmpty() {
			spineDCs[rg.DCOf[sp]] = true
		}
	}
	if !spineDCs[0] || !spineDCs[1] {
		t.Error("cross-DC traffic should transit spines in both DCs")
	}
	hubs := 0
	for _, h := range rg.Hubs {
		if !r.AtDevice(n, h).IsEmpty() {
			hubs++
		}
	}
	if hubs == 0 {
		t.Error("cross-DC traffic should transit the hub layer")
	}
	// No drops anywhere for this destination.
	for dev, s := range r.Dropped {
		if !s.IsEmpty() {
			t.Errorf("dropped at %s", n.Device(dev).Name)
		}
	}
}

func TestReachRegionalWANEgress(t *testing.T) {
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{})
	if err != nil {
		t.Fatal(err)
	}
	n := rg.Net
	// Traffic to a WAN prefix from any ToR must egress via WAN hub edges
	// and only there.
	pkts := n.Space.DstPrefix(rg.WANPrefixes[0])
	r, err := Reach(n, Injected(rg.ToRs[0]), pkts, ReachOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wanEgress := n.Space.Empty()
	for _, hub := range rg.WANHubs {
		if s, ok := r.Egressed[rg.WANIface[hub]]; ok {
			wanEgress = wanEgress.Union(s)
		}
	}
	if !wanEgress.Equal(pkts) {
		t.Error("WAN-bound traffic did not fully egress at WAN hubs")
	}
	for ifid, s := range r.Egressed {
		if n.Iface(ifid).Name == "wan0" || s.IsEmpty() {
			continue
		}
		t.Errorf("unexpected egress at %s/%s", n.Device(n.Iface(ifid).Device).Name, n.Iface(ifid).Name)
	}
}

// TestTracerouteAgreesWithReach is a concrete-vs-symbolic consistency
// property: every traceroute hop must be a device the symbolic flood of
// the same packet also visits, with the same terminal disposition.
func TestTracerouteAgreesWithReach(t *testing.T) {
	ft, err := topogen.BuildFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	n := ft.Net
	for trial, src := range ft.ToRs {
		dst := ft.ToRs[(trial+3)%len(ft.ToRs)]
		if src == dst {
			continue
		}
		pkt := hdr.Packet{
			Dst:   ft.HostPrefix[dst].Addr().Next(),
			Src:   ft.HostPrefix[src].Addr().Next(),
			Proto: 6, DstPort: 80, SrcPort: uint16(1000 + trial),
		}
		tr := Traceroute(n, Injected(src), pkt)
		if tr.End != TraceEgressed {
			t.Fatalf("trace end = %v", tr.End)
		}
		r, err := Reach(n, Injected(src), n.Space.Singleton(pkt), ReachOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for _, hop := range tr.Hops {
			if r.AtDevice(n, hop.Loc.Device).IsEmpty() {
				t.Fatalf("traceroute visited %s but symbolic flood did not",
					n.Device(hop.Loc.Device).Name)
			}
		}
		if got := r.Egressed[ft.HostIface[dst]]; got.Space() == nil || got.IsEmpty() {
			t.Fatal("symbolic flood did not egress at the destination")
		}
	}
}

// TestReachThroughNAT pushes a symbolic flood through a transforming hop
// and checks the rewritten packets arrive downstream.
func TestReachThroughNAT(t *testing.T) {
	n := netmodel.New()
	client := n.AddDevice("client", netmodel.RoleLeaf, 1)
	nat := n.AddDevice("nat", netmodel.RoleBorder, 2)
	srv := n.AddDevice("srv", netmodel.RoleLeaf, 3)
	i1, _ := n.Connect(client, nat, pfx(t, "10.255.0.0/31"))
	i2, _ := n.Connect(nat, srv, pfx(t, "10.255.0.2/31"))
	vip := netip.MustParseAddr("192.0.2.10")
	realServer := netip.MustParseAddr("10.9.0.5")
	host := n.AddEdgeIface(srv, "host", pfx(t, "10.9.0.0/24"))

	// client: default to nat. nat: rewrite VIP traffic to the real server
	// and forward. srv: deliver its subnet out the host port.
	n.AddFIBRule(client, netmodel.MatchDst(pfx(t, "0.0.0.0/0")),
		netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{i1}}, netmodel.OriginDefault)
	n.AddFIBRule(nat, netmodel.MatchDst(netip.PrefixFrom(vip, 32)),
		netmodel.Action{
			Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{i2},
			Transform: &netmodel.Transform{RewriteDst: true, Addr: realServer},
		}, netmodel.OriginStatic)
	n.AddFIBRule(srv, netmodel.MatchDst(pfx(t, "10.9.0.0/24")),
		netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{host}}, netmodel.OriginInternal)
	n.ComputeMatchSets()

	// Flood all VIP-destined packets from the client.
	in := n.Space.DstIP(vip)
	r, err := Reach(n, Injected(client), in, ReachOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got := r.Egressed[host]
	if got.Space() == nil || got.IsEmpty() {
		t.Fatal("no egress after NAT")
	}
	// Everything that egresses carries the rewritten destination.
	if !n.Space.DstIP(realServer).Contains(got) {
		t.Error("egress packets not rewritten")
	}
	// Ports/sources survive the rewrite.
	if !got.Equal(in.RewriteDstIP(realServer)) {
		t.Error("egress set != symbolic rewrite of the input")
	}

	// The concrete path agrees.
	tr := Traceroute(n, Injected(client), hdr.Packet{
		Dst: vip, Src: netip.MustParseAddr("10.1.0.1"), Proto: 6, DstPort: 443,
	})
	if tr.End != TraceEgressed || tr.Hops[len(tr.Hops)-1].Loc.Device != srv {
		t.Fatalf("trace end = %v", tr.End)
	}
}

// TestEnumeratePathsCountsStable: path enumeration is deterministic.
func TestEnumeratePathsCountsStable(t *testing.T) {
	ft, err := topogen.BuildFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	count := func() int {
		n, complete := EnumeratePaths(context.Background(), ft.Net, EdgeStarts(ft.Net), EnumOpts{}, func(Path) bool { return true })
		if !complete {
			t.Fatal("incomplete")
		}
		return n
	}
	a, b := count(), count()
	if a != b || a == 0 {
		t.Errorf("path counts differ: %d vs %d", a, b)
	}
}

// TestImplicitACLDeny: a device with an ACL and no catch-all permit
// implicitly denies unmatched packets — consistently across the symbolic
// apply, the flood, paths, and the concrete traceroute.
func TestImplicitACLDeny(t *testing.T) {
	n := netmodel.New()
	d := n.AddDevice("fw", netmodel.RoleBorder, 1)
	up := n.AddIface(d, "up")
	// Only TCP is permitted; everything else implicitly denied.
	permit := netmodel.MatchAll()
	permit.Proto = 6
	n.AddACLRule(d, permit, false)
	n.AddFIBRule(d, netmodel.MatchDst(pfx(t, "0.0.0.0/0")),
		netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{up}}, netmodel.OriginDefault)
	n.ComputeMatchSets()

	sp := n.Space
	dr := ApplyDevice(n, d, sp.Full())
	if !dr.ImplicitDeny.Equal(sp.Proto(6).Negate()) {
		t.Error("implicit deny should be all non-TCP")
	}

	r, err := Reach(n, Injected(d), sp.Full(), ReachOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Dropped[d]; got.Space() == nil || !got.Equal(sp.Proto(6).Negate()) {
		t.Error("flood did not account the implicit deny as dropped")
	}
	if got := r.Egressed[up]; got.Space() == nil || !got.Equal(sp.Proto(6)) {
		t.Error("only TCP should egress")
	}

	dropped := 0
	EnumeratePaths(context.Background(), n, []Start{{Loc: Injected(d), Pkts: sp.Full()}}, EnumOpts{}, func(p Path) bool {
		if p.End == PathDropped {
			dropped++
		}
		return true
	})
	if dropped == 0 {
		t.Error("path enumeration missing the implicit-deny path")
	}

	udp := hdr.Packet{Dst: netip.MustParseAddr("1.2.3.4"), Src: netip.MustParseAddr("5.6.7.8"), Proto: 17}
	if tr := Traceroute(n, Injected(d), udp); tr.End != TraceDenied {
		t.Errorf("UDP trace end = %v, want acl-denied", tr.End)
	}
	tcp := udp
	tcp.Proto = 6
	if tr := Traceroute(n, Injected(d), tcp); tr.End != TraceEgressed {
		t.Errorf("TCP trace end = %v, want egressed", tr.End)
	}
}

func TestTraceEndStrings(t *testing.T) {
	ends := []TraceEnd{TraceDelivered, TraceEgressed, TraceDropped, TraceDenied, TraceNoRoute, TraceLoop, TraceHopLimit}
	seen := map[string]bool{}
	for _, e := range ends {
		s := e.String()
		if s == "" || s == "unknown" || seen[s] {
			t.Errorf("end %d renders %q", e, s)
		}
		seen[s] = true
	}
	if TraceEnd(99).String() != "unknown" {
		t.Error("unknown end should render unknown")
	}
}

func TestTracerouteLoopAndDrop(t *testing.T) {
	// Two devices defaulting at each other: concrete loop detection.
	n := netmodel.New()
	a := n.AddDevice("a", netmodel.RoleLeaf, 1)
	b := n.AddDevice("b", netmodel.RoleLeaf, 2)
	ia, ib := n.Connect(a, b, pfx(t, "10.255.0.0/31"))
	n.AddFIBRule(a, netmodel.MatchDst(pfx(t, "0.0.0.0/0")),
		netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{ia}}, netmodel.OriginDefault)
	n.AddFIBRule(b, netmodel.MatchDst(pfx(t, "0.0.0.0/0")),
		netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{ib}}, netmodel.OriginDefault)
	n.AddFIBRule(a, netmodel.MatchDst(pfx(t, "192.168.0.0/16")),
		netmodel.Action{Kind: netmodel.ActDrop}, netmodel.OriginStatic)
	n.AddFIBRule(a, netmodel.MatchDst(pfx(t, "10.255.0.0/31")),
		netmodel.Action{Kind: netmodel.ActDeliver}, netmodel.OriginConnected)
	n.ComputeMatchSets()

	loopPkt := hdr.Packet{Dst: netip.MustParseAddr("8.8.8.8"), Src: netip.MustParseAddr("1.1.1.1")}
	if tr := Traceroute(n, Injected(a), loopPkt); tr.End != TraceLoop {
		t.Errorf("loop end = %v", tr.End)
	}
	dropPkt := hdr.Packet{Dst: netip.MustParseAddr("192.168.1.1"), Src: netip.MustParseAddr("1.1.1.1")}
	if tr := Traceroute(n, Injected(a), dropPkt); tr.End != TraceDropped {
		t.Errorf("drop end = %v", tr.End)
	}
	// Delivered at a connected route.
	connPkt := hdr.Packet{Dst: netip.MustParseAddr("10.255.0.0"), Src: netip.MustParseAddr("1.1.1.1")}
	if tr := Traceroute(n, Injected(a), connPkt); tr.End != TraceDelivered {
		t.Errorf("deliver end = %v", tr.End)
	}
}

func TestTraceroutePanicsOnUnfrozenNetwork(t *testing.T) {
	n := netmodel.New()
	d := n.AddDevice("r", netmodel.RoleToR, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Traceroute(n, Injected(d), hdr.Packet{Dst: netip.MustParseAddr("1.2.3.4"), Src: netip.MustParseAddr("5.6.7.8")})
}
