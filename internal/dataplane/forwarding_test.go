package dataplane

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
	"yardstick/internal/topogen"
)

// The forwarding index against its oracles: match sets against the
// ordered claimed-union walk (re-derived here from the match fields),
// action classes against the fold of their members' match sets, Reach
// against the rule-by-rule flood, Traceroute against the
// first-match walk — on every topogen family, the ACL'd regional, and
// seeded random tables, then again after a Mutation.Commit and on a
// Clone.

// checkMatchSets compares every rule's disjoint match set with the
// ordered walk over its table.
func checkMatchSets(t testing.TB, name string, net *netmodel.Network) {
	t.Helper()
	for _, d := range net.Devices {
		for _, table := range [][]netmodel.RuleID{d.ACL, d.FIB} {
			claimed := net.Space.Empty()
			for _, id := range table {
				r := net.Rule(id)
				raw := r.Match.Set(net.Space)
				if want := raw.Diff(claimed); !r.MatchSet().Equal(want) {
					t.Fatalf("%s: %s rule %d (%v): match set differs from the ordered walk", name, d.Name, id, r.Match.DstPrefix)
				}
				claimed = claimed.Union(raw)
			}
		}
	}
}

// checkClasses folds every device's FIB match sets by action and holds
// the classes (the walk, on a destination-only FIB) and Routed to them.
func checkClasses(t testing.TB, name string, net *netmodel.Network) {
	t.Helper()
	for _, d := range net.Devices {
		var keys []string
		fold := map[string]hdr.Set{}
		routed := net.Space.Empty()
		for _, id := range d.FIB {
			r := net.Rule(id)
			k := fmt.Sprint(r.Action.Kind, r.Action.OutIfaces)
			if tr := r.Action.Transform; tr != nil {
				k += fmt.Sprint(*tr)
			}
			if _, ok := fold[k]; !ok {
				keys = append(keys, k)
				fold[k] = net.Space.Empty()
			}
			fold[k] = fold[k].Union(r.MatchSet())
			routed = routed.Union(r.MatchSet())
		}
		fw := net.Forwarding(d.ID)
		if len(fw.Classes) != len(keys) {
			t.Fatalf("%s: %s has %d classes, %d actions", name, d.Name, len(fw.Classes), len(keys))
		}
		for i, k := range keys {
			if !fw.Classes[i].Match.Equal(fold[k]) {
				t.Fatalf("%s: %s class %d (%s) differs from the fold of its members", name, d.Name, i, k)
			}
		}
		if !fw.Routed.Equal(routed) {
			t.Fatalf("%s: %s Routed differs from the fold of the FIB", name, d.Name)
		}
	}
}

func sameSets[K comparable](t testing.TB, what string, got, want map[K]hdr.Set) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, oracle has %d", what, len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok || !g.Equal(w) {
			t.Fatalf("%s[%v]: differs from the oracle (present %v)", what, k, ok)
		}
	}
}

// checkFlood floods pkts from start both ways and compares set for set.
func checkFlood(t testing.TB, name string, net *netmodel.Network, start Loc, pkts hdr.Set) {
	t.Helper()
	got, err := Reach(net, start, pkts, ReachOpts{})
	want, werr := ReachByRule(net, start, pkts, ReachOpts{})
	if (err != nil) != (werr != nil) {
		t.Fatalf("%s: flood error %v, oracle %v", name, err, werr)
	}
	if err != nil {
		return
	}
	sameSets(t, name+" Arrived", got.Arrived, want.Arrived)
	sameSets(t, name+" Delivered", got.Delivered, want.Delivered)
	sameSets(t, name+" Egressed", got.Egressed, want.Egressed)
	sameSets(t, name+" Dropped", got.Dropped, want.Dropped)
	sameSets(t, name+" NoRoute", got.NoRoute, want.NoRoute)
}

// checkTraces sends packets to addresses the FIBs know (rule prefixes'
// first and last addresses, so most-specific and covering routes both
// fire) plus random ones, from every given start, hop for hop.
func checkTraces(t testing.TB, name string, net *netmodel.Network, rng *rand.Rand, starts []netmodel.DeviceID, perStart int) {
	t.Helper()
	var dsts []netip.Addr
	for _, r := range net.Rules {
		if p := r.Match.DstPrefix; r.Table == netmodel.TableFIB && p.IsValid() {
			dsts = append(dsts, p.Masked().Addr(), lastAddr(p))
		}
	}
	randAddr := func() netip.Addr {
		if net.Family() == hdr.V6 {
			var b [16]byte
			rng.Read(b[:])
			b[0], b[1] = 0x20, 0x01
			return netip.AddrFrom16(b)
		}
		return netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(256)), byte(rng.Intn(256))})
	}
	for _, from := range starts {
		for i := 0; i < perStart; i++ {
			dst := randAddr()
			if len(dsts) > 0 && i%4 != 0 {
				dst = dsts[rng.Intn(len(dsts))]
			}
			pkt := hdr.Packet{Dst: dst, Src: randAddr(), Proto: []uint8{1, 6, 17}[rng.Intn(3)],
				DstPort: uint16(rng.Intn(65536)), SrcPort: uint16(rng.Intn(65536))}
			got := Traceroute(net, Injected(from), pkt)
			want := TracerouteWalk(net, Injected(from), pkt)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: traceroute %v from %s:\n lookup %+v\n walk   %+v", name, pkt, net.Device(from).Name, got, want)
			}
		}
	}
}

func lastAddr(p netip.Prefix) netip.Addr {
	b := p.Masked().Addr().AsSlice()
	for i := p.Bits(); i < len(b)*8; i++ {
		b[i/8] |= 1 << (7 - i%8)
	}
	a, _ := netip.AddrFromSlice(b)
	return a
}

// checkAll runs the comparisons; floods start at every step-th
// device, with the full header space.
func checkAll(t testing.TB, name string, net *netmodel.Network, seed int64, step int) {
	t.Helper()
	checkMatchSets(t, name, net)
	checkClasses(t, name, net)
	var starts []netmodel.DeviceID
	for i := 0; i < len(net.Devices); i += step {
		starts = append(starts, netmodel.DeviceID(i))
	}
	for _, from := range starts {
		checkFlood(t, fmt.Sprintf("%s from %s", name, net.Device(from).Name), net, Injected(from), net.Space.Full())
	}
	checkTraces(t, name, net, rand.New(rand.NewSource(seed)), starts, 24)
}

// mutate commits a small seeded batch: one removal, one action change,
// one re-prefixed route and one addition, where the tables allow.
func mutate(t testing.TB, net *netmodel.Network, rng *rand.Rand) netmodel.MutationResult {
	t.Helper()
	var fib []*netmodel.Rule
	for _, r := range net.Rules {
		if r.Table == netmodel.TableFIB && r.Match.DstPrefix.IsValid() {
			fib = append(fib, r)
		}
	}
	pick := func() *netmodel.Rule { return fib[rng.Intn(len(fib))] }
	mut := net.BeginMutation()
	removed := pick()
	if err := mut.Remove(removed.ID); err != nil {
		t.Fatal(err)
	}
	if r := pick(); r != removed {
		def := netmodel.RuleDef{Device: r.Device, Table: r.Table, Match: r.Match, Origin: r.Origin,
			Action: netmodel.Action{Kind: netmodel.ActDrop}}
		if rng.Intn(2) == 0 { // same action, half the prefix
			def.Action = r.Action
			def.Match.DstPrefix = netip.PrefixFrom(r.Match.DstPrefix.Addr(), (r.Match.DstPrefix.Bits()+1)/2).Masked()
		}
		if err := mut.Modify(r.ID, def); err != nil {
			t.Fatal(err)
		}
	}
	src := pick()
	add := netmodel.RuleDef{Device: src.Device, Table: netmodel.TableFIB, Origin: netmodel.OriginStatic, Action: src.Action,
		Match: netmodel.MatchDst(netip.PrefixFrom(lastAddr(src.Match.DstPrefix), src.Match.DstPrefix.Addr().BitLen()))}
	if err := mut.Add(add); err != nil {
		t.Fatal(err)
	}
	res, err := mut.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkLifecycle is the whole sequence on one network: fresh, after a
// commit (floods have already built classes the commit must drop for
// the devices it touched), and on a clone carrying built classes.
func checkLifecycle(t testing.TB, name string, net *netmodel.Network, seed int64, step int) {
	t.Helper()
	checkAll(t, name, net, seed, step)
	mutate(t, net, rand.New(rand.NewSource(seed)))
	checkAll(t, name+" after commit", net, seed+1, step)
	checkAll(t, name+" clone", net.Clone(), seed+2, step)
}

func TestForwardingIndexFamilies(t *testing.T) {
	ex, err := topogen.BuildExample(topogen.ExampleOpts{BugNullRoute: true})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := topogen.BuildFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{})
	if err != nil {
		t.Fatal(err)
	}
	rg6, err := topogen.BuildRegional(topogen.RegionalOpts{IPv6: true, PodsPerDC: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		net  *netmodel.Network
		step int
	}{
		{"example", ex.Net, 1},
		{"fattree-k4", ft.Net, 3},
		{"regional", rg.Net, 7},
		{"regional-acl", aclRegional(t, rg), 7},
		{"regional-v6", rg6.Net, 5},
	} {
		t.Run(tc.name, func(t *testing.T) { checkLifecycle(t, tc.name, tc.net, 1, tc.step) })
	}
}

// aclRegional is the regional Clos with seeded 5-tuple deny entries and a
// trailing permit on every spine — the benchmark's service network.
func aclRegional(t testing.TB, rg *topogen.Regional) *netmodel.Network {
	t.Helper()
	n := rg.Net.CloneTopology()
	for _, r := range rg.Net.Rules {
		n.AddFIBRule(r.Device, r.Match, r.Action, r.Origin)
	}
	rng := rand.New(rand.NewSource(7))
	for _, sp := range rg.Spines {
		for j := 0; j < 6; j++ {
			m := netmodel.MatchAll()
			m.SrcPrefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(256)), 0}), 24)
			m.Proto = []int32{6, 17}[rng.Intn(2)]
			m.DstPortLo = uint16(rng.Intn(60000))
			m.DstPortHi = m.DstPortLo + uint16(rng.Intn(5000))
			n.AddACLRule(sp, m, true)
		}
		n.AddACLRule(sp, netmodel.MatchAll(), false)
	}
	n.ComputeMatchSets()
	return n
}

// randomNet builds a small seeded network whose tables cover what the
// index must tell apart: nested and repeated prefixes, FIBs without a
// default, a FIB rule with a source match (forces the ordered walk and
// the first-match traceroute on that device), ECMP, drops, deliveries,
// destination rewrites, ACLs with and without a trailing permit, and
// either address family.
func randomNet(seed int64) *netmodel.Network {
	rng := rand.New(rand.NewSource(seed))
	v6 := rng.Intn(4) == 0
	n := netmodel.New()
	if v6 {
		n = netmodel.NewV6()
	}
	addr := func() netip.Addr {
		if v6 {
			var b [16]byte
			b[0], b[1], b[2], b[3] = 0x20, 0x01, 0x0d, 0xb8
			b[5], b[7], b[15] = byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(4))
			return netip.AddrFrom16(b)
		}
		return netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(4) * 64), byte(rng.Intn(4))})
	}
	prefix := func() netip.Prefix {
		lens := []int{8, 12, 16, 18, 20, 24, 30, 32}
		if v6 {
			lens = []int{32, 40, 48, 56, 64, 126, 128}
		}
		return netip.PrefixFrom(addr(), lens[rng.Intn(len(lens))]).Masked()
	}

	devs := make([]netmodel.DeviceID, 3+rng.Intn(4))
	for i := range devs {
		devs[i] = n.AddDevice(fmt.Sprintf("d%d", i), netmodel.RoleToR, uint32(i+1))
		n.AddEdgeIface(devs[i], "edge", netip.Prefix{})
		if i > 0 {
			n.Connect(devs[rng.Intn(i)], devs[i], netip.Prefix{})
		}
	}
	for i := 0; i < len(devs)/2; i++ { // a few cycles
		a, b := devs[rng.Intn(len(devs))], devs[rng.Intn(len(devs))]
		if a != b {
			n.Connect(a, b, netip.Prefix{})
		}
	}

	for _, dev := range devs {
		ifaces := n.Device(dev).Ifaces
		action := func() netmodel.Action {
			switch rng.Intn(8) {
			case 0:
				return netmodel.Action{Kind: netmodel.ActDrop}
			case 1:
				return netmodel.Action{Kind: netmodel.ActDeliver}
			}
			act := netmodel.Action{Kind: netmodel.ActForward}
			for _, i := range rng.Perm(len(ifaces))[:1+rng.Intn(min(3, len(ifaces)))] {
				act.OutIfaces = append(act.OutIfaces, ifaces[i])
			}
			if rng.Intn(8) == 0 {
				act.Transform = &netmodel.Transform{RewriteDst: true, Addr: addr()}
			}
			return act
		}
		// A few actions shared by many rules, as in a real FIB.
		acts := []netmodel.Action{action(), action(), action()}
		var used []netip.Prefix
		if rng.Intn(3) > 0 {
			used = append(used, netip.PrefixFrom(addr(), 0).Masked())
		}
		for i := 0; i < 4+rng.Intn(12); i++ {
			p := prefix()
			if len(used) > 0 && rng.Intn(8) == 0 {
				p = used[rng.Intn(len(used))] // a repeated prefix
			}
			used = append(used, p)
		}
		for _, p := range used {
			m := netmodel.MatchDst(p)
			if rng.Intn(24) == 0 {
				m.SrcPrefix = prefix()
			}
			n.AddFIBRule(dev, m, acts[rng.Intn(len(acts))], netmodel.OriginStatic)
		}
		if rng.Intn(3) == 0 {
			for i := 0; i < 1+rng.Intn(3); i++ {
				m := netmodel.MatchAll()
				m.DstPrefix = prefix()
				if rng.Intn(2) == 0 {
					m.Proto = 6
					m.DstPortLo, m.DstPortHi = 0, uint16(rng.Intn(65536))
				}
				n.AddACLRule(dev, m, rng.Intn(2) == 0)
			}
			if rng.Intn(2) == 0 {
				n.AddACLRule(dev, netmodel.MatchAll(), false)
			}
		}
	}
	n.ComputeMatchSets()
	return n
}

func TestForwardingIndexRandomTables(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		checkLifecycle(t, fmt.Sprintf("seed %d", seed), randomNet(seed), seed, 1)
	}
}

// FuzzForwardingIndex lets the fuzzer pick the table seed.
func FuzzForwardingIndex(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(12))
	f.Fuzz(func(t *testing.T, seed int64) {
		checkLifecycle(t, fmt.Sprintf("seed %d", seed), randomNet(seed), seed, 1)
	})
}
