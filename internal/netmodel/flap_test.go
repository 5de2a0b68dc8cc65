package netmodel_test

import (
	"math/rand"
	"net/netip"
	"testing"

	"yardstick/internal/bgp"
	"yardstick/internal/delta"
	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
	"yardstick/internal/topogen"
)

// TestFlapStreamEqualsScratch commits a seeded stream of BGP flaps to the
// regional network, each as the rule-level delta a daemon's PATCH would
// carry, and after every event holds what Commit patched to oracles that
// read none of it: every rule's match set to a from-scratch derivation
// in the same space (node for node), every longest-prefix lookup to the
// first-match walk over the ordered-walk match sets, and every exact
// prefix lookup to a scan of the FIB.
func TestFlapStreamEqualsScratch(t *testing.T) {
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{})
	if err != nil {
		t.Fatal(err)
	}
	net := rg.Net.Clone()
	replay := bgp.NewReplay(bgp.Config{Net: rg.Net, Origins: rg.Origins, Statics: rg.Statics, Export: rg.Export})
	rng := rand.New(rand.NewSource(1))
	events := bgp.GenFlaps(1, 60, len(rg.Origins))
	for i, ev := range events {
		if err := replay.Toggle(ev); err != nil {
			t.Fatal(err)
		}
		next, err := replay.Build()
		if err != nil {
			t.Fatal(err)
		}
		ops, err := delta.Diff(net, next)
		if err != nil {
			t.Fatal(err)
		}
		if err := delta.ApplyOps(net, ops); err != nil {
			t.Fatal(err)
		}
		for id, want := range net.ScratchMatchSets() {
			if got := net.Rule(netmodel.RuleID(id)).MatchSet(); got.Node() != want.Node() {
				t.Fatalf("event %d: rule %d: match set node %d, from scratch %d", i, id, got.Node(), want.Node())
			}
		}
		for _, d := range net.Devices {
			checkLookups(t, net, d, rng)
		}
	}
}

// checkLookups compares FIBLookup with the first-match walk, on both
// ends of every route's prefix and on random addresses, and FIBRuleFor
// with a scan, on every route's prefix.
func checkLookups(t *testing.T, net *netmodel.Network, d *netmodel.Device, rng *rand.Rand) {
	t.Helper()
	ordered := net.OrderedFIBMatchSets(d.ID)
	walk := func(dst netip.Addr) *netmodel.Rule {
		assign := net.Space.PacketAssign(hdr.Packet{Dst: dst, Src: dst}, nil)
		for i, s := range ordered {
			if s.ContainsAssign(assign) {
				return net.Rule(d.FIB[i])
			}
		}
		return nil
	}
	scan := func(p netip.Prefix) *netmodel.Rule {
		var found *netmodel.Rule
		for _, id := range d.FIB {
			if r := net.Rule(id); r.Match.DstPrefix.IsValid() && r.Match.DstPrefix.Masked() == p && (found == nil || r.ID > found.ID) {
				found = r
			}
		}
		return found
	}
	var dsts []netip.Addr
	for _, id := range d.FIB {
		p := net.Rule(id).Match.DstPrefix.Masked()
		if got, ok := net.FIBRuleFor(d.ID, p); !ok || got != scan(p) {
			t.Fatalf("%s: FIBRuleFor(%v) = %v, %v; the scan finds %v", d.Name, p, got, ok, scan(p))
		}
		last := p.Addr().As4()
		for b := p.Bits(); b < 32; b++ {
			last[b/8] |= 1 << (7 - b%8)
		}
		dsts = append(dsts, p.Addr(), netip.AddrFrom4(last))
	}
	for range 8 {
		dsts = append(dsts, netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(256)), byte(rng.Intn(256))}))
	}
	for _, dst := range dsts {
		got, indexed := net.FIBLookup(d.ID, dst)
		if !indexed {
			t.Fatalf("%s: the regional FIB should take the lookup", d.Name)
		}
		if want := walk(dst); got != want {
			t.Fatalf("%s: FIBLookup(%v) = %v, the walk finds %v", d.Name, dst, got, want)
		}
	}
}
