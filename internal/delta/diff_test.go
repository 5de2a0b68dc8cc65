package delta

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"yardstick/internal/bgp"
	"yardstick/internal/netmodel"
	"yardstick/internal/topogen"
)

// specEqual compares the definition-relevant fields of two rules by the
// values their wire specs render (match, action, origin, deny —
// everything a delta can change), behind pointers too. It is the oracle
// sameRule is held to.
func specEqual(a, b netmodel.RuleSpec) bool {
	return a.Device == b.Device && a.Table == b.Table && a.Action == b.Action &&
		a.Origin == b.Origin && a.Deny == b.Deny &&
		a.Match.Dst == b.Match.Dst && a.Match.Src == b.Match.Src && sameValue(a.Match.Proto, b.Match.Proto) &&
		sameValue(a.Match.DstPort, b.Match.DstPort) && sameValue(a.Match.SrcPort, b.Match.SrcPort) &&
		slices.Equal(a.Out, b.Out) && sameValue(a.Transform, b.Transform)
}

// sameValue reports whether two pointers are both nil or point at equal
// values.
func sameValue[T comparable](a, b *T) bool {
	return a == b || a != nil && b != nil && *a == *b
}

// flapDiffDigest is the sha256 of the JSON of Diff's ops along
// flapStream: each flap's route changes, and no spine's 5-tuple ACL,
// which no flap touches.
const flapDiffDigest = "e601712ee4e558854643110a1e4753b942fe1b580dfc8c2c7e9b447c29302e00"

// flapStream replays a GenFlaps stream on regional-m (the benchmark's
// regional network) with a 5-tuple ACL and a permit-all entry on every
// spine, and calls step with each pair of consecutive states.
func flapStream(t *testing.T, step func(old, next *netmodel.Network)) {
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{DCs: 2, PodsPerDC: 4, ToRsPerPod: 8})
	if err != nil {
		t.Fatal(err)
	}
	replay := bgp.NewReplay(bgp.Config{Net: rg.Net, Origins: rg.Origins, Statics: rg.Statics, Export: rg.Export})
	build := func() *netmodel.Network {
		n, err := replay.Build()
		if err != nil {
			t.Fatal(err)
		}
		for i, sp := range rg.Spines {
			m := netmodel.MatchAll()
			m.SrcPrefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{198, 18, byte(i), 0}), 24)
			m.Proto, m.DstPortLo, m.DstPortHi = 6, 443, 443
			n.AddACLRule(sp, m, true)
			n.AddACLRule(sp, netmodel.MatchAll(), false)
		}
		return n
	}
	old := build()
	for _, ev := range bgp.GenFlaps(1, 40, len(rg.Origins)) {
		if err := replay.Toggle(ev); err != nil {
			t.Fatal(err)
		}
		next := build()
		step(old, next)
		old = next
	}
}

// TestDiffMatchesSpecOracle holds sameRule to specEqual on every pair of
// rules Diff compares along a flap stream (FIB rules with the same match,
// ACL entries at the same position), and Diff's ops to the digest they
// had under specEqual.
func TestDiffMatchesSpecOracle(t *testing.T) {
	h := sha256.New()
	pairs, equal := 0, 0
	flapStream(t, func(old, next *netmodel.Network) {
		check := func(a, b netmodel.RuleID) {
			want := specEqual(old.RuleSpecOf(a), next.RuleSpecOf(b))
			if got := sameRule(old.Rule(a), next.Rule(b)); got != want {
				t.Fatalf("sameRule(%+v, %+v) = %v, specEqual says %v", old.RuleSpecOf(a), next.RuleSpecOf(b), got, want)
			}
			pairs++
			if want {
				equal++
			}
		}
		for d := range old.Devices {
			oldACL, nextACL := old.Devices[d].ACL, next.Devices[d].ACL
			for i := 0; i < len(oldACL) && i < len(nextACL); i++ {
				check(oldACL[i], nextACL[i])
			}
			nextBy := map[netmodel.Match]netmodel.RuleID{}
			for _, id := range next.Devices[d].FIB {
				nextBy[next.Rule(id).Match] = id
			}
			for _, id := range old.Devices[d].FIB {
				if nid, ok := nextBy[old.Rule(id).Match]; ok {
					check(id, nid)
				}
			}
		}
		ops, err := Diff(old, next)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(h).Encode(ops); err != nil {
			t.Fatal(err)
		}
	})
	if equal == 0 || equal == pairs {
		t.Fatalf("%d of %d compared pairs equal: the stream must compare both kinds", equal, pairs)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != flapDiffDigest {
		t.Errorf("Diff ops digest = %s, want %s", got, flapDiffDigest)
	}
}

// TestDiffOfCloneIsEmpty: a network diffs empty against its own clone,
// 5-tuple ACL entries included — a protocol or a narrowed port range
// does not make an unchanged rule look changed.
func TestDiffOfCloneIsEmpty(t *testing.T) {
	n := netmodel.New()
	a := n.AddDevice("a", netmodel.RoleToR, 65001)
	b := n.AddDevice("b", netmodel.RoleSpine, 65002)
	n.Connect(a, b, netip.MustParsePrefix("10.128.0.0/31"))
	n.AddFIBRule(a, netmodel.MatchDst(netip.MustParsePrefix("10.0.0.0/8")), netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{0}}, netmodel.OriginInternal)
	for i, proto := range []int32{6, 17, -1} {
		m := netmodel.MatchAll()
		m.SrcPrefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{198, 18, byte(i), 0}), 24)
		m.Proto, m.DstPortLo, m.DstPortHi, m.SrcPortLo = proto, 443, 443+uint16(i), 1024
		n.AddACLRule(b, m, i%2 == 0)
	}
	n.AddACLRule(b, netmodel.MatchAll(), false)
	n.ComputeMatchSets()
	ops, err := Diff(n, n.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 0 {
		t.Errorf("Diff against a clone = %d ops, want none: %+v", len(ops), ops)
	}
}

// TestSameRuleMatchesSpecEqual compares every pair of a pool of rules,
// each a base rule (a forward or a drop) with at most one field redrawn
// from a small set, so that many pairs are equal and the rest differ in
// one field: kinds outside the three a spec names, forwards or drops that
// differ only in out-interfaces, invalid prefixes, transforms, protocols,
// port ranges, tables, devices, origins and deny flags.
func TestSameRuleMatchesSpecEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := netmodel.New()
	a := n.AddDevice("a", netmodel.RoleToR, 65001)
	b := n.AddDevice("b", netmodel.RoleSpine, 65002)
	n.Connect(a, b, netip.MustParsePrefix("10.128.0.0/31"))
	n.Connect(a, b, netip.MustParsePrefix("10.128.0.2/31"))
	prefixes := []netip.Prefix{{}, netip.PrefixFrom(netip.Addr{}, -1), netip.MustParsePrefix("10.0.0.0/24"), netip.MustParsePrefix("10.0.0.0/25"), netip.MustParsePrefix("10.0.0.1/24")}
	outs := [][]netmodel.IfaceID{nil, {}, {0}, {2}, {0, 2}}
	transforms := []*netmodel.Transform{nil, {RewriteDst: true, Addr: netip.MustParseAddr("192.0.2.1")}, {RewriteDst: true, Addr: netip.MustParseAddr("192.0.2.2")}, {RewriteSrc: true, Addr: netip.MustParseAddr("192.0.2.1")}}
	for i := 0; i < 160; i++ {
		r := netmodel.Rule{Device: a, Table: netmodel.TableFIB, Match: netmodel.MatchDst(prefixes[2]), Origin: netmodel.OriginInternal,
			Action: netmodel.Action{Kind: netmodel.ActionKind(i % 2), OutIfaces: outs[2]}}
		switch rng.Intn(12) {
		case 0:
			r.Device = b
		case 1:
			r.Table, r.Deny = netmodel.TableACL, rng.Intn(2) == 0
		case 2:
			r.Match.DstPrefix = prefixes[rng.Intn(len(prefixes))]
		case 3:
			r.Match.SrcPrefix = prefixes[rng.Intn(len(prefixes))]
		case 4:
			r.Match.Proto = int32(rng.Intn(3)*6 - 6) // -6, 0 or 6
		case 5:
			r.Match.DstPortLo, r.Match.SrcPortHi = uint16(rng.Intn(2)), uint16(65534+rng.Intn(2))
		case 6:
			r.Action.Kind = netmodel.ActionKind(rng.Intn(5))
		case 7:
			r.Action.OutIfaces = outs[rng.Intn(len(outs))]
		case 8:
			r.Action.Transform = transforms[rng.Intn(len(transforms))]
		case 9:
			r.Origin = netmodel.OriginDefault
		}
		id := n.AddFIBRule(r.Device, r.Match, r.Action, r.Origin)
		n.Rules[id].Table, n.Rules[id].Deny = r.Table, r.Deny
	}
	equal := 0
	for _, x := range n.Rules {
		for _, y := range n.Rules {
			want := specEqual(n.RuleSpecOf(x.ID), n.RuleSpecOf(y.ID))
			if got := sameRule(x, y); got != want {
				t.Fatalf("sameRule(%+v, %+v) = %v, specEqual says %v", *x, *y, got, want)
			}
			if want {
				equal++
			}
		}
	}
	if pairs := len(n.Rules) * len(n.Rules); equal < pairs/20 || equal > pairs/2 {
		t.Fatalf("%d of %d pairs equal: the pool must draw both kinds", equal, pairs)
	}
}
