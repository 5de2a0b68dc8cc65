package core

import (
	"net/netip"
	"testing"

	"yardstick/internal/dataplane"
	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
	"yardstick/internal/topogen"
)

// TestCoveredSetsEqualIntersection: the view's T[r] is, node for node, the
// packets marked at the rule's device intersected with M[r] (M[r] itself
// for an inspected rule), whichever way the prefix walk settled it —
// marks that miss a rule's destination prefix, hold all of it, or cover
// part of it, in a destination-only FIB and in an ACL.
func TestCoveredSetsEqualIntersection(t *testing.T) {
	ft, err := topogen.BuildFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	net := ft.Net
	sp := net.Space
	// An ACL on the first ToR: one entry on a host prefix and a port, one
	// matching everything (an invalid destination prefix).
	web := netmodel.MatchDst(ft.HostPrefix[ft.ToRs[1]])
	web.DstPortLo, web.DstPortHi = 80, 80
	mut := net.BeginMutation()
	for _, def := range []netmodel.RuleDef{
		{Device: ft.ToRs[0], Table: netmodel.TableACL, Match: web, Action: netmodel.Action{Kind: netmodel.ActDrop}, Origin: netmodel.OriginACL, Deny: true},
		{Device: ft.ToRs[0], Table: netmodel.TableACL, Match: netmodel.MatchAll(), Action: netmodel.Action{Kind: netmodel.ActForward}, Origin: netmodel.OriginACL},
	} {
		if err := mut.Add(def); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mut.Commit(); err != nil {
		t.Fatal(err)
	}

	tr := NewTrace()
	for i, d := range net.Devices {
		var marks []hdr.Set
		for j, o := range ft.ToRs {
			p := ft.HostPrefix[o]
			switch (i + j) % 4 {
			case 0: // the whole prefix
				marks = append(marks, sp.DstPrefix(p))
			case 1: // half of it
				marks = append(marks, sp.DstPrefix(netip.PrefixFrom(p.Addr(), p.Bits()+1)))
			case 2: // all of it, on one port
				marks = append(marks, sp.DstPrefix(p).Intersect(sp.DstPort(80)))
			}
		}
		tr.MarkPacket(dataplane.Injected(d.ID), sp.UnionAll(marks))
	}
	tr.MarkRule(net.Devices[ft.Aggs[0]].FIB[0])

	c := NewCoverage(net, tr)
	c.Refresh()
	var none, whole, part int
	for _, r := range net.Rules {
		ms := r.MatchSet()
		want := ms
		if !tr.RuleMarked(r.ID) {
			want = tr.PacketsAt(sp, dataplane.Injected(r.Device)).Intersect(ms)
		}
		if got := c.Covered(r.ID); !got.Equal(want) {
			t.Fatalf("rule %d (%v on %s): T[r] is not the marked packets ∩ M[r]", r.ID, r.Match.DstPrefix, net.Devices[r.Device].Name)
		}
		switch {
		case ms.IsEmpty():
		case want.IsEmpty():
			none++
		case want.Equal(ms):
			whole++
		default:
			part++
		}
	}
	if none == 0 || whole == 0 || part == 0 {
		t.Errorf("want rules of every kind: %d uncovered, %d whole, %d in part", none, whole, part)
	}
}
